#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "detectors/court_model.h"
#include "detectors/event_rules.h"
#include "detectors/hmm.h"
#include "detectors/hmm_events.h"
#include "detectors/player_tracker.h"
#include "media/block_codec.h"
#include "media/tennis_synthesizer.h"
#include "util/stats.h"

namespace cobra::detectors {
namespace {

using media::Broadcast;
using media::ShotCategory;
using media::TennisBroadcastSynthesizer;
using media::TennisSynthConfig;

TennisSynthConfig TrackConfig(uint64_t seed = 42) {
  TennisSynthConfig config;
  config.width = 160;
  config.height = 120;
  config.num_points = 4;
  config.min_court_frames = 100;
  config.max_court_frames = 160;
  config.min_cutaway_frames = 12;
  config.max_cutaway_frames = 20;
  config.noise_sigma = 3.0;
  config.net_approach_prob = 1.0;
  config.seed = seed;
  return config;
}

const Broadcast& SharedBroadcast() {
  static const Broadcast* b = [] {
    auto r = TennisBroadcastSynthesizer(TrackConfig()).Synthesize();
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return new Broadcast(std::move(r).TakeValue());
  }();
  return *b;
}

std::vector<FrameInterval> CourtShots(const Broadcast& b) {
  std::vector<FrameInterval> out;
  for (const auto& s : b.truth.shots) {
    if (s.category == ShotCategory::kTennis) out.push_back(s.range);
  }
  return out;
}

// ---------- Court model ----------

TEST(CourtModelTest, EstimatesGeometryFromCourtFrame) {
  const Broadcast& b = SharedBroadcast();
  auto shots = CourtShots(b);
  ASSERT_FALSE(shots.empty());
  media::Frame frame = b.video->GetFrame(shots[0].begin).TakeValue();
  auto model = EstimateCourtModel(frame);
  ASSERT_TRUE(model.ok()) << model.status().ToString();

  media::CourtGeometry geom =
      media::CourtGeometry::ForFrame(frame.width(), frame.height());
  // The estimated net row should sit near the real one.
  EXPECT_NEAR(model->net_y, geom.net_y, 6);
  // The estimated court bbox should overlap the real court strongly.
  EXPECT_GE(model->court_bbox.Iou(geom.court), 0.7)
      << "estimated " << model->court_bbox.ToString() << " true "
      << geom.court.ToString();
}

TEST(CourtModelTest, CourtColorMatchesCourtNotPlayers) {
  const Broadcast& b = SharedBroadcast();
  auto shots = CourtShots(b);
  media::Frame frame = b.video->GetFrame(shots[0].begin).TakeValue();
  auto model = EstimateCourtModel(frame).TakeValue();
  EXPECT_TRUE(model.court_color.Matches(media::Rgb{48, 80, 176}, 4.0));
  EXPECT_FALSE(model.court_color.Matches(media::Rgb{208, 48, 48}, 4.0));
  EXPECT_FALSE(model.court_color.Matches(media::Rgb{208, 144, 112}, 4.0));
}

TEST(CourtModelTest, RejectsNonCourtFrame) {
  TennisBroadcastSynthesizer synth(TrackConfig());
  media::Frame audience = synth.RenderStandalone(ShotCategory::kAudience, 5);
  EXPECT_FALSE(EstimateCourtModel(audience).ok());
}

TEST(CourtModelTest, RejectsEmptyFrame) {
  EXPECT_FALSE(EstimateCourtModel(media::Frame()).ok());
}

// ---------- Player tracking ----------

TEST(PlayerTrackerTest, TracksBothPlayersThroughShot) {
  const Broadcast& b = SharedBroadcast();
  auto shots = CourtShots(b);
  PlayerTracker tracker;
  auto result = tracker.Track(*b.video, shots[0]);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->tracks.size(), 2u);
  for (const PlayerTrack& track : result->tracks) {
    EXPECT_EQ(static_cast<int64_t>(track.points.size()), shots[0].Length());
    EXPECT_GE(track.ObservedFraction(), 0.8) << "player " << track.player_id;
  }
}

TEST(PlayerTrackerTest, TrackFollowsGroundTruth) {
  const Broadcast& b = SharedBroadcast();
  auto shots = CourtShots(b);
  PlayerTracker tracker;
  for (const FrameInterval& shot : shots) {
    auto result = tracker.Track(*b.video, shot);
    ASSERT_TRUE(result.ok());
    for (const PlayerTrack& track : result->tracks) {
      RunningStats err;
      for (const TrackPoint& p : track.points) {
        if (p.predicted_only) continue;
        const auto& players =
            b.truth.players_by_frame[static_cast<size_t>(p.frame)];
        ASSERT_EQ(players.size(), 2u);
        err.Add(p.center.DistanceTo(players[static_cast<size_t>(track.player_id)].center));
      }
      EXPECT_LT(err.mean(), 5.0)
          << "player " << track.player_id << " mean center error";
    }
  }
}

TEST(PlayerTrackerTest, RejectsBadShot) {
  const Broadcast& b = SharedBroadcast();
  PlayerTracker tracker;
  EXPECT_FALSE(tracker.Track(*b.video, FrameInterval{-5, 10}).ok());
  EXPECT_FALSE(tracker
                   .Track(*b.video, FrameInterval{0, b.video->num_frames() + 1})
                   .ok());
}

TEST(PlayerTrackerTest, FailsGracefullyOnNonCourtShot) {
  const Broadcast& b = SharedBroadcast();
  // Find an audience/other shot.
  for (const auto& s : b.truth.shots) {
    if (s.category == ShotCategory::kAudience ||
        s.category == ShotCategory::kOther) {
      PlayerTracker tracker;
      auto result = tracker.Track(*b.video, s.range);
      EXPECT_FALSE(result.ok());
      EXPECT_EQ(result.status().code(), StatusCode::kDetectorError);
      return;
    }
  }
  GTEST_SKIP() << "no non-court shot in this broadcast";
}

// ---------- Pinned tracker output ----------

// FNV-1a over the bytes of each value added.
class Fnv1a {
 public:
  template <typename T>
  void Add(T value) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (unsigned char b : bytes) state_ = (state_ ^ b) * 0x100000001b3ull;
  }
  void Add(const RectI& r) {
    Add(r.x);
    Add(r.y);
    Add(r.width);
    Add(r.height);
  }
  void Add(const PointD& p) {
    Add(p.x);
    Add(p.y);
  }
  uint64_t value() const { return state_; }

 private:
  uint64_t state_ = 0xcbf29ce484222325ull;
};

// The end-to-end archive's broadcast shape (128x96, three points with
// cutaways) at a fixed seed.
TennisSynthConfig ArchiveShapeConfig() {
  TennisSynthConfig config;
  config.width = 128;
  config.height = 96;
  config.num_points = 3;
  config.min_court_frames = 120;
  config.max_court_frames = 140;
  config.min_cutaway_frames = 28;
  config.max_cutaway_frames = 36;
  config.net_approach_prob = 0.7;
  config.seed = 10;
  return config;
}

struct TrackDigest {
  uint64_t digest = 0;
  int64_t points = 0;
  int64_t coasting = 0;  ///< predicted_only points
};

// Digests every field of every track point of every court shot: frame,
// center, bbox, predicted_only and the shape features. The orientation
// comes from the C library's atan2, which is not correctly rounded on every
// platform, so it enters in nanoradians; everything else enters bit for bit.
TrackDigest DigestTracking(const media::VideoSource& video,
                           const Broadcast& b,
                           const PlayerTrackerConfig& config) {
  PlayerTracker tracker(config);
  Fnv1a h;
  TrackDigest out;
  for (const FrameInterval& shot : CourtShots(b)) {
    auto result = tracker.Track(video, shot);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (!result.ok()) continue;
    h.Add(result->frames_processed);
    h.Add(result->tracks.size());
    for (const PlayerTrack& track : result->tracks) {
      h.Add(track.player_id);
      h.Add(track.points.size());
      for (const TrackPoint& p : track.points) {
        h.Add(p.frame);
        h.Add(p.center);
        h.Add(p.bbox);
        h.Add(static_cast<uint8_t>(p.predicted_only));
        h.Add(p.features.area);
        h.Add(p.features.mass_center);
        h.Add(p.features.bounding_box);
        h.Add(static_cast<int64_t>(std::llround(p.features.orientation * 1e9)));
        h.Add(p.features.eccentricity);
        h.Add(p.features.dominant_color.r);
        h.Add(p.features.dominant_color.g);
        h.Add(p.features.dominant_color.b);
        ++out.points;
        if (p.predicted_only) ++out.coasting;
      }
    }
  }
  out.digest = h.value();
  return out;
}

// Tracker output on raw and coded sources must not drift. The pinned digests
// come from the full-frame segmentation (mask, opening and labeling over the
// whole frame), which the ROI-local one must reproduce exactly.
TEST(PlayerTrackerTest, OutputMatchesPinnedDigest) {
  auto synthesized =
      TennisBroadcastSynthesizer(ArchiveShapeConfig()).Synthesize();
  ASSERT_TRUE(synthesized.ok()) << synthesized.status().ToString();
  const Broadcast& b = *synthesized;
  media::CodecConfig codec;
  codec.motion_search_range = 3;
  auto encoded = media::BlockVideoEncoder::Encode(*b.video, codec);
  ASSERT_TRUE(encoded.ok()) << encoded.status().ToString();
  const media::CodedVideoSource coded(std::move(encoded).TakeValue());

  PlayerTrackerConfig narrow;
  narrow.search_margin = 3;
  narrow.max_lost_frames = 1;
  PlayerTrackerConfig permissive;
  permissive.min_player_area = 3;
  permissive.foreground_k = 1.5;
  struct Case {
    const char* name;
    PlayerTrackerConfig config;
    uint64_t raw;
    uint64_t coded;
    bool coasts;
  };
  const Case cases[] = {
      {"default", PlayerTrackerConfig{}, 0x7111d44e15e66471ull,
       0x70c6af0db2ae8243ull, false},
      // A 3-pixel margin loses the player on the coded source at this seed,
      // so the track coasts and re-segments its half of the court ROI.
      {"margin3_lost1", narrow, 0x92f85f0531421e17ull, 0x478d30b106f4deedull,
       true},
      {"area3_k1.5", permissive, 0xef694add4470a583ull, 0x13f4cf6e76e9b808ull,
       false},
  };

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const TrackDigest raw = DigestTracking(*b.video, b, c.config);
    const TrackDigest cod = DigestTracking(coded, b, c.config);
    EXPECT_EQ(raw.digest, c.raw) << std::hex << raw.digest;
    EXPECT_EQ(cod.digest, c.coded) << std::hex << cod.digest;
    EXPECT_EQ(raw.points, cod.points);
    if (c.coasts) {
      EXPECT_GT(cod.coasting, 0);
    }
  }
}

TEST(PlayerTrackTest, CenterAtFindsFrames) {
  PlayerTrack track;
  track.points.push_back(TrackPoint{.frame = 5, .center = {1, 2}, .bbox = {}, .features = {}, .predicted_only = false});
  track.points.push_back(TrackPoint{.frame = 6, .center = {3, 4}, .bbox = {}, .features = {}, .predicted_only = false});
  PointD out;
  EXPECT_TRUE(track.CenterAt(6, &out));
  EXPECT_EQ(out.x, 3);
  EXPECT_FALSE(track.CenterAt(7, &out));
}

// ---------- Rule-based events ----------

TEST(EventRulesTest, DetectsScriptedEvents) {
  const Broadcast& b = SharedBroadcast();
  auto shots = CourtShots(b);
  PlayerTracker tracker;
  EventRuleEngine rules;

  std::vector<NamedInterval> truth, detected;
  for (const auto& e : b.truth.events) {
    truth.push_back(NamedInterval{e.name, e.player_id, e.range});
  }
  for (const FrameInterval& shot : shots) {
    auto tracking = tracker.Track(*b.video, shot);
    ASSERT_TRUE(tracking.ok());
    for (const DetectedEvent& e : rules.Detect(*tracking, shot)) {
      detected.push_back(NamedInterval{e.name, e.player_id, e.range});
    }
  }
  PrecisionRecall pr = MatchEvents(truth, detected, 0.3);
  EXPECT_GE(pr.Recall(), 0.6) << pr.ToString();
  EXPECT_GE(pr.Precision(), 0.6) << pr.ToString();

  // Net play specifically (config forces one approach per point).
  std::vector<NamedInterval> truth_net, det_net;
  for (const auto& e : truth) {
    if (e.name == media::kEventNetPlay) truth_net.push_back(e);
  }
  for (const auto& e : detected) {
    if (e.name == media::kEventNetPlay) det_net.push_back(e);
  }
  ASSERT_FALSE(truth_net.empty());
  PrecisionRecall net_pr = MatchEvents(truth_net, det_net, 0.3);
  EXPECT_GE(net_pr.Recall(), 0.6) << net_pr.ToString();
}

TEST(EventRulesTest, EmptyTrackingYieldsNoEvents) {
  TrackingResult empty;
  EventRuleEngine rules;
  EXPECT_TRUE(rules.Detect(empty, FrameInterval{0, 100}).empty());
}

TEST(IntervalIouTest, Values) {
  EXPECT_DOUBLE_EQ(IntervalIou({0, 9}, {0, 9}), 1.0);
  EXPECT_DOUBLE_EQ(IntervalIou({0, 9}, {10, 19}), 0.0);
  EXPECT_NEAR(IntervalIou({0, 9}, {5, 14}), 5.0 / 15.0, 1e-12);
}

TEST(MatchEventsTest, NameAndPlayerMustAgree) {
  std::vector<NamedInterval> truth = {{"net_play", 0, {10, 30}}};
  // Wrong name.
  PrecisionRecall pr = MatchEvents(truth, {{"rally", 0, {10, 30}}});
  EXPECT_EQ(pr.true_positives, 0);
  // Wrong player.
  pr = MatchEvents(truth, {{"net_play", 1, {10, 30}}});
  EXPECT_EQ(pr.true_positives, 0);
  // Player wildcard (-1) matches.
  pr = MatchEvents(truth, {{"net_play", -1, {10, 30}}});
  EXPECT_EQ(pr.true_positives, 1);
}

// ---------- Discrete HMM ----------

TEST(HmmTest, SupervisedEstimationRecoversTransitions) {
  // Two states that strongly self-loop, distinct emissions.
  std::vector<std::vector<int>> states, symbols;
  for (int seq = 0; seq < 20; ++seq) {
    std::vector<int> st, sy;
    for (int t = 0; t < 50; ++t) {
      int s = t < 25 ? 0 : 1;
      st.push_back(s);
      sy.push_back(s == 0 ? 0 : 1);
    }
    states.push_back(st);
    symbols.push_back(sy);
  }
  auto hmm = DiscreteHmm::FromLabeledSequences(states, symbols, 2, 2, 0.1);
  ASSERT_TRUE(hmm.ok());
  EXPECT_GT(hmm->transition(0, 0), 0.9);
  EXPECT_GT(hmm->transition(1, 1), 0.9);
  EXPECT_GT(hmm->emission(0, 0), 0.95);
  EXPECT_GT(hmm->emission(1, 1), 0.95);
  EXPECT_GT(hmm->initial(0), 0.9);
}

TEST(HmmTest, ViterbiDecodesPlantedSequence) {
  std::vector<std::vector<int>> states = {{0, 0, 0, 1, 1, 1, 0, 0}};
  std::vector<std::vector<int>> symbols = {{0, 0, 0, 1, 1, 1, 0, 0}};
  // Train on many copies for sharp parameters.
  std::vector<std::vector<int>> st(30, states[0]), sy(30, symbols[0]);
  auto hmm = DiscreteHmm::FromLabeledSequences(st, sy, 2, 2, 0.05);
  ASSERT_TRUE(hmm.ok());
  auto path = hmm->Viterbi({0, 0, 1, 1, 0});
  ASSERT_TRUE(path.ok());
  EXPECT_EQ(*path, (std::vector<int>{0, 0, 1, 1, 0}));
}

TEST(HmmTest, ViterbiEmptyAndInvalid) {
  DiscreteHmm hmm(2, 3);
  EXPECT_TRUE(hmm.Viterbi({}).ok());
  EXPECT_TRUE(hmm.Viterbi({}).value().empty());
  EXPECT_FALSE(hmm.Viterbi({5}).ok());
  EXPECT_FALSE(hmm.Viterbi({-1}).ok());
}

TEST(HmmTest, LogLikelihoodPrefersTrainedPattern) {
  std::vector<std::vector<int>> st(20), sy(20);
  for (auto& s : st) s = std::vector<int>(40, 0);
  for (auto& s : sy) s = std::vector<int>(40, 0);
  auto hmm = DiscreteHmm::FromLabeledSequences(st, sy, 2, 2, 0.2);
  ASSERT_TRUE(hmm.ok());
  double ll_match = hmm->LogLikelihood(std::vector<int>(20, 0)).TakeValue();
  double ll_mismatch = hmm->LogLikelihood(std::vector<int>(20, 1)).TakeValue();
  EXPECT_GT(ll_match, ll_mismatch);
}

TEST(HmmTest, BaumWelchImprovesLikelihood) {
  // Observations generated by a 2-state process; start from uniform model.
  std::vector<std::vector<int>> obs;
  for (int seq = 0; seq < 10; ++seq) {
    std::vector<int> o;
    for (int t = 0; t < 60; ++t) o.push_back((t / 15) % 2);
    obs.push_back(o);
  }
  Rng rng(55);
  DiscreteHmm hmm = DiscreteHmm::Random(2, 2, &rng);
  double before = 0;
  for (const auto& o : obs) before += hmm.LogLikelihood(o).TakeValue();
  auto after = hmm.BaumWelch(obs, 10);
  ASSERT_TRUE(after.ok());
  EXPECT_GT(*after, before);
}

TEST(HmmTest, FromLabeledSequencesValidation) {
  EXPECT_FALSE(
      DiscreteHmm::FromLabeledSequences({{0}}, {{0}, {1}}, 2, 2).ok());
  EXPECT_FALSE(DiscreteHmm::FromLabeledSequences({{5}}, {{0}}, 2, 2).ok());
  EXPECT_FALSE(DiscreteHmm::FromLabeledSequences({{0}}, {{9}}, 2, 2).ok());
  EXPECT_FALSE(DiscreteHmm::FromLabeledSequences({{0, 0}}, {{0}}, 2, 2).ok());
}

// ---------- HMM event recognition ----------

TEST(HmmEventsTest, TruthStateSequenceMarksEvents) {
  const Broadcast& b = SharedBroadcast();
  auto shots = CourtShots(b);
  auto states = BuildTruthStateSequence(b.truth, 0, shots[0]);
  EXPECT_EQ(static_cast<int64_t>(states.size()), shots[0].Length());
  // The shot starts with a serve.
  EXPECT_EQ(states[0], kStateServe);
}

TEST(HmmEventsTest, TrainedRecognizerFindsNetPlay) {
  // Train on broadcasts with different seeds, evaluate on the shared one.
  PlayerTracker tracker;
  HmmEventRecognizer recognizer;
  std::vector<std::vector<int>> state_seqs, symbol_seqs;
  for (uint64_t seed : {101, 202, 303}) {
    auto train = TennisBroadcastSynthesizer(TrackConfig(seed)).Synthesize();
    ASSERT_TRUE(train.ok());
    for (const auto& s : train->truth.shots) {
      if (s.category != ShotCategory::kTennis) continue;
      auto tracking = tracker.Track(*train->video, s.range);
      if (!tracking.ok()) continue;
      for (const PlayerTrack& track : tracking->tracks) {
        state_seqs.push_back(
            BuildTruthStateSequence(train->truth, track.player_id, s.range));
        symbol_seqs.push_back(
            EncodeTrackSymbols(track, tracking->court, s.range));
      }
    }
  }
  ASSERT_TRUE(recognizer.Train(state_seqs, symbol_seqs).ok());
  ASSERT_TRUE(recognizer.trained());

  const Broadcast& b = SharedBroadcast();
  std::vector<NamedInterval> truth_net, det_net;
  for (const auto& e : b.truth.events) {
    if (e.name == media::kEventNetPlay) {
      truth_net.push_back(NamedInterval{e.name, e.player_id, e.range});
    }
  }
  for (const FrameInterval& shot : CourtShots(b)) {
    auto tracking = tracker.Track(*b.video, shot);
    ASSERT_TRUE(tracking.ok());
    for (const PlayerTrack& track : tracking->tracks) {
      auto events = recognizer.Recognize(track, tracking->court, shot);
      ASSERT_TRUE(events.ok());
      for (const DetectedEvent& e : *events) {
        if (e.name == media::kEventNetPlay) {
          det_net.push_back(NamedInterval{e.name, e.player_id, e.range});
        }
      }
    }
  }
  ASSERT_FALSE(truth_net.empty());
  PrecisionRecall pr = MatchEvents(truth_net, det_net, 0.3);
  EXPECT_GE(pr.Recall(), 0.6) << pr.ToString();
  EXPECT_GE(pr.Precision(), 0.5) << pr.ToString();
}

TEST(HmmEventsTest, UntrainedRecognizerFails) {
  HmmEventRecognizer recognizer;
  PlayerTrack track;
  CourtModel court;
  EXPECT_TRUE(recognizer.Recognize(track, court, FrameInterval{0, 10})
                  .status()
                  .code() == StatusCode::kFailedPrecondition);
}

TEST(HmmEventsTest, EncoderFillsGaps) {
  CourtModel court;
  court.court_bbox = RectI{10, 10, 100, 100};
  court.net_y = 60;
  PlayerTrack track;
  track.player_id = 0;
  // Only two observations in a 5-frame shot.
  track.points.push_back(TrackPoint{.frame = 1, .center = {50, 100}, .bbox = {}, .features = {}, .predicted_only = false});
  track.points.push_back(TrackPoint{.frame = 3, .center = {50, 62}, .bbox = {}, .features = {}, .predicted_only = false});
  auto symbols = EncodeTrackSymbols(track, court, FrameInterval{0, 4});
  ASSERT_EQ(symbols.size(), 5u);
  for (int s : symbols) {
    EXPECT_GE(s, 0);
    EXPECT_LT(s, kNumHmmSymbols);
  }
  // Frame 0 copies frame 1's symbol backward; frame 4 copies frame 3's.
  EXPECT_EQ(symbols[0], symbols[1]);
  EXPECT_EQ(symbols[4], symbols[3]);
}

}  // namespace
}  // namespace cobra::detectors
