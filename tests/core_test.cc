#include <gtest/gtest.h>

#include <vector>

#include "core/event_grammar.h"
#include "core/meta_index.h"
#include "core/tennis_fde.h"
#include "core/video_description.h"
#include "detectors/event_rules.h"
#include "media/tennis_synthesizer.h"

namespace cobra::core {
namespace {

using media::Broadcast;
using media::ShotCategory;
using media::TennisBroadcastSynthesizer;
using media::TennisSynthConfig;

TennisSynthConfig IndexConfig(uint64_t seed = 42) {
  TennisSynthConfig config;
  config.width = 160;
  config.height = 120;
  config.num_points = 4;
  config.min_court_frames = 100;
  config.max_court_frames = 150;
  config.min_cutaway_frames = 14;
  config.max_cutaway_frames = 22;
  config.noise_sigma = 3.0;
  config.net_approach_prob = 1.0;
  config.seed = seed;
  return config;
}

const Broadcast& SharedBroadcast() {
  static const Broadcast* b = [] {
    auto r = TennisBroadcastSynthesizer(IndexConfig()).Synthesize();
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return new Broadcast(std::move(r).TakeValue());
  }();
  return *b;
}

/// Indexes the shared broadcast once (FDE run is the expensive step).
const VideoDescription& SharedDescription() {
  static const VideoDescription* desc = [] {
    auto indexer = TennisVideoIndexer::Create().TakeValue();
    auto d = indexer->Index(*SharedBroadcast().video, 7, "final 2001");
    EXPECT_TRUE(d.ok()) << d.status().ToString();
    return new VideoDescription(std::move(d).TakeValue());
  }();
  return *desc;
}

// ---------- VideoDescription ----------

TEST(VideoDescriptionTest, LayersAndLookup) {
  VideoDescription desc(1, "test", 25.0, 1000);
  grammar::Annotation shot("segment", FrameInterval{0, 99});
  shot.Set("category", std::string("tennis"));
  desc.Add(CobraLayer::kFeature, shot);
  grammar::Annotation event("net_play", FrameInterval{40, 60});
  desc.Add(CobraLayer::kEvent, event);

  EXPECT_EQ(desc.Layer(CobraLayer::kFeature).size(), 1u);
  EXPECT_EQ(desc.Named(CobraLayer::kEvent, "net_play").size(), 1u);
  EXPECT_TRUE(desc.Named(CobraLayer::kEvent, "rally").empty());
  EXPECT_EQ(desc.In(CobraLayer::kEvent, FrameInterval{50, 55}).size(), 1u);
  EXPECT_TRUE(desc.In(CobraLayer::kEvent, FrameInterval{70, 80}).empty());
  EXPECT_EQ(desc.TotalEntities(), 2);
  EXPECT_DOUBLE_EQ(desc.FrameToSeconds(50), 2.0);
}

TEST(VideoDescriptionTest, EventsRelatedAllen) {
  VideoDescription desc(1, "t", 25.0, 1000);
  grammar::Annotation serve("serve", FrameInterval{0, 10});
  grammar::Annotation rally("rally", FrameInterval{11, 99});
  grammar::Annotation net("net_play", FrameInterval{40, 60});
  desc.Add(CobraLayer::kEvent, serve);
  desc.Add(CobraLayer::kEvent, rally);
  desc.Add(CobraLayer::kEvent, net);

  auto during = desc.EventsRelated(AllenRelation::kDuring, FrameInterval{11, 99});
  ASSERT_EQ(during.size(), 1u);
  EXPECT_EQ(during[0].symbol, "net_play");
  auto meets = desc.EventsRelated(AllenRelation::kMeets, FrameInterval{11, 99});
  ASSERT_EQ(meets.size(), 1u);
  EXPECT_EQ(meets[0].symbol, "serve");
}

TEST(VideoDescriptionTest, LayerNames) {
  EXPECT_STREQ(CobraLayerToString(CobraLayer::kRawData), "raw-data");
  EXPECT_STREQ(CobraLayerToString(CobraLayer::kEvent), "event");
}

// ---------- Event grammar ----------

TEST(EventGrammarTest, ParsesDefaultRules) {
  auto g = EventGrammar::Parse(TennisEventRulesText());
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g->rules().size(), 3u);
  EXPECT_EQ(g->rules()[0].name, "serve");
  EXPECT_TRUE(g->rules()[0].at_start);
  EXPECT_EQ(g->rules()[1].conditions[0].channel, "net_distance");
}

TEST(EventGrammarTest, SyntaxErrors) {
  EXPECT_FALSE(EventGrammar::Parse("event x : a < 1 for 5").ok());  // no ';'
  EXPECT_FALSE(EventGrammar::Parse("event x : a ? 1 for 5 ;").ok());
  EXPECT_FALSE(EventGrammar::Parse("event x : a < b for 5 ;").ok());
  EXPECT_FALSE(EventGrammar::Parse("event x : a < 1 ;").ok());  // no 'for'
  EXPECT_FALSE(EventGrammar::Parse("event x : a < 1 for 0 ;").ok());
  EXPECT_FALSE(EventGrammar::Parse("event x : for 5 ;").ok());
  EXPECT_FALSE(EventGrammar::Parse("event x : a < 1 for 5 junk ;").ok());
  EXPECT_TRUE(EventGrammar::Parse("# only comments\n").ok());
}

TEST(EventGrammarTest, ConjunctionAndRuns) {
  auto g = EventGrammar::Parse(
               "event mid_move : zone < 0.5 and speed > 1.0 for 3 ;")
               .TakeValue();
  Trajectory trajectory(FrameInterval{100, 109});
  ASSERT_TRUE(trajectory
                  .AddChannel("zone", {0.9, 0.4, 0.4, 0.4, 0.4, 0.9, 0.4, 0.4,
                                       0.4, 0.9})
                  .ok());
  ASSERT_TRUE(trajectory
                  .AddChannel("speed", {2, 2, 2, 2, 0.5, 2, 2, 2, 2, 2})
                  .ok());
  auto events = g.Infer(trajectory, 0).TakeValue();
  // zone holds on [1..4] and [6..8]; speed breaks frame 4 -> runs [1..3]
  // (len 3, emitted) and [6..8] (len 3, emitted).
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].range, (FrameInterval{101, 103}));
  EXPECT_EQ(events[1].range, (FrameInterval{106, 108}));
  EXPECT_EQ(events[0].IntOr("player", -1), 0);
}

TEST(EventGrammarTest, AtStartAnchoring) {
  auto g = EventGrammar::Parse("event s : speed < 1.0 for 3 at_start ;")
               .TakeValue();
  Trajectory trajectory(FrameInterval{0, 9});
  ASSERT_TRUE(trajectory
                  .AddChannel("speed", {0.1, 0.1, 0.1, 0.1, 5, 0.1, 0.1, 0.1,
                                        0.1, 0.1})
                  .ok());
  auto events = g.Infer(trajectory, 1).TakeValue();
  ASSERT_EQ(events.size(), 1u) << "only the run at frame 0 counts";
  EXPECT_EQ(events[0].range, (FrameInterval{0, 3}));
}

TEST(EventGrammarTest, MissingChannelFails) {
  auto g = EventGrammar::Parse("event x : ghost < 1 for 2 ;").TakeValue();
  Trajectory trajectory(FrameInterval{0, 4});
  ASSERT_TRUE(trajectory.AddChannel("speed", {1, 1, 1, 1, 1}).ok());
  EXPECT_FALSE(g.Infer(trajectory, 0).ok());
}

TEST(TrajectoryTest, ChannelValidation) {
  Trajectory trajectory(FrameInterval{0, 4});
  EXPECT_FALSE(trajectory.AddChannel("short", {1, 2}).ok());
  ASSERT_TRUE(trajectory.AddChannel("ok", {1, 2, 3, 4, 5}).ok());
  EXPECT_EQ(trajectory.AddChannel("ok", {1, 2, 3, 4, 5}).code(),
            StatusCode::kAlreadyExists);
  EXPECT_TRUE(trajectory.HasChannel("ok"));
  EXPECT_EQ(trajectory.ChannelNames().size(), 1u);
}

// ---------- Tennis FDE end-to-end ----------

TEST(TennisFdeTest, GrammarMatchesFigureOne) {
  auto g = grammar::FeatureGrammar::Parse(TennisGrammarText()).TakeValue();
  EXPECT_EQ(g.start_symbol(), "video");
  EXPECT_EQ(g.DependenciesOf("segment"), std::vector<std::string>{"video"});
  EXPECT_EQ(g.DependenciesOf("player"), std::vector<std::string>{"tennis"});
  EXPECT_EQ(g.DependenciesOf("net_play"), std::vector<std::string>{"features"});
  std::string dot = g.ToDot();
  EXPECT_NE(dot.find("\"tennis\" -> \"player\""), std::string::npos);
}

TEST(TennisFdeTest, IndexesBroadcastIntoLayers) {
  const VideoDescription& desc = SharedDescription();
  const Broadcast& b = SharedBroadcast();

  EXPECT_EQ(desc.video_id(), 7);
  EXPECT_EQ(desc.num_frames(), b.video->num_frames());
  EXPECT_EQ(desc.Layer(CobraLayer::kRawData).size(), 1u);

  // Feature layer: about as many shots as the truth (cuts are detectable).
  size_t truth_shots = b.truth.shots.size();
  size_t detected_shots = desc.Layer(CobraLayer::kFeature).size();
  EXPECT_NEAR(static_cast<double>(detected_shots),
              static_cast<double>(truth_shots), 2.0);

  // Object layer: two players per court shot (player + features entries).
  int court_shots = 0;
  for (const auto& s : b.truth.shots) {
    if (s.category == ShotCategory::kTennis) ++court_shots;
  }
  EXPECT_EQ(desc.Named(CobraLayer::kObject, "player").size(),
            static_cast<size_t>(2 * court_shots));
  EXPECT_EQ(desc.Named(CobraLayer::kObject, "features").size(),
            static_cast<size_t>(2 * court_shots));

  // Event layer: serves, rallies, net plays present.
  EXPECT_EQ(desc.Named(CobraLayer::kEvent, "serve").size(),
            static_cast<size_t>(court_shots));
  EXPECT_EQ(desc.Named(CobraLayer::kEvent, "rally").size(),
            static_cast<size_t>(court_shots));
  EXPECT_FALSE(desc.Named(CobraLayer::kEvent, "net_play").empty());
}

TEST(TennisFdeTest, DetectedEventsMatchTruth) {
  const VideoDescription& desc = SharedDescription();
  const Broadcast& b = SharedBroadcast();

  std::vector<detectors::NamedInterval> truth, detected;
  for (const auto& e : b.truth.events) {
    truth.push_back({e.name, e.player_id, e.range});
  }
  for (const auto& a : desc.Layer(CobraLayer::kEvent)) {
    detected.push_back(
        {a.symbol, static_cast<int>(a.IntOr("player", -1)), a.range});
  }
  PrecisionRecall pr = detectors::MatchEvents(truth, detected, 0.3);
  EXPECT_GE(pr.Recall(), 0.6) << pr.ToString();
  EXPECT_GE(pr.Precision(), 0.6) << pr.ToString();
}

TEST(TennisFdeTest, RunReportCoversAllDetectors) {
  auto indexer = TennisVideoIndexer::Create().TakeValue();
  auto desc = indexer->Index(*SharedBroadcast().video, 1, "t");
  ASSERT_TRUE(desc.ok());
  ASSERT_TRUE(indexer->last_report().has_value());
  EXPECT_EQ(indexer->last_report()->detectors.size(), 10u);  // Figure 1 symbols
  EXPECT_GT(indexer->last_report()->total_millis, 0.0);
  EXPECT_FALSE(indexer->tracked_shots().empty());
}

TEST(TennisFdeTest, CustomEventRules) {
  // Retarget the event layer without recompiling: a 'midcourt' rule.
  TennisIndexerConfig config;
  config.event_rules =
      "event serve : speed < 1.6 for 5 at_start ;\n"
      "event net_play : net_distance < 0.17 for 8 ;\n"
      "event baseline_play : net_distance > 0.30 for 25 ;\n";
  auto indexer = TennisVideoIndexer::Create(config);
  ASSERT_TRUE(indexer.ok());
  auto bad = TennisIndexerConfig{};
  bad.event_rules = "event broken ;";
  EXPECT_FALSE(TennisVideoIndexer::Create(bad).ok());
}

TEST(TennisFdeTest, HmmPathProducesEvents) {
  // Train an HMM on a different broadcast, switch the indexer to it.
  auto train_bc = TennisBroadcastSynthesizer(IndexConfig(505)).Synthesize()
                      .TakeValue();
  auto indexer = TennisVideoIndexer::Create().TakeValue();
  ASSERT_TRUE(indexer->Index(*train_bc.video, 1, "train").ok());

  std::vector<std::vector<int>> states, symbols;
  for (const auto& ts : indexer->tracked_shots()) {
    for (size_t i = 0; i < ts.tracking.tracks.size(); ++i) {
      states.push_back(detectors::BuildTruthStateSequence(
          train_bc.truth, ts.tracking.tracks[i].player_id, ts.shot));
      symbols.push_back(detectors::EncodeTrackSymbols(
          ts.tracking.tracks[i], ts.tracking.court, ts.shot));
    }
  }
  detectors::HmmEventRecognizer recognizer;
  ASSERT_TRUE(recognizer.Train(states, symbols).ok());
  ASSERT_TRUE(indexer->UseHmmRecognizer(std::move(recognizer)).ok());

  auto desc = indexer->Index(*SharedBroadcast().video, 2, "eval");
  ASSERT_TRUE(desc.ok()) << desc.status().ToString();
  EXPECT_FALSE(desc->Named(CobraLayer::kEvent, "net_play").empty());
}

TEST(TennisFdeTest, UntrainedHmmRejected) {
  auto indexer = TennisVideoIndexer::Create().TakeValue();
  EXPECT_EQ(indexer->UseHmmRecognizer(detectors::HmmEventRecognizer()).code(),
            StatusCode::kFailedPrecondition);
}

TEST(BuildTrajectoryTest, ChannelsAndGapFill) {
  detectors::CourtModel court;
  court.court_bbox = RectI{0, 20, 100, 100};
  court.net_y = 70;
  detectors::PlayerTrack track;
  track.player_id = 0;
  detectors::TrackPoint p1;
  p1.frame = 12;
  p1.center = PointD{50, 120};
  detectors::TrackPoint p2;
  p2.frame = 14;
  p2.center = PointD{53, 116};
  track.points = {p1, p2};

  auto trajectory = BuildTrajectory(track, court, FrameInterval{10, 15});
  ASSERT_TRUE(trajectory.ok());
  EXPECT_EQ(trajectory->Length(), 6);
  const auto& net = trajectory->Channel("net_distance");
  EXPECT_DOUBLE_EQ(net[2], 0.5);   // |120-70|/100
  EXPECT_DOUBLE_EQ(net[0], 0.5);   // leading gap copies first observation
  EXPECT_DOUBLE_EQ(net[5], 0.46);  // trailing gap copies last
  EXPECT_GT(trajectory->Channel("speed")[4], 0.0);
}

// ---------- Meta index ----------

TEST(MetaIndexTest, ProjectsDescription) {
  auto meta = MetaIndex::Create().TakeValue();
  ASSERT_TRUE(meta.AddVideo(SharedDescription()).ok());
  EXPECT_EQ(meta.num_videos(), 1);
  EXPECT_GT(meta.shots().num_rows(), 0);
  EXPECT_GT(meta.objects().num_rows(), 0);
  EXPECT_GT(meta.events().num_rows(), 0);

  auto scenes = meta.FindScenes("net_play", 7).TakeValue();
  EXPECT_FALSE(scenes.empty());
  for (const auto& scene : scenes) {
    EXPECT_EQ(scene.video_id, 7);
    EXPECT_EQ(scene.event, "net_play");
    EXPECT_FALSE(scene.range.Empty());
  }

  auto tennis_shots = meta.FindShots("tennis", 7).TakeValue();
  EXPECT_EQ(tennis_shots.size(), 4u);  // num_points
}

TEST(MetaIndexTest, PlayerFilter) {
  auto meta = MetaIndex::Create().TakeValue();
  ASSERT_TRUE(meta.AddVideo(SharedDescription()).ok());
  auto p0 = meta.FindScenes("net_play", 7, 0).TakeValue();
  auto p1 = meta.FindScenes("net_play", 7, 1).TakeValue();
  auto all = meta.FindScenes("net_play", 7).TakeValue();
  EXPECT_EQ(p0.size() + p1.size(), all.size());
}

TEST(MetaIndexTest, EventRowsFollowRowOrderPerVideo) {
  auto meta = MetaIndex::Create().TakeValue();
  VideoDescription again(7, "second pass", 25.0, 1000);
  again.Add(CobraLayer::kEvent,
            grammar::Annotation("net_play", {10, 40}).Set("player", int64_t{1}));
  again.Add(CobraLayer::kEvent, grammar::Annotation("rally", {50, 90}));
  VideoDescription empty(8, "no events", 25.0, 1000);
  ASSERT_TRUE(meta.AddVideo(SharedDescription()).ok());  // video 7
  ASSERT_TRUE(meta.AddVideo(empty).ok());
  ASSERT_TRUE(meta.AddVideo(again).ok());  // video 7 again, not contiguous
  const auto& vids = meta.events().IntColumn(0);
  for (int64_t video : {int64_t{7}, int64_t{8}, int64_t{999}}) {
    std::vector<int64_t> scanned;
    for (size_t r = 0; r < vids.size(); ++r) {
      if (vids[r] == video) scanned.push_back(static_cast<int64_t>(r));
    }
    EXPECT_EQ(meta.EventRows(video), scanned) << "video " << video;
  }
  EXPECT_TRUE(meta.EventRows(8).empty());
  const auto& rows = meta.EventRows(7);
  ASSERT_GE(rows.size(), 3u);
  EXPECT_EQ(rows[rows.size() - 1], meta.events().num_rows() - 1);
  // Rebuilt from the tables alone, the index is the same.
  auto restored = MetaIndex::FromTables(meta.shots(), meta.objects(),
                                        meta.events(), meta.num_videos())
                      .TakeValue();
  for (int64_t video : {int64_t{7}, int64_t{8}, int64_t{999}}) {
    EXPECT_EQ(restored.EventRows(video), meta.EventRows(video))
        << "video " << video;
  }
}

TEST(MetaIndexTest, UnknownEventEmpty) {
  auto meta = MetaIndex::Create().TakeValue();
  ASSERT_TRUE(meta.AddVideo(SharedDescription()).ok());
  EXPECT_TRUE(meta.FindScenes("moonwalk").TakeValue().empty());
  EXPECT_TRUE(meta.FindScenes("net_play", 999).TakeValue().empty());
}

}  // namespace
}  // namespace cobra::core
