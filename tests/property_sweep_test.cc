#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "detectors/compressed_shot_boundary.h"
#include "detectors/shot_boundary.h"
#include "detectors/shot_classifier.h"
#include "media/block_codec.h"
#include "media/tennis_synthesizer.h"
#include "util/rng.h"
#include "util/stats.h"

namespace cobra {
namespace {

using media::Broadcast;
using media::TennisBroadcastSynthesizer;
using media::TennisSynthConfig;

TennisSynthConfig SweepConfig(uint64_t seed) {
  TennisSynthConfig config;
  config.width = 112;
  config.height = 88;
  config.num_points = 3;
  config.min_court_frames = 60;
  config.max_court_frames = 90;
  config.min_cutaway_frames = 10;
  config.max_cutaway_frames = 18;
  config.noise_sigma = 3.0;
  config.seed = seed;
  return config;
}

// ---------- Synthesizer invariants hold for every seed ----------

class SynthesizerSeedSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SynthesizerSeedSweep, StructuralInvariants) {
  auto broadcast =
      TennisBroadcastSynthesizer(SweepConfig(GetParam())).Synthesize();
  ASSERT_TRUE(broadcast.ok());
  const media::GroundTruth& truth = broadcast->truth;
  const int64_t frames = broadcast->video->num_frames();

  // Shots tile the timeline.
  ASSERT_FALSE(truth.shots.empty());
  EXPECT_EQ(truth.shots.front().range.begin, 0);
  EXPECT_EQ(truth.shots.back().range.end, frames - 1);
  for (size_t i = 1; i < truth.shots.size(); ++i) {
    EXPECT_EQ(truth.shots[i].range.begin, truth.shots[i - 1].range.end + 1);
  }
  // Player truth exactly on court shots; positions within frame bounds.
  for (const auto& shot : truth.shots) {
    for (int64_t f = shot.range.begin; f <= shot.range.end; ++f) {
      const auto& players = truth.players_by_frame[static_cast<size_t>(f)];
      if (shot.category == media::ShotCategory::kTennis) {
        ASSERT_EQ(players.size(), 2u);
        for (const auto& p : players) {
          EXPECT_GE(p.center.x, 0);
          EXPECT_LT(p.center.x, broadcast->video->width());
        }
      } else {
        EXPECT_TRUE(players.empty());
      }
    }
  }
  // Events lie inside court shots and have positive length.
  for (const auto& e : truth.events) {
    EXPECT_GT(e.range.Length(), 0);
    EXPECT_EQ(truth.CategoryAt(e.range.begin), media::ShotCategory::kTennis);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SynthesizerSeedSweep,
                         ::testing::Values(1, 17, 99, 1234, 77777, 31337));

// ---------- Shot boundary quality persists across seeds ----------

class BoundarySeedSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BoundarySeedSweep, AdaptiveF1AboveNinety) {
  auto broadcast = TennisBroadcastSynthesizer(SweepConfig(GetParam()))
                       .Synthesize()
                       .TakeValue();
  detectors::ShotBoundaryDetector detector;
  auto result = detector.Detect(*broadcast.video).TakeValue();
  PrecisionRecall pr =
      MatchWithTolerance(broadcast.truth.CutPositions(), result.boundaries, 2);
  EXPECT_GE(pr.F1(), 0.9) << "seed " << GetParam() << ": " << pr.ToString();
}

INSTANTIATE_TEST_SUITE_P(Seeds, BoundarySeedSweep,
                         ::testing::Values(5, 50, 500, 5000));

// ---------- Classifier accuracy persists across seeds ----------

class ClassifierSeedSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ClassifierSeedSweep, AccuracyAboveNinety) {
  auto broadcast = TennisBroadcastSynthesizer(SweepConfig(GetParam()))
                       .Synthesize()
                       .TakeValue();
  detectors::ShotClassifier classifier;
  int correct = 0, total = 0;
  for (const auto& shot : broadcast.truth.shots) {
    auto classified = classifier.Classify(*broadcast.video, shot.range);
    ASSERT_TRUE(classified.ok());
    ++total;
    if (classified->category == shot.category) ++correct;
  }
  EXPECT_GE(static_cast<double>(correct) / total, 0.9)
      << "seed " << GetParam() << ": " << correct << "/" << total;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClassifierSeedSweep,
                         ::testing::Values(6, 66, 666));

// ---------- Codec round trip across qualities ----------

class CodecQualitySweep : public ::testing::TestWithParam<int> {};

TEST_P(CodecQualitySweep, DecodesAndCompresses) {
  auto config = SweepConfig(8);
  config.num_points = 1;
  config.include_cutaways = false;
  auto broadcast =
      TennisBroadcastSynthesizer(config).Synthesize().TakeValue();
  media::CodecConfig codec_config;
  codec_config.quality = GetParam();
  auto encoded =
      media::BlockVideoEncoder::Encode(*broadcast.video, codec_config)
          .TakeValue();
  // Quality 100 is near-lossless (quantizer 1): on noisy content the RLE
  // barely wins, which is the expected rate/distortion endpoint.
  EXPECT_GT(encoded.CompressionRatio(), GetParam() >= 100 ? 1.0 : 1.5)
      << "quality " << GetParam();
  media::CodedVideoSource decoded(std::move(encoded));
  media::Frame original = broadcast.video->GetFrame(10).TakeValue();
  media::Frame reconstructed = decoded.GetFrame(10).TakeValue();
  double psnr = media::ComputePsnr(original, reconstructed).TakeValue();
  EXPECT_GT(psnr, 18.0) << "quality " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Qualities, CodecQualitySweep,
                         ::testing::Values(10, 30, 50, 75, 90, 100));

// ---------- Compressed-domain detection across GOP sizes ----------

class GopSweep : public ::testing::TestWithParam<int> {};

TEST_P(GopSweep, CompressedDetectionWorks) {
  auto broadcast =
      TennisBroadcastSynthesizer(SweepConfig(21)).Synthesize().TakeValue();
  media::CodecConfig config;
  config.gop_size = GetParam();
  auto encoded =
      media::BlockVideoEncoder::Encode(*broadcast.video, config).TakeValue();
  detectors::CompressedShotBoundaryDetector detector;
  auto cuts = detector.Detect(encoded);
  PrecisionRecall pr =
      MatchWithTolerance(broadcast.truth.CutPositions(), cuts, 2);
  EXPECT_GE(pr.F1(), 0.85) << "gop " << GetParam() << ": " << pr.ToString();
}

INSTANTIATE_TEST_SUITE_P(Gops, GopSweep, ::testing::Values(6, 12, 30));

// ---------- Serialization round trip + failure injection ----------

media::EncodedVideo EncodeSmall() {
  auto config = SweepConfig(31);
  config.num_points = 1;
  config.include_cutaways = false;
  auto broadcast = TennisBroadcastSynthesizer(config).Synthesize().TakeValue();
  return media::BlockVideoEncoder::Encode(*broadcast.video).TakeValue();
}

TEST(CodecSerializationTest, RoundTripPreservesStreamsAndStats) {
  media::EncodedVideo encoded = EncodeSmall();
  std::vector<uint8_t> bytes = encoded.Serialize();
  auto back = media::EncodedVideo::Deserialize(bytes);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->num_frames(), encoded.num_frames());
  EXPECT_EQ(back->width(), encoded.width());
  EXPECT_EQ(back->config().gop_size, encoded.config().gop_size);
  for (int64_t f = 0; f < encoded.num_frames(); ++f) {
    EXPECT_EQ(back->FrameBits(f), encoded.FrameBits(f)) << "frame " << f;
    EXPECT_EQ(back->Stats(f).intra_frame, encoded.Stats(f).intra_frame);
    EXPECT_NEAR(back->Stats(f).intra_block_ratio,
                encoded.Stats(f).intra_block_ratio, 1e-4);
  }
  // Decoded pixels identical through the round trip.
  media::CodedVideoSource a(encoded);
  media::CodedVideoSource b(std::move(back).TakeValue());
  media::Frame fa = a.GetFrame(5).TakeValue();
  media::Frame fb = b.GetFrame(5).TakeValue();
  EXPECT_TRUE(std::equal(fa.pixels().begin(), fa.pixels().end(),
                         fb.pixels().begin(),
                         [](const media::Rgb& x, const media::Rgb& y) {
                           return x == y;
                         }));
}

TEST(CodecSerializationTest, RejectsCorruptHeaders) {
  media::EncodedVideo encoded = EncodeSmall();
  std::vector<uint8_t> bytes = encoded.Serialize();
  // Bad magic.
  auto bad = bytes;
  bad[0] ^= 0xFF;
  EXPECT_TRUE(media::EncodedVideo::Deserialize(bad).status().IsParseError());
  // Truncations at every header boundary.
  for (size_t cut : std::vector<size_t>{3, 10, 24, bytes.size() - 5}) {
    std::vector<uint8_t> truncated(bytes.begin(),
                                   bytes.begin() + static_cast<long>(cut));
    EXPECT_TRUE(media::EncodedVideo::Deserialize(truncated).status().IsParseError())
        << "cut at " << cut;
  }
  // Trailing garbage.
  auto padded = bytes;
  padded.push_back(0);
  EXPECT_TRUE(media::EncodedVideo::Deserialize(padded).status().IsParseError());
}

TEST(CodecSerializationTest, CorruptPayloadFailsDecodeNotCrash) {
  media::EncodedVideo encoded = EncodeSmall();
  std::vector<uint8_t> bytes = encoded.Serialize();
  // Flip bytes in the middle of the first frame's payload (after the
  // 28-byte header + 4-byte length + frame type byte).
  for (size_t offset = 40; offset < 60 && offset < bytes.size(); ++offset) {
    bytes[offset] ^= 0xA5;
  }
  auto corrupt = media::EncodedVideo::Deserialize(bytes);
  if (!corrupt.ok()) return;  // framing caught it: also acceptable
  media::CodedVideoSource decoder(std::move(corrupt).TakeValue());
  // Decoding must either fail cleanly or produce a frame; never crash.
  auto frame = decoder.GetFrame(0);
  if (!frame.ok()) {
    EXPECT_TRUE(frame.status().IsParseError()) << frame.status().ToString();
  }
}

// ---------- hostile streams: ParseError, never out-of-plane reads ----------

/// Serialized coded video built by hand from raw frame payloads, in the
/// layout EncodedVideo::Serialize writes: a 28-byte header (magic, width,
/// height, fps * 1000, gop, quality, frame count), then per frame its
/// length, payload and 9 stat bytes.
std::vector<uint8_t> HandBuiltStream(
    int width, int height, const std::vector<std::vector<uint8_t>>& frames) {
  std::vector<uint8_t> out;
  const auto put32 = [&out](uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      out.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  };
  for (uint32_t v : {0xC0B7A01u, static_cast<uint32_t>(width),
                     static_cast<uint32_t>(height), 25000u, 12u, 75u,
                     static_cast<uint32_t>(frames.size())}) {
    put32(v);
  }
  for (const std::vector<uint8_t>& payload : frames) {
    put32(static_cast<uint32_t>(payload.size()));
    out.insert(out.end(), payload.begin(), payload.end());
    out.push_back(payload[0] == 'I' ? 1 : 0);
    put32(0);
    put32(0);
  }
  return out;
}

media::CodedVideoSource HandBuiltSource(
    int width, int height, const std::vector<std::vector<uint8_t>>& frames) {
  auto encoded =
      media::EncodedVideo::Deserialize(HandBuiltStream(width, height, frames));
  EXPECT_TRUE(encoded.ok()) << encoded.status().ToString();
  return media::CodedVideoSource(std::move(encoded).TakeValue());
}

/// Every decode path of `source` must end in ParseError for `frame`.
void ExpectEveryPathFails(const media::CodedVideoSource& source, int64_t frame,
                          const std::string& what) {
  auto got = source.GetFrame(frame);
  EXPECT_TRUE(got.status().IsParseError()) << what << ": "
                                           << got.status().ToString();
  auto gop = source.DecodeGop(source.encoded().GopOfFrame(frame));
  EXPECT_TRUE(gop.status().IsParseError()) << what << ": "
                                           << gop.status().ToString();
  auto all = source.DecodeAll();
  EXPECT_TRUE(all.status().IsParseError()) << what << ": "
                                           << all.status().ToString();
}

// Macroblock modes of the bitstream.
constexpr uint8_t kSkipMb = 0, kInterMb = 1, kIntraMb = 2;

/// A 16x16 I frame: one intra macroblock with no coded blocks (mid-grey).
std::vector<uint8_t> GreyIntraFrame() { return {'I', kIntraMb, 0}; }

TEST(HostileStreamTest, MotionVectorOutsideTheReferenceFails) {
  // One 16x16 macroblock: any nonzero vector leaves the reference.
  for (auto [mvx, mvy] : std::vector<std::pair<int, int>>{
           {1, 0}, {0, 1}, {-1, 0}, {0, -1}, {127, 127}, {-128, -128},
           {-16, 0}, {8, -8}}) {
    const std::vector<uint8_t> inter = {
        'P', kInterMb, static_cast<uint8_t>(static_cast<int8_t>(mvx)),
        static_cast<uint8_t>(static_cast<int8_t>(mvy)), 0};
    const media::CodedVideoSource source =
        HandBuiltSource(16, 16, {GreyIntraFrame(), inter});
    ExpectEveryPathFails(
        source, 1, "mv " + std::to_string(mvx) + "," + std::to_string(mvy));
  }
  // Two macroblocks side by side: the left one may predict from the right
  // one (mv +16), the right one may not look one sample further.
  const std::vector<uint8_t> grey_pair = {'I', kIntraMb, 0, kIntraMb, 0};
  const std::vector<uint8_t> inside = {'P', kInterMb, 16, 0, 0,
                                       kInterMb, 0xF0, 0, 0};  // -16
  const std::vector<uint8_t> outside = {'P', kInterMb, 16, 0, 0,
                                        kInterMb, 1, 0, 0};
  const media::CodedVideoSource ok =
      HandBuiltSource(32, 16, {grey_pair, inside});
  auto frame = ok.GetFrame(1);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->At(31, 15), (media::Rgb{128, 128, 128}));
  ExpectEveryPathFails(HandBuiltSource(32, 16, {grey_pair, outside}), 1,
                       "right macroblock, mv 1,0");
}

TEST(HostileStreamTest, PFrameWithoutReferenceFails) {
  for (const std::vector<uint8_t>& first :
       std::vector<std::vector<uint8_t>>{{'P', kSkipMb},
                                         {'P', kInterMb, 0, 0, 0},
                                         {'P', kIntraMb, 0}}) {
    ExpectEveryPathFails(HandBuiltSource(16, 16, {first}), 0,
                         "first frame mode " + std::to_string(first[1]));
  }
  // A later I frame opens its own GOP and decodes; going back to the
  // reference-less first frame must still fail rather than predict from
  // whatever this thread decoded last.
  const media::CodedVideoSource source =
      HandBuiltSource(16, 16, {{'P', kSkipMb}, GreyIntraFrame()});
  ASSERT_TRUE(source.GetFrame(1).ok());
  EXPECT_TRUE(source.GetFrame(0).status().IsParseError());
  ASSERT_TRUE(source.DecodeGop(1).ok());
}

TEST(HostileStreamTest, ByteFlipsInPFramesFailCleanly) {
  media::EncodedVideo encoded = EncodeSmall();
  const std::vector<uint8_t> bytes = encoded.Serialize();
  // Payload offset of every frame in the serialized stream.
  std::vector<size_t> payload_at;
  size_t pos = 28;
  for (int64_t f = 0; f < encoded.num_frames(); ++f) {
    payload_at.push_back(pos + 4);
    pos += 4 + encoded.FrameBits(f).size() + 9;
  }
  ASSERT_EQ(pos, bytes.size());
  Rng rng(2024);
  int failed = 0;
  for (int trial = 0; trial < 300; ++trial) {
    int64_t f = 0;
    while (encoded.FrameBits(f)[0] != 'P') {
      f = rng.NextInt(1, encoded.num_frames() - 1);
    }
    std::vector<uint8_t> corrupt = bytes;
    const size_t size = encoded.FrameBits(f).size();
    const int flips = static_cast<int>(rng.NextInt(1, 4));
    for (int i = 0; i < flips; ++i) {
      // Keep the frame marker: a P frame's own macroblock data is the
      // target (a flipped marker only re-partitions the GOPs).
      const size_t at = payload_at[static_cast<size_t>(f)] +
                        static_cast<size_t>(rng.NextInt(
                            1, static_cast<int64_t>(size) - 1));
      corrupt[at] ^= static_cast<uint8_t>(rng.NextInt(1, 255));
    }
    auto video = media::EncodedVideo::Deserialize(corrupt);
    ASSERT_TRUE(video.ok()) << video.status().ToString();
    const media::CodedVideoSource source(std::move(video).TakeValue());
    const int64_t first = source.encoded().Gops()[static_cast<size_t>(
        source.encoded().GopOfFrame(f))].first_frame;
    for (int64_t g = first; g <= f; ++g) {
      auto frame = source.GetFrame(g);
      if (!frame.ok()) {
        EXPECT_TRUE(frame.status().IsParseError()) << frame.status().ToString();
        EXPECT_EQ(g, f) << "only the corrupted frame may fail";
        ++failed;
        break;
      }
    }
    auto gop = source.DecodeGop(source.encoded().GopOfFrame(f));
    EXPECT_TRUE(gop.ok() || gop.status().IsParseError())
        << gop.status().ToString();
  }
  // Some flips must be caught, or the sweep exercised no error path.
  EXPECT_GT(failed, 0);
}

}  // namespace
}  // namespace cobra
