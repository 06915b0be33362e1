/// \file decode_pipeline_test.cc
/// The GOP-parallel decode subsystem: GOP index correctness, bit-identity
/// of sequential / GOP-parallel / prefetched decode across gop sizes
/// (including all-intra and a final partial GOP), thread-safety of
/// CodedVideoSource::GetFrame under a hammering pool (the TSan regression
/// for the old shared-DecoderState race), DCT dispatch-tier bit-identity,
/// decoded frames pinned by digest at every tier, and FDE-over-coded-source
/// equivalence with FDE-over-decoded-frames.

#include <gtest/gtest.h>

#include <cstring>
#include <iterator>
#include <map>
#include <vector>

#include "core/tennis_fde.h"
#include "media/block_codec.h"
#include "media/dct.h"
#include "media/prefetch.h"
#include "media/tennis_synthesizer.h"
#include "media/video.h"
#include "util/simd.h"
#include "util/thread_pool.h"
#include "vision/kernels.h"

namespace cobra::media {
namespace {

TennisSynthConfig PipelineVideoConfig() {
  TennisSynthConfig config;
  config.width = 96;
  config.height = 80;
  config.num_points = 2;
  config.min_court_frames = 50;
  config.max_court_frames = 70;
  config.min_cutaway_frames = 10;
  config.max_cutaway_frames = 16;
  config.noise_sigma = 2.0;
  config.dissolve_prob = 1.0;  // every boundary dissolves: worst case for
  config.seed = 3;             // P-frame chains across shot changes
  return config;
}

const MemoryVideo& PipelineVideo() {
  static const MemoryVideo* video = [] {
    auto r = TennisBroadcastSynthesizer(PipelineVideoConfig()).Synthesize();
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    Broadcast broadcast = r.TakeValue();
    return new MemoryVideo(std::move(*broadcast.video));
  }();
  return *video;
}

const EncodedVideo& EncodedWithGop(int gop_size) {
  static std::map<int, const EncodedVideo*>* cache =
      new std::map<int, const EncodedVideo*>();
  auto it = cache->find(gop_size);
  if (it == cache->end()) {
    CodecConfig config;
    config.gop_size = gop_size;
    auto encoded = BlockVideoEncoder::Encode(PipelineVideo(), config);
    EXPECT_TRUE(encoded.ok()) << encoded.status().ToString();
    it = cache->emplace(gop_size, new EncodedVideo(encoded.TakeValue())).first;
  }
  return *it->second;
}

bool FramesIdentical(const Frame& a, const Frame& b) {
  return a.SameSizeAs(b) &&
         std::memcmp(a.pixels().data(), b.pixels().data(),
                     a.pixels().size() * sizeof(Rgb)) == 0;
}

/// Sequential ground truth: one fresh source, frames decoded in order on
/// one thread (the seed decoder's behavior).
std::vector<Frame> SequentialDecode(const EncodedVideo& encoded) {
  CodedVideoSource source(encoded);
  std::vector<Frame> out;
  for (int64_t f = 0; f < source.num_frames(); ++f) {
    auto frame = source.GetFrame(f);
    EXPECT_TRUE(frame.ok()) << frame.status().ToString();
    out.push_back(frame.TakeValue());
  }
  return out;
}

// ---------- GOP index ----------

TEST(GopIndexTest, PartitionsFramesAtIntraMarkers) {
  for (int gop_size : {1, 12, 50}) {
    const EncodedVideo& encoded = EncodedWithGop(gop_size);
    const auto& gops = encoded.Gops();
    ASSERT_FALSE(gops.empty());
    const int64_t expected_gops =
        (encoded.num_frames() + gop_size - 1) / gop_size;
    EXPECT_EQ(encoded.NumGops(), expected_gops) << "gop_size " << gop_size;

    int64_t next_frame = 0, byte_offset = 0;
    for (const GopIndexEntry& g : gops) {
      EXPECT_EQ(g.first_frame, next_frame);
      EXPECT_EQ(g.byte_offset, byte_offset);
      EXPECT_GT(g.num_frames, 0);
      EXPECT_LE(g.num_frames, gop_size);
      EXPECT_EQ(encoded.FrameBits(g.first_frame)[0], 'I');
      for (int64_t f = g.first_frame + 1; f < g.first_frame + g.num_frames;
           ++f) {
        EXPECT_EQ(encoded.FrameBits(f)[0], 'P');
        EXPECT_EQ(encoded.GopOfFrame(f), encoded.GopOfFrame(g.first_frame));
      }
      for (int64_t f = g.first_frame; f < g.first_frame + g.num_frames; ++f) {
        byte_offset += static_cast<int64_t>(encoded.FrameBits(f).size());
      }
      next_frame = g.first_frame + g.num_frames;
    }
    EXPECT_EQ(next_frame, encoded.num_frames());
  }
}

TEST(GopIndexTest, SurvivesSerializationRoundTrip) {
  const EncodedVideo& encoded = EncodedWithGop(12);
  auto restored = EncodedVideo::Deserialize(encoded.Serialize());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ASSERT_EQ(restored->NumGops(), encoded.NumGops());
  for (int64_t g = 0; g < encoded.NumGops(); ++g) {
    EXPECT_EQ(restored->Gops()[g].first_frame, encoded.Gops()[g].first_frame);
    EXPECT_EQ(restored->Gops()[g].num_frames, encoded.Gops()[g].num_frames);
    EXPECT_EQ(restored->Gops()[g].byte_offset, encoded.Gops()[g].byte_offset);
  }
}

// ---------- bit-identity of the parallel paths ----------

TEST(DecodePipelineTest, GopDecodeMatchesSequential) {
  for (int gop_size : {1, 12, 50}) {
    const EncodedVideo& encoded = EncodedWithGop(gop_size);
    // The synthesized broadcast length is not a multiple of 12 or 50, so
    // the last GOP is partial; assert that so the fixture can't rot.
    if (gop_size > 1) {
      EXPECT_NE(encoded.num_frames() % gop_size, 0)
          << "fixture no longer covers the partial-GOP case";
    }
    const std::vector<Frame> reference = SequentialDecode(encoded);
    CodedVideoSource source(encoded);
    for (int64_t g = 0; g < encoded.NumGops(); ++g) {
      auto frames = source.DecodeGop(g);
      ASSERT_TRUE(frames.ok()) << frames.status().ToString();
      const GopIndexEntry& entry = encoded.Gops()[static_cast<size_t>(g)];
      ASSERT_EQ(static_cast<int64_t>(frames->size()), entry.num_frames);
      for (int64_t i = 0; i < entry.num_frames; ++i) {
        EXPECT_TRUE(FramesIdentical(
            (*frames)[static_cast<size_t>(i)],
            reference[static_cast<size_t>(entry.first_frame + i)]))
            << "gop_size " << gop_size << " gop " << g << " frame " << i;
      }
    }
  }
}

TEST(DecodePipelineTest, DecodeAllParallelMatchesSequential) {
  util::ThreadPool pool(4);
  for (int gop_size : {1, 12, 50}) {
    const EncodedVideo& encoded = EncodedWithGop(gop_size);
    const std::vector<Frame> reference = SequentialDecode(encoded);
    CodedVideoSource source(encoded);
    for (util::ThreadPool* p : {static_cast<util::ThreadPool*>(nullptr),
                                &pool}) {
      auto decoded = source.DecodeAll(p);
      ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
      ASSERT_EQ(decoded->num_frames(), encoded.num_frames());
      for (int64_t f = 0; f < decoded->num_frames(); ++f) {
        EXPECT_TRUE(FramesIdentical(decoded->GetFrame(f).TakeValue(),
                                    reference[static_cast<size_t>(f)]))
            << "gop_size " << gop_size << " frame " << f
            << (p ? " (parallel)" : " (sequential)");
      }
    }
  }
}

TEST(DecodePipelineTest, PrefetchedSequentialScanMatchesSequential) {
  util::ThreadPool pool(3);
  for (int gop_size : {1, 12, 50}) {
    const EncodedVideo& encoded = EncodedWithGop(gop_size);
    const std::vector<Frame> reference = SequentialDecode(encoded);
    CodedVideoSource source(encoded);
    PrefetchConfig config;
    config.prefetch_frames = 48;
    PrefetchingVideoSource prefetched(source, config, &pool);
    for (int64_t f = 0; f < prefetched.num_frames(); ++f) {
      auto frame = prefetched.GetFrame(f);
      ASSERT_TRUE(frame.ok()) << frame.status().ToString();
      EXPECT_TRUE(FramesIdentical(*frame, reference[static_cast<size_t>(f)]))
          << "gop_size " << gop_size << " frame " << f;
    }
    const PrefetchStats stats = prefetched.stats();
    EXPECT_GT(stats.scheduled_gops, 0) << "gop_size " << gop_size;
    EXPECT_GT(stats.buffer_hits, 0) << "gop_size " << gop_size;
  }
}

TEST(DecodePipelineTest, PrefetchedStridedAndBackwardAccessMatches) {
  util::ThreadPool pool(3);
  const EncodedVideo& encoded = EncodedWithGop(12);
  const std::vector<Frame> reference = SequentialDecode(encoded);
  CodedVideoSource source(encoded);
  PrefetchingVideoSource prefetched(source, PrefetchConfig{}, &pool);
  const int64_t n = prefetched.num_frames();
  // Detector-style sampling (every 7th), then backward seeks.
  for (int64_t f = 0; f < n; f += 7) {
    auto frame = prefetched.GetFrame(f);
    ASSERT_TRUE(frame.ok());
    EXPECT_TRUE(FramesIdentical(*frame, reference[static_cast<size_t>(f)]));
  }
  for (int64_t f = n - 1; f >= 0; f -= 31) {
    auto frame = prefetched.GetFrame(f);
    ASSERT_TRUE(frame.ok());
    EXPECT_TRUE(FramesIdentical(*frame, reference[static_cast<size_t>(f)]));
  }
  auto oob = prefetched.GetFrame(n);
  EXPECT_FALSE(oob.ok());
}

/// gop_size = 1: every frame is an I-frame, the GOP index degenerates to
/// one entry per frame, and the pipeline must still hold. CI runs this as
/// the all-intra smoke (`ctest -R AllIntra`).
TEST(DecodePipelineTest, AllIntraGopSizeOneSmoke) {
  util::ThreadPool pool(4);
  const EncodedVideo& encoded = EncodedWithGop(1);
  ASSERT_EQ(encoded.NumGops(), encoded.num_frames());
  const std::vector<Frame> reference = SequentialDecode(encoded);
  CodedVideoSource source(encoded);
  auto decoded = source.DecodeAll(&pool);
  ASSERT_TRUE(decoded.ok());
  PrefetchingVideoSource prefetched(source, PrefetchConfig{}, &pool);
  for (int64_t f = 0; f < encoded.num_frames(); ++f) {
    EXPECT_TRUE(FramesIdentical(decoded->GetFrame(f).TakeValue(),
                                reference[static_cast<size_t>(f)]));
    EXPECT_TRUE(FramesIdentical(prefetched.GetFrame(f).TakeValue(),
                                reference[static_cast<size_t>(f)]));
  }
}

// ---------- thread-safety (the TSan regression suite) ----------

/// The seed's CodedVideoSource kept one mutable DecoderState behind a const
/// GetFrame — two threads decoding through it raced on the reference
/// planes. This hammers GetFrame from a pool with deliberately clashing
/// access patterns; under COBRA_SANITIZE=thread, TSan fails the test on
/// any regression, and in any build the decoded bytes must stay correct.
TEST(DecodePipelineTest, ConcurrentGetFrameIsRaceFreeAndCorrect) {
  const EncodedVideo& encoded = EncodedWithGop(12);
  const std::vector<Frame> reference = SequentialDecode(encoded);
  CodedVideoSource source(encoded);
  const int64_t n = source.num_frames();
  util::ThreadPool pool(4);
  // 4 interleaved walks: two forward scans offset by half the video, one
  // strided scan, one backward scan — all through one shared source.
  pool.ParallelFor(0, 4 * n, 1, [&](int64_t i) {
    const int64_t walk = i % 4, step = i / 4;
    int64_t f = 0;
    switch (walk) {
      case 0: f = step; break;
      case 1: f = (step + n / 2) % n; break;
      case 2: f = (step * 13) % n; break;
      default: f = n - 1 - step; break;
    }
    auto frame = source.GetFrame(f);
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    EXPECT_TRUE(FramesIdentical(*frame, reference[static_cast<size_t>(f)]))
        << "frame " << f;
  });
}

TEST(DecodePipelineTest, ConcurrentPrefetchedReadersAreConsistent) {
  const EncodedVideo& encoded = EncodedWithGop(12);
  const std::vector<Frame> reference = SequentialDecode(encoded);
  CodedVideoSource source(encoded);
  util::ThreadPool decode_pool(2);
  PrefetchConfig config;
  config.prefetch_frames = 36;
  PrefetchingVideoSource prefetched(source, config, &decode_pool);
  const int64_t n = prefetched.num_frames();
  util::ThreadPool reader_pool(4);
  reader_pool.ParallelFor(0, 2 * n, 1, [&](int64_t i) {
    const int64_t f = i % n;
    auto frame = prefetched.GetFrame(f);
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    EXPECT_TRUE(FramesIdentical(*frame, reference[static_cast<size_t>(f)]))
        << "frame " << f;
  });
}

// ---------- DCT dispatch tiers ----------

TEST(DecodePipelineTest, DctTiersAreBitIdentical) {
  const EncodedVideo& encoded = EncodedWithGop(12);
  const util::simd::SimdLevel original = vision::kernels::ActiveLevel();
  vision::kernels::SetActiveLevel(util::simd::SimdLevel::kScalar);
  ASSERT_EQ(ActiveDctLevel(), util::simd::SimdLevel::kScalar);
  const std::vector<Frame> scalar_frames = SequentialDecode(encoded);
  for (auto level :
       {util::simd::SimdLevel::kSse41, util::simd::SimdLevel::kAvx2}) {
    if (DctOpsFor(level) == nullptr) continue;  // compiled out or no CPU
    vision::kernels::SetActiveLevel(level);
    ASSERT_EQ(ActiveDctLevel(), level);
    const std::vector<Frame> tier_frames = SequentialDecode(encoded);
    for (size_t f = 0; f < scalar_frames.size(); ++f) {
      ASSERT_TRUE(FramesIdentical(tier_frames[f], scalar_frames[f]))
          << util::simd::SimdLevelName(level) << " frame " << f;
    }
  }
  vision::kernels::SetActiveLevel(original);
}

// ---------- pinned decoded output ----------

/// 64-bit FNV-1a over the RGB bytes of every frame, in frame order.
uint64_t DigestFrames(const MemoryVideo& video) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (int64_t f = 0; f < video.num_frames(); ++f) {
    const Frame frame = video.GetFrame(f).TakeValue();
    const auto* bytes = reinterpret_cast<const uint8_t*>(frame.pixels().data());
    for (size_t i = 0; i < frame.pixels().size() * sizeof(Rgb); ++i) {
      hash = (hash ^ bytes[i]) * 0x100000001b3ull;
    }
  }
  return hash;
}

struct PinnedShape {
  int width, height;
  bool dissolves;
  int motion_search_range;
  uint64_t seed;
};

/// The archive's 128x96 shape, the pipeline fixture's 96x80 with a dissolve
/// at every boundary, and 100x70, whose planes are padded to 112x80.
constexpr PinnedShape kPinnedShapes[] = {
    {128, 96, false, 3, 9101}, {96, 80, true, 7, 3}, {100, 70, false, 7, 17}};

struct PinnedDecode {
  int shape;  ///< index into kPinnedShapes
  int gop_size;
  int quality;
  uint64_t digest;
};

/// Digests of the frames the decoder produced before its colour conversion,
/// IDCT and reconstruction were vectorized; every tier must still match.
constexpr PinnedDecode kPinnedDecodes[] = {
    {0,  1, 30, 0xa18e43ee3fea4f1cull},
    {0,  1, 75, 0x10f06470b1af1793ull},
    {0,  1, 95, 0x0b04a7d883cc32a8ull},
    {0, 12, 30, 0x3d686138bd6c8643ull},
    {0, 12, 75, 0xc82c8cd0bf57541full},
    {0, 12, 95, 0x60a3f2c4dd2c2500ull},
    {0, 50, 30, 0xf05314fa197d047cull},
    {0, 50, 75, 0x238d9071bb59db37ull},
    {0, 50, 95, 0x72c04d23f1fb4871ull},
    {1,  1, 30, 0xf896631b9afb1611ull},
    {1,  1, 75, 0x224a00c043890d0aull},
    {1,  1, 95, 0x0813417f17cab096ull},
    {1, 12, 30, 0x4c9e3c81bcc49439ull},
    {1, 12, 75, 0x200d36d0489381b8ull},
    {1, 12, 95, 0x18de3dea9a01562full},
    {1, 50, 30, 0xe79b769d4c866039ull},
    {1, 50, 75, 0xacf05b5b5c6d10a2ull},
    {1, 50, 95, 0x037be55244437a94ull},
    {2,  1, 30, 0x74c088df0929ed14ull},
    {2,  1, 75, 0x5162199279180209ull},
    {2,  1, 95, 0x74a33e98b97a6ec4ull},
    {2, 12, 30, 0xf6ddd8b081444aeeull},
    {2, 12, 75, 0x3bde8863c5f4bc48ull},
    {2, 12, 95, 0xfbd5932a898385b9ull},
    {2, 50, 30, 0xe7e7ae1479fe908eull},
    {2, 50, 75, 0x1669238b0f5b2256ull},
    {2, 50, 95, 0xf8f2dbb212482166ull},
};

MemoryVideo PinnedVideo(const PinnedShape& shape) {
  TennisSynthConfig config = PipelineVideoConfig();
  config.width = shape.width;
  config.height = shape.height;
  config.min_court_frames = 40;
  config.max_court_frames = 50;
  config.dissolve_prob = shape.dissolves ? 1.0 : 0.0;
  config.seed = shape.seed;
  auto broadcast = TennisBroadcastSynthesizer(config).Synthesize();
  EXPECT_TRUE(broadcast.ok()) << broadcast.status().ToString();
  return MemoryVideo(std::move(*broadcast->video));
}

TEST(DecodePipelineTest, DecodedFramesMatchPinnedDigestsAtEveryTier) {
  const util::simd::SimdLevel original = vision::kernels::ActiveLevel();
  for (int s = 0; s < static_cast<int>(std::size(kPinnedShapes)); ++s) {
    const PinnedShape& shape = kPinnedShapes[s];
    const MemoryVideo video = PinnedVideo(shape);
    for (int gop_size : {1, 12, 50}) {
      for (int quality : {30, 75, 95}) {
        CodecConfig config;
        config.gop_size = gop_size;
        config.quality = quality;
        config.motion_search_range = shape.motion_search_range;
        auto encoded = BlockVideoEncoder::Encode(video, config);
        ASSERT_TRUE(encoded.ok()) << encoded.status().ToString();
        const CodedVideoSource source(encoded.TakeValue());
        const PinnedDecode* pinned = nullptr;
        for (const PinnedDecode& p : kPinnedDecodes) {
          if (p.shape == s && p.gop_size == gop_size && p.quality == quality) {
            pinned = &p;
          }
        }
        for (auto level : {util::simd::SimdLevel::kScalar,
                           util::simd::SimdLevel::kSse41,
                           util::simd::SimdLevel::kAvx2}) {
          if (DctOpsFor(level) == nullptr) continue;  // compiled out or no CPU
          vision::kernels::SetActiveLevel(level);
          auto decoded = source.DecodeAll();
          ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
          const uint64_t digest = DigestFrames(*decoded);
          EXPECT_TRUE(pinned != nullptr && pinned->digest == digest)
              << util::simd::SimdLevelName(level) << " {" << s << ", "
              << gop_size << ", " << quality << ", 0x" << std::hex << digest
              << std::dec << "ull}, " << video.num_frames() << " frames";
        }
      }
    }
  }
  vision::kernels::SetActiveLevel(original);
}

// ---------- FDE over the decode pipeline ----------

TEST(DecodePipelineTest, FdeOverCodedSourceMatchesDecodedFrames) {
  auto encoded = BlockVideoEncoder::Encode(PipelineVideo(), CodecConfig{});
  ASSERT_TRUE(encoded.ok());
  CodedVideoSource coded(encoded.TakeValue());
  // Reference: the pipeline disabled (negative decode_threads), detectors
  // hit the raw decoder exactly as before this subsystem existed.
  std::map<std::string, std::vector<grammar::Annotation>> reference;
  for (int variant = 0; variant < 2; ++variant) {
    core::TennisIndexerConfig config;
    config.fde.num_threads = variant == 0 ? 1 : 4;
    config.fde.decode_threads = variant == 0 ? -1 : 2;
    config.fde.prefetch_frames = variant == 0 ? 0 : 48;
    auto indexer = core::TennisVideoIndexer::Create(config).TakeValue();
    auto desc = indexer->Index(coded, 1, "decode-pipeline");
    ASSERT_TRUE(desc.ok()) << desc.status().ToString();
    if (variant == 0) {
      reference = indexer->fde().blackboard();
      ASSERT_FALSE(reference.empty());
      continue;
    }
    const auto& got_board = indexer->fde().blackboard();
    ASSERT_EQ(got_board.size(), reference.size());
    for (const auto& [symbol, annotations] : reference) {
      const auto& got = got_board.at(symbol);
      ASSERT_EQ(got.size(), annotations.size()) << symbol;
      for (size_t i = 0; i < annotations.size(); ++i) {
        EXPECT_EQ(got[i].range, annotations[i].range) << symbol;
        EXPECT_EQ(got[i].attrs, annotations[i].attrs) << symbol << " #" << i;
      }
    }
  }
}

}  // namespace
}  // namespace cobra::media
