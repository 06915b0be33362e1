#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "detectors/compressed_shot_boundary.h"
#include "media/block_codec.h"
#include "media/dct.h"
#include "media/tennis_synthesizer.h"
#include "util/rng.h"
#include "util/stats.h"

namespace cobra::media {
namespace {

// ---------- DCT ----------

TEST(DctTest, RoundTripIsLossless) {
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    PixelBlock block;
    for (auto& v : block) v = static_cast<int16_t>(rng.NextInt(-255, 255));
    DctBlock coeffs;
    ForwardDct(block, &coeffs);
    PixelBlock back;
    InverseDct(coeffs, &back);
    for (int i = 0; i < 64; ++i) {
      EXPECT_NEAR(back[static_cast<size_t>(i)], block[static_cast<size_t>(i)], 1)
          << "trial " << trial << " index " << i;
    }
  }
}

TEST(DctTest, DcCoefficientIsScaledMean) {
  PixelBlock block;
  block.fill(100);
  DctBlock coeffs;
  ForwardDct(block, &coeffs);
  EXPECT_NEAR(coeffs[0], 100.0 * 8.0, 1e-6);  // orthonormal: DC = 8 * mean
  for (int i = 1; i < 64; ++i) EXPECT_NEAR(coeffs[i], 0.0, 1e-9);
}

TEST(DctTest, ParsevalEnergyPreserved) {
  Rng rng(9);
  PixelBlock block;
  for (auto& v : block) v = static_cast<int16_t>(rng.NextInt(-128, 127));
  DctBlock coeffs;
  ForwardDct(block, &coeffs);
  double energy_pixels = 0, energy_coeffs = 0;
  for (int i = 0; i < 64; ++i) {
    energy_pixels += static_cast<double>(block[static_cast<size_t>(i)]) *
                     block[static_cast<size_t>(i)];
    energy_coeffs += coeffs[static_cast<size_t>(i)] * coeffs[static_cast<size_t>(i)];
  }
  EXPECT_NEAR(energy_pixels, energy_coeffs, energy_pixels * 1e-9);
}

TEST(DctTest, QuantizationHigherQualityLowerError) {
  Rng rng(11);
  PixelBlock block;
  for (auto& v : block) v = static_cast<int16_t>(rng.NextInt(-128, 127));
  DctBlock coeffs;
  ForwardDct(block, &coeffs);
  auto error_at = [&](int quality) {
    std::array<int16_t, 64> q;
    Quantize(coeffs, quality, false, &q);
    DctBlock back;
    Dequantize(q, quality, false, &back);
    double err = 0;
    for (int i = 0; i < 64; ++i) err += std::fabs(back[i] - coeffs[i]);
    return err;
  };
  EXPECT_LT(error_at(95), error_at(50));
  EXPECT_LT(error_at(50), error_at(10));
}

TEST(DctTest, ZigzagRoundTrip) {
  std::array<int16_t, 64> block;
  for (int i = 0; i < 64; ++i) block[static_cast<size_t>(i)] = static_cast<int16_t>(i * 3 - 90);
  std::array<int16_t, 64> zz, back{};
  ZigzagScan(block, &zz);
  for (size_t i = 0; i < 64; ++i) back[kZigzagOrder[i]] = zz[i];
  EXPECT_EQ(block, back);
  // Zigzag starts at DC and visits each position once.
  EXPECT_EQ(kZigzagOrder[0], 0);
  std::array<bool, 64> seen{};
  for (uint8_t p : kZigzagOrder) seen[p] = true;
  for (bool s : seen) EXPECT_TRUE(s);
}

// ---------- decode kernels, every tier against the scalar formulas ----------

struct Tier {
  const char* name;
  const DctOps* ops;
};

/// Every tier this build compiled and this CPU runs.
std::vector<Tier> AllTiers() {
  std::vector<Tier> tiers;
  for (auto level : {util::simd::SimdLevel::kScalar,
                     util::simd::SimdLevel::kSse41,
                     util::simd::SimdLevel::kAvx2}) {
    if (const DctOps* ops = DctOpsFor(level)) {
      tiers.push_back({util::simd::SimdLevelName(level), ops});
    }
  }
  return tiers;
}

/// The decoder's per-pixel YCbCr -> RGB formula, clamped then truncated.
void ReferenceYcbcrToRgb(int y, int cb, int cr, uint8_t* rgb) {
  const double luma = y;
  const double u = cb - 128.0;
  const double v = cr - 128.0;
  const auto channel = [](double c) {
    return static_cast<uint8_t>(std::clamp(c, 0.0, 255.0));
  };
  rgb[0] = channel(luma + 1.403 * v);
  rgb[1] = channel(luma - 0.344 * u - 0.714 * v);
  rgb[2] = channel(luma + 1.773 * u);
}

TEST(DctKernelTest, ColourRowMatchesFormulaOnEveryInput) {
  // Row r of chroma plane value cr holds cb = 0..255 at chroma positions
  // 0..255 and lumas 2r, 2r + 1 under each: all 2^24 (y, cb, cr) triples.
  constexpr int kWidth = 512;
  std::vector<int16_t> y(kWidth), cb(kWidth / 2), cr(kWidth / 2);
  std::vector<uint8_t> expected(3 * kWidth), got(3 * kWidth);
  for (size_t j = 0; j < cb.size(); ++j) cb[j] = static_cast<int16_t>(j);
  const std::vector<Tier> tiers = AllTiers();
  for (int c = 0; c < 256; ++c) {
    std::fill(cr.begin(), cr.end(), static_cast<int16_t>(c));
    for (int r = 0; r < 128; ++r) {
      for (size_t x = 0; x < y.size(); ++x) {
        y[x] = static_cast<int16_t>(2 * r + x % 2);
        ReferenceYcbcrToRgb(y[x], cb[x / 2], c, &expected[3 * x]);
      }
      for (const Tier& tier : tiers) {
        tier.ops->ycbcr_to_rgb_row(y.data(), cb.data(), cr.data(), kWidth,
                                   got.data());
        ASSERT_EQ(got, expected) << tier.name << " cr " << c << " row " << r;
      }
    }
  }
}

TEST(DctKernelTest, ColourRowCoversAnyWidthAndWritesNoFurther) {
  Rng rng(41);
  const std::vector<Tier> tiers = AllTiers();
  for (int width = 1; width <= 70; ++width) {
    std::vector<int16_t> y(static_cast<size_t>(width));
    std::vector<int16_t> cb(static_cast<size_t>(width + 1) / 2), cr(cb.size());
    for (auto& v : y) v = static_cast<int16_t>(rng.NextInt(0, 255));
    for (auto& v : cb) v = static_cast<int16_t>(rng.NextInt(0, 255));
    for (auto& v : cr) v = static_cast<int16_t>(rng.NextInt(0, 255));
    std::vector<uint8_t> expected(3 * y.size() + 16, 0xEE);
    for (size_t x = 0; x < y.size(); ++x) {
      ReferenceYcbcrToRgb(y[x], cb[x / 2], cr[x / 2], &expected[3 * x]);
    }
    for (const Tier& tier : tiers) {
      std::vector<uint8_t> got(expected.size(), 0xEE);
      tier.ops->ycbcr_to_rgb_row(y.data(), cb.data(), cr.data(), width,
                                 got.data());
      EXPECT_EQ(got, expected) << tier.name << " width " << width;
    }
  }
}

/// The dense IDCT the masked one replaced: columns then rows, each a
/// sequential k-order sum, rounded half away from zero and saturated.
PixelBlock ReferenceDenseIdct(const DctBlock& in) {
  constexpr double kPi = 3.14159265358979323846;
  double basis[8][8];
  for (int k = 0; k < 8; ++k) {
    double s = k == 0 ? std::sqrt(1.0 / 8.0) : std::sqrt(2.0 / 8.0);
    for (int n = 0; n < 8; ++n) {
      basis[k][n] = s * std::cos((2 * n + 1) * k * kPi / 16.0);
    }
  }
  double tmp[64];
  for (int n = 0; n < 8; ++n) {
    for (int x = 0; x < 8; ++x) {
      double acc = 0.0;
      for (int k = 0; k < 8; ++k) {
        acc += basis[k][n] * in[static_cast<size_t>(k * 8 + x)];
      }
      tmp[n * 8 + x] = acc;
    }
  }
  PixelBlock out;
  for (int y = 0; y < 8; ++y) {
    for (int n = 0; n < 8; ++n) {
      double acc = 0.0;
      for (int k = 0; k < 8; ++k) acc += basis[k][n] * tmp[y * 8 + k];
      const int32_t r = static_cast<int32_t>(acc + std::copysign(0.5, acc));
      out[static_cast<size_t>(y * 8 + n)] =
          static_cast<int16_t>(std::clamp(r, -32768, 32767));
    }
  }
  return out;
}

TEST(DctKernelTest, MaskedIdctEqualsDenseAtEveryTier) {
  Rng rng(77);
  const std::vector<Tier> tiers = AllTiers();
  for (int trial = 0; trial < 3000; ++trial) {
    // Random zero-row / zero-column patterns; the first trials pin the
    // all-zero, DC-only and full blocks.
    uint8_t rows = static_cast<uint8_t>(rng.NextInt(0, 255));
    uint8_t cols = static_cast<uint8_t>(rng.NextInt(0, 255));
    if (trial == 0) rows = cols = 0x00;
    if (trial == 1) rows = cols = 0x01;
    if (trial == 2) rows = cols = 0xFF;
    const int quality = static_cast<int>(rng.NextInt(1, 100));
    // Mostly decoder-sized levels, sometimes large enough to saturate.
    const int max_level = trial % 10 == 0 ? 32767 : 60;
    std::array<int16_t, 64> levels{};
    uint8_t tight_rows = 0, tight_cols = 0;
    for (int i = 0; i < 64; ++i) {
      const int r = i / 8, c = i % 8;
      if (!((rows >> r) & 1) || !((cols >> c) & 1)) continue;
      if (trial > 2 && rng.NextInt(0, 2) == 0) continue;  // sparse inside
      int16_t level = static_cast<int16_t>(rng.NextInt(-max_level, max_level));
      if (level == 0) level = 1;
      levels[static_cast<size_t>(i)] = level;
      tight_rows |= static_cast<uint8_t>(1 << r);
      tight_cols |= static_cast<uint8_t>(1 << c);
    }
    DctBlock coeffs;
    Dequantize(levels, quality, trial % 2 == 1, &coeffs);
    const PixelBlock expected = ReferenceDenseIdct(coeffs);
    for (const Tier& tier : tiers) {
      // Tight masks, the generating (looser) masks, and the dense call.
      for (auto [row_mask, col_mask] :
           {std::pair<uint8_t, uint8_t>{tight_rows, tight_cols},
            std::pair<uint8_t, uint8_t>{rows, cols},
            std::pair<uint8_t, uint8_t>{0xFF, 0xFF}}) {
        PixelBlock got;
        tier.ops->idct8x8(coeffs.data(), row_mask, col_mask, got.data());
        ASSERT_EQ(got, expected)
            << tier.name << " trial " << trial << " rows 0x" << std::hex
            << int{row_mask} << " cols 0x" << int{col_mask};
      }
    }
  }
}

TEST(DctKernelTest, ReconstructIsTheClampedSumAtEveryTier) {
  Rng rng(5);
  const std::vector<Tier> tiers = AllTiers();
  for (int trial = 0; trial < 2000; ++trial) {
    // Residuals over the whole int16 range; predictions mostly in
    // [0, 255] (every decoded sample is), sometimes anywhere in int16.
    PixelBlock residual;
    const int residual_max = trial % 3 == 0 ? 300 : 32767;
    for (auto& v : residual) {
      v = static_cast<int16_t>(rng.NextInt(-residual_max - 1, residual_max));
    }
    const int pred_stride = 8 * static_cast<int>(rng.NextInt(0, 2)) + trial % 2;
    const int out_stride = 8 + static_cast<int>(rng.NextInt(0, 9));
    const bool any_pred = trial % 5 == 0;
    std::vector<int16_t> pred(static_cast<size_t>(7 * pred_stride + 8));
    for (auto& v : pred) {
      v = static_cast<int16_t>(any_pred ? rng.NextInt(-32768, 32767)
                                        : rng.NextInt(0, 255));
    }
    std::vector<int16_t> expected(static_cast<size_t>(8 * out_stride), -7);
    for (int y = 0; y < 8; ++y) {
      for (int x = 0; x < 8; ++x) {
        const int sum = pred[static_cast<size_t>(y * pred_stride + x)] +
                        residual[static_cast<size_t>(y * 8 + x)];
        expected[static_cast<size_t>(y * out_stride + x)] =
            static_cast<int16_t>(std::clamp(sum, 0, 255));
      }
    }
    for (const Tier& tier : tiers) {
      std::vector<int16_t> got(expected.size(), -7);
      tier.ops->reconstruct8x8(residual.data(), pred.data(), pred_stride,
                               got.data(), out_stride);
      ASSERT_EQ(got, expected) << tier.name << " trial " << trial;
    }
  }
}

// ---------- Codec ----------

TennisSynthConfig CodecVideoConfig() {
  TennisSynthConfig config;
  config.width = 96;
  config.height = 80;
  config.num_points = 2;
  config.min_court_frames = 50;
  config.max_court_frames = 70;
  config.min_cutaway_frames = 10;
  config.max_cutaway_frames = 16;
  config.noise_sigma = 2.0;
  config.seed = 3;
  return config;
}

const Broadcast& CodecBroadcast() {
  static const Broadcast* b = [] {
    auto r = TennisBroadcastSynthesizer(CodecVideoConfig()).Synthesize();
    EXPECT_TRUE(r.ok());
    return new Broadcast(std::move(r).TakeValue());
  }();
  return *b;
}

TEST(CodecTest, RejectsBadConfig) {
  const Broadcast& b = CodecBroadcast();
  CodecConfig config;
  config.quality = 0;
  EXPECT_FALSE(BlockVideoEncoder::Encode(*b.video, config).ok());
  config = CodecConfig{};
  config.gop_size = 0;
  EXPECT_FALSE(BlockVideoEncoder::Encode(*b.video, config).ok());
  MemoryVideo empty({}, 25.0);
  EXPECT_FALSE(BlockVideoEncoder::Encode(empty, CodecConfig{}).ok());
}

TEST(CodecTest, CompressesAndReconstructsFaithfully) {
  const Broadcast& b = CodecBroadcast();
  auto encoded = BlockVideoEncoder::Encode(*b.video).TakeValue();
  EXPECT_EQ(encoded.num_frames(), b.video->num_frames());
  EXPECT_GT(encoded.CompressionRatio(), 4.0)
      << "expected at least 4x over raw RGB";

  CodedVideoSource decoded(std::move(encoded));
  RunningStats psnr;
  for (int64_t f = 0; f < decoded.num_frames(); f += 7) {
    Frame original = b.video->GetFrame(f).TakeValue();
    Frame reconstructed = decoded.GetFrame(f).TakeValue();
    psnr.Add(ComputePsnr(original, reconstructed).TakeValue());
  }
  // The crowd mosaics (3px random-hue blocks) are chroma content that 4:2:0
  // subsampling cannot represent; ~25 dB overall is the content's bound,
  // not a codec defect (verified against an I-frame-only q=100 encode).
  EXPECT_GT(psnr.min(), 22.0) << "mean PSNR " << psnr.mean();
  EXPECT_GT(psnr.mean(), 24.0);
}

TEST(CodecTest, QualityKnobTradesSizeForFidelity) {
  const Broadcast& b = CodecBroadcast();
  CodecConfig low, high;
  low.quality = 30;
  high.quality = 90;
  auto coarse = BlockVideoEncoder::Encode(*b.video, low).TakeValue();
  auto fine = BlockVideoEncoder::Encode(*b.video, high).TakeValue();
  EXPECT_LT(coarse.TotalBytes(), fine.TotalBytes());

  CodedVideoSource coarse_video(std::move(coarse));
  CodedVideoSource fine_video(std::move(fine));
  Frame original = b.video->GetFrame(20).TakeValue();
  double coarse_psnr =
      ComputePsnr(original, coarse_video.GetFrame(20).TakeValue()).TakeValue();
  double fine_psnr =
      ComputePsnr(original, fine_video.GetFrame(20).TakeValue()).TakeValue();
  EXPECT_GT(fine_psnr, coarse_psnr);
}

TEST(CodecTest, RandomAccessMatchesSequentialDecode) {
  const Broadcast& b = CodecBroadcast();
  auto encoded = BlockVideoEncoder::Encode(*b.video).TakeValue();
  CodedVideoSource sequential(encoded);
  CodedVideoSource random(std::move(encoded));

  // Decode a few frames sequentially on one decoder.
  std::vector<Frame> expected;
  for (int64_t f = 0; f <= 40; ++f) {
    expected.push_back(sequential.GetFrame(f).TakeValue());
  }
  // Access the same frames out of order on the other.
  for (int64_t f : {40, 0, 25, 13, 39, 1, 40}) {
    Frame got = random.GetFrame(f).TakeValue();
    const Frame& want = expected[static_cast<size_t>(f)];
    ASSERT_TRUE(got.SameSizeAs(want));
    EXPECT_TRUE(std::equal(got.pixels().begin(), got.pixels().end(),
                           want.pixels().begin(),
                           [](const Rgb& x, const Rgb& y) { return x == y; }))
        << "frame " << f << " differs between access orders";
  }
}

TEST(CodecTest, GopStructure) {
  const Broadcast& b = CodecBroadcast();
  CodecConfig config;
  config.gop_size = 10;
  auto encoded = BlockVideoEncoder::Encode(*b.video, config).TakeValue();
  for (int64_t f = 0; f < encoded.num_frames(); ++f) {
    EXPECT_EQ(encoded.Stats(f).intra_frame, f % 10 == 0) << "frame " << f;
    EXPECT_GT(encoded.Stats(f).bytes, 0u);
  }
  // P frames should be smaller than I frames on average.
  double i_bytes = 0, p_bytes = 0;
  int i_count = 0, p_count = 0;
  for (int64_t f = 0; f < encoded.num_frames(); ++f) {
    if (encoded.Stats(f).intra_frame) {
      i_bytes += static_cast<double>(encoded.Stats(f).bytes);
      ++i_count;
    } else {
      p_bytes += static_cast<double>(encoded.Stats(f).bytes);
      ++p_count;
    }
  }
  EXPECT_LT(p_bytes / p_count, 0.6 * i_bytes / i_count);
}

TEST(CodecTest, OutOfRangeAccess) {
  const Broadcast& b = CodecBroadcast();
  auto encoded = BlockVideoEncoder::Encode(*b.video).TakeValue();
  CodedVideoSource decoded(std::move(encoded));
  EXPECT_FALSE(decoded.GetFrame(-1).ok());
  EXPECT_FALSE(decoded.GetFrame(decoded.num_frames()).ok());
}

TEST(PsnrTest, Properties) {
  Frame a(8, 8, Rgb{100, 100, 100});
  EXPECT_DOUBLE_EQ(ComputePsnr(a, a).TakeValue(), 99.0);
  Frame b(8, 8, Rgb{110, 100, 100});
  double psnr = ComputePsnr(a, b).TakeValue();
  EXPECT_GT(psnr, 20.0);
  EXPECT_LT(psnr, 40.0);
  Frame c(4, 4);
  EXPECT_FALSE(ComputePsnr(a, c).ok());
}

// ---------- Compressed-domain shot detection ----------

TEST(CompressedShotTest, IntraRatioSpikesAtCuts) {
  const Broadcast& b = CodecBroadcast();
  auto encoded = BlockVideoEncoder::Encode(*b.video).TakeValue();
  auto signal = detectors::CompressedShotBoundaryDetector::Signal(encoded);
  for (int64_t cut : b.truth.CutPositions()) {
    EXPECT_GT(signal[static_cast<size_t>(cut)], 0.4)
        << "no intra-ratio spike at cut " << cut;
  }
}

TEST(CompressedShotTest, DetectsCutsFromStatistics) {
  const Broadcast& b = CodecBroadcast();
  auto encoded = BlockVideoEncoder::Encode(*b.video).TakeValue();
  detectors::CompressedShotBoundaryDetector detector;
  auto cuts = detector.Detect(encoded);
  PrecisionRecall pr = MatchWithTolerance(b.truth.CutPositions(), cuts, 2);
  EXPECT_GE(pr.F1(), 0.9) << pr.ToString();
}

TEST(CompressedShotTest, FrameZeroNeverFires) {
  const Broadcast& b = CodecBroadcast();
  auto encoded = BlockVideoEncoder::Encode(*b.video).TakeValue();
  detectors::CompressedShotBoundaryDetector detector;
  for (int64_t cut : detector.Detect(encoded)) EXPECT_GT(cut, 0);
}

}  // namespace
}  // namespace cobra::media
