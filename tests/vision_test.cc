#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <deque>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "media/frame.h"
#include "util/rng.h"
#include "vision/color_model.h"
#include "vision/gray_stats.h"
#include "vision/histogram.h"
#include "vision/kernels.h"
#include "vision/mask.h"
#include "vision/moments.h"

namespace cobra::vision {
namespace {

using media::Frame;
using media::Rgb;

// ---------- Histogram ----------

TEST(HistogramTest, UniformFrameIsOneBin) {
  Frame f(16, 16, Rgb{38, 82, 164});
  auto h = ColorHistogram::FromFrame(f, 8);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->NumBins(), 512u);
  EXPECT_DOUBLE_EQ(h->DominantRatio(), 1.0);
  double sum = 0;
  for (size_t i = 0; i < h->NumBins(); ++i) sum += h->At(i);
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(HistogramTest, RejectsBadBins) {
  Frame f(4, 4);
  EXPECT_FALSE(ColorHistogram::FromFrame(f, 3).ok());
  EXPECT_FALSE(ColorHistogram::FromFrame(f, 0).ok());
  EXPECT_FALSE(ColorHistogram::FromFrame(f, 512).ok());
}

TEST(HistogramTest, RejectsEmptyRegion) {
  Frame f(4, 4);
  EXPECT_FALSE(ColorHistogram::FromRegion(f, RectI{10, 10, 2, 2}).ok());
}

TEST(HistogramTest, DistancesZeroForIdentical) {
  Frame f(16, 16, Rgb{100, 50, 25});
  auto h = ColorHistogram::FromFrame(f).TakeValue();
  EXPECT_DOUBLE_EQ(h.L1Distance(h), 0.0);
  EXPECT_DOUBLE_EQ(h.ChiSquareDistance(h), 0.0);
  EXPECT_NEAR(h.IntersectionDistance(h), 0.0, 1e-12);
}

TEST(HistogramTest, DistancesMaximalForDisjoint) {
  Frame a(16, 16, Rgb{0, 0, 0});
  Frame b(16, 16, Rgb{255, 255, 255});
  auto ha = ColorHistogram::FromFrame(a).TakeValue();
  auto hb = ColorHistogram::FromFrame(b).TakeValue();
  EXPECT_DOUBLE_EQ(ha.L1Distance(hb), 2.0);
  EXPECT_DOUBLE_EQ(ha.IntersectionDistance(hb), 1.0);
  EXPECT_GT(ha.ChiSquareDistance(hb), 1.0);
}

TEST(HistogramTest, DistanceSymmetry) {
  Frame a(8, 8, Rgb{10, 20, 30});
  Frame b(8, 8);
  b.FillRect(RectI{0, 0, 4, 8}, Rgb{200, 100, 20});
  auto ha = ColorHistogram::FromFrame(a).TakeValue();
  auto hb = ColorHistogram::FromFrame(b).TakeValue();
  for (auto metric : {HistogramDistance::kL1, HistogramDistance::kChiSquare,
                      HistogramDistance::kIntersection}) {
    EXPECT_DOUBLE_EQ(Distance(ha, hb, metric), Distance(hb, ha, metric))
        << HistogramDistanceToString(metric);
  }
}

TEST(HistogramTest, BinCenterInverts) {
  Frame f(4, 4, Rgb{38, 82, 164});
  auto h = ColorHistogram::FromFrame(f, 8).TakeValue();
  Rgb center = h.BinCenter(h.ModalBin());
  // Bin width is 32 at 8 bins: center within 16 of the true color.
  EXPECT_NEAR(center.r, 38, 16);
  EXPECT_NEAR(center.g, 82, 16);
  EXPECT_NEAR(center.b, 164, 16);
}

TEST(HistogramTest, RegionIsolatesContent) {
  Frame f(16, 16, Rgb{0, 0, 0});
  f.FillRect(RectI{8, 0, 8, 16}, Rgb{255, 0, 0});
  auto left = ColorHistogram::FromRegion(f, RectI{0, 0, 8, 16}).TakeValue();
  auto right = ColorHistogram::FromRegion(f, RectI{8, 0, 8, 16}).TakeValue();
  EXPECT_DOUBLE_EQ(left.L1Distance(right), 2.0);
}

// ---------- GrayStats ----------

TEST(GrayStatsTest, UniformFrame) {
  Frame f(16, 16, Rgb{100, 100, 100});
  GrayStats gs = ComputeGrayStats(f);
  EXPECT_NEAR(gs.mean, 100.0, 0.5);
  EXPECT_NEAR(gs.variance, 0.0, 1e-9);
  EXPECT_NEAR(gs.entropy, 0.0, 1e-9);
}

TEST(GrayStatsTest, TwoToneEntropyIsOneBit) {
  Frame f(16, 16, Rgb{0, 0, 0});
  f.FillRect(RectI{0, 0, 16, 8}, Rgb{255, 255, 255});
  GrayStats gs = ComputeGrayStats(f);
  EXPECT_NEAR(gs.entropy, 1.0, 1e-9);
  EXPECT_NEAR(gs.mean, 127.5, 0.5);
  EXPECT_GT(gs.variance, 10000.0);
}

TEST(GrayStatsTest, EmptyRegionIsZeros) {
  Frame f(8, 8);
  GrayStats gs = ComputeGrayStats(f, RectI{20, 20, 4, 4});
  EXPECT_EQ(gs.mean, 0.0);
  EXPECT_EQ(gs.entropy, 0.0);
}

TEST(GrayStatsTest, SkinRatio) {
  Frame f(10, 10, Rgb{38, 82, 164});
  f.FillRect(RectI{0, 0, 10, 3}, Rgb{222, 164, 124});
  EXPECT_NEAR(SkinPixelRatio(f), 0.3, 1e-9);
}

// ---------- Mask / components ----------

TEST(MaskTest, CountAndBoundingBox) {
  BinaryMask m(10, 10);
  m.Set(2, 3, true);
  m.Set(5, 7, true);
  EXPECT_EQ(m.Count(), 2);
  EXPECT_EQ(m.BoundingBox(), (RectI{2, 3, 4, 5}));
}

TEST(MaskTest, EmptyBoundingBox) {
  BinaryMask m(5, 5);
  EXPECT_TRUE(m.BoundingBox().Empty());
}

TEST(MaskTest, ErodeRemovesThinStructures) {
  BinaryMask m(10, 10);
  for (int x = 0; x < 10; ++x) m.Set(x, 5, true);  // 1-px horizontal line
  EXPECT_EQ(m.Erode().Count(), 0);
}

TEST(MaskTest, OpenPreservesBlobRemovesNoise) {
  BinaryMask m(20, 20);
  for (int y = 5; y < 12; ++y) {
    for (int x = 5; x < 12; ++x) m.Set(x, y, true);  // 7x7 blob
  }
  m.Set(17, 17, true);  // isolated noise pixel
  BinaryMask opened = m.Open();
  EXPECT_FALSE(opened.At(17, 17));
  EXPECT_TRUE(opened.At(8, 8));
  EXPECT_GE(opened.Count(), 25);
}

TEST(MaskTest, DilateGrows) {
  BinaryMask m(10, 10);
  m.Set(5, 5, true);
  EXPECT_EQ(m.Dilate().Count(), 9);
}

TEST(ComponentsTest, FindsSeparateBlobs) {
  BinaryMask m(20, 20);
  for (int y = 0; y < 3; ++y) {
    for (int x = 0; x < 3; ++x) m.Set(x, y, true);  // 9 px
  }
  for (int y = 10; y < 16; ++y) {
    for (int x = 10; x < 16; ++x) m.Set(x, y, true);  // 36 px
  }
  auto cc = LabelComponents(m);
  ASSERT_EQ(cc.size(), 2u);
  EXPECT_EQ(cc[0].area, 36);  // sorted by area desc
  EXPECT_EQ(cc[1].area, 9);
  EXPECT_EQ(cc[0].bbox, (RectI{10, 10, 6, 6}));
  EXPECT_NEAR(cc[0].centroid.x, 12.5, 1e-9);
}

TEST(ComponentsTest, MinAreaFilters) {
  BinaryMask m(10, 10);
  m.Set(1, 1, true);
  m.Set(5, 5, true);
  m.Set(5, 6, true);
  auto cc = LabelComponents(m, 2);
  ASSERT_EQ(cc.size(), 1u);
  EXPECT_EQ(cc[0].area, 2);
}

TEST(ComponentsTest, DiagonalIsNotConnected) {
  BinaryMask m(4, 4);
  m.Set(0, 0, true);
  m.Set(1, 1, true);
  EXPECT_EQ(LabelComponents(m).size(), 2u);  // 4-connectivity
}

// ---------- ROI-local segmentation vs the full-frame oracle ----------

// The full-frame composition the ROI-local BinaryMask must reproduce: a
// frame-sized byte raster with 3x3 erosion, 3x3 dilation and 4-connected
// BFS labeling that each visit every pixel of the frame.
struct FullMask {
  int width = 0;
  int height = 0;
  std::vector<uint8_t> bits;

  FullMask(int w, int h)
      : width(w), height(h), bits(static_cast<size_t>(w) * h, 0) {}
  bool At(int x, int y) const {
    return x >= 0 && x < width && y >= 0 && y < height &&
           bits[static_cast<size_t>(y) * width + x] != 0;
  }
  void Set(int x, int y, bool v) {
    bits[static_cast<size_t>(y) * width + x] = v ? 1 : 0;
  }
};

FullMask OracleMask(const Frame& frame, const RectI& roi,
                    const std::function<bool(const Rgb&)>& predicate) {
  FullMask out(frame.width(), frame.height());
  const RectI r = roi.ClipTo(frame.width(), frame.height());
  for (int y = 0; y < frame.height(); ++y) {
    for (int x = 0; x < frame.width(); ++x) {
      out.Set(x, y, r.Contains(x, y) && predicate(frame.At(x, y)));
    }
  }
  return out;
}

FullMask OracleErode(const FullMask& m) {
  FullMask out(m.width, m.height);
  for (int y = 0; y < m.height; ++y) {
    for (int x = 0; x < m.width; ++x) {
      bool all = true;
      for (int dy = -1; dy <= 1; ++dy) {
        for (int dx = -1; dx <= 1; ++dx) all = all && m.At(x + dx, y + dy);
      }
      out.Set(x, y, all);
    }
  }
  return out;
}

FullMask OracleDilate(const FullMask& m) {
  FullMask out(m.width, m.height);
  for (int y = 0; y < m.height; ++y) {
    for (int x = 0; x < m.width; ++x) {
      bool any = false;
      for (int dy = -1; dy <= 1; ++dy) {
        for (int dx = -1; dx <= 1; ++dx) any = any || m.At(x + dx, y + dy);
      }
      out.Set(x, y, any);
    }
  }
  return out;
}

std::vector<ConnectedComponent> OracleLabel(const FullMask& m,
                                            int64_t min_area) {
  std::vector<ConnectedComponent> out;
  std::vector<int> labels(m.bits.size(), 0);
  auto idx = [&](int x, int y) { return static_cast<size_t>(y) * m.width + x; };
  int next_label = 0;
  for (int y = 0; y < m.height; ++y) {
    for (int x = 0; x < m.width; ++x) {
      if (!m.At(x, y) || labels[idx(x, y)] != 0) continue;
      ConnectedComponent cc;
      cc.label = ++next_label;
      double sum_x = 0, sum_y = 0;
      std::deque<std::pair<int, int>> queue{{x, y}};
      labels[idx(x, y)] = next_label;
      RectI box{x, y, 1, 1};
      while (!queue.empty()) {
        auto [cx, cy] = queue.front();
        queue.pop_front();
        cc.pixels.emplace_back(cx, cy);
        cc.area++;
        sum_x += cx;
        sum_y += cy;
        box = box.Union(RectI{cx, cy, 1, 1});
        constexpr int kDx[] = {1, -1, 0, 0};
        constexpr int kDy[] = {0, 0, 1, -1};
        for (int d = 0; d < 4; ++d) {
          int nx = cx + kDx[d], ny = cy + kDy[d];
          if (m.At(nx, ny) && labels[idx(nx, ny)] == 0) {
            labels[idx(nx, ny)] = next_label;
            queue.emplace_back(nx, ny);
          }
        }
      }
      cc.bbox = box;
      cc.centroid = PointD{sum_x / static_cast<double>(cc.area),
                           sum_y / static_cast<double>(cc.area)};
      if (cc.area >= min_area) out.push_back(std::move(cc));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const ConnectedComponent& a, const ConnectedComponent& b) {
              return a.area > b.area;
            });
  return out;
}

void ExpectSamePixels(const BinaryMask& got, const FullMask& want,
                      const char* what) {
  SCOPED_TRACE(what);
  ASSERT_EQ(got.width(), want.width);
  ASSERT_EQ(got.height(), want.height);
  int64_t count = 0;
  int min_x = want.width, min_y = want.height, max_x = -1, max_y = -1;
  for (int y = 0; y < want.height; ++y) {
    for (int x = 0; x < want.width; ++x) {
      ASSERT_EQ(got.At(x, y), want.At(x, y)) << x << "," << y;
      if (!want.At(x, y)) continue;
      ++count;
      min_x = std::min(min_x, x);
      min_y = std::min(min_y, y);
      max_x = std::max(max_x, x);
      max_y = std::max(max_y, y);
    }
  }
  const RectI bbox = count == 0 ? RectI{}
                                 : RectI{min_x, min_y, max_x - min_x + 1,
                                         max_y - min_y + 1};
  EXPECT_EQ(got.Count(), count);
  EXPECT_EQ(got.BoundingBox(), bbox);
}

void ExpectSameComponents(const std::vector<ConnectedComponent>& got,
                          const std::vector<ConnectedComponent>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    SCOPED_TRACE("component " + std::to_string(i));
    EXPECT_EQ(got[i].label, want[i].label);
    EXPECT_EQ(got[i].area, want[i].area);
    EXPECT_EQ(got[i].bbox, want[i].bbox);
    EXPECT_EQ(got[i].pixels, want[i].pixels);
    EXPECT_EQ(std::bit_cast<uint64_t>(got[i].centroid.x),
              std::bit_cast<uint64_t>(want[i].centroid.x));
    EXPECT_EQ(std::bit_cast<uint64_t>(got[i].centroid.y),
              std::bit_cast<uint64_t>(want[i].centroid.y));
  }
}

Rgb Jitter(const Rgb& c, Rng& rng) {
  auto ch = [&](uint8_t v) {
    return static_cast<uint8_t>(
        std::clamp(static_cast<int>(v) + static_cast<int>(rng.NextInt(-6, 6)),
                   0, 255));
  };
  return Rgb{ch(c.r), ch(c.g), ch(c.b)};
}

// A background with palette-colored rectangles (players, lines, blobs) and
// speckle, every pixel jittered so the box edges cut some of them.
Frame RandomSceneFrame(int w, int h, const Rgb* palette, int palette_size,
                       Rng& rng) {
  Frame frame(w, h, palette[0]);
  const int rects = 2 + static_cast<int>(rng.NextBounded(10));
  for (int i = 0; i < rects; ++i) {
    const int rw = 1 + static_cast<int>(rng.NextBounded(std::max(1, w / 3)));
    const int rh = 1 + static_cast<int>(rng.NextBounded(std::max(1, h / 3)));
    frame.FillRect(RectI{static_cast<int>(rng.NextInt(-2, w)),
                         static_cast<int>(rng.NextInt(-2, h)), rw, rh},
                   palette[rng.NextBounded(palette_size)]);
  }
  for (int64_t i = 0; i < frame.PixelCount() / 16; ++i) {
    frame.Set(static_cast<int>(rng.NextBounded(w)),
              static_cast<int>(rng.NextBounded(h)),
              palette[rng.NextBounded(palette_size)]);
  }
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) frame.At(x, y) = Jitter(frame.At(x, y), rng);
  }
  return frame;
}

kernels::ColorBox BoxAround(const Rgb& c, int radius) {
  auto lo = [&](uint8_t v) {
    return static_cast<uint8_t>(std::max(0, v - radius));
  };
  auto hi = [&](uint8_t v) {
    return static_cast<uint8_t>(std::min(255, v + radius));
  };
  return kernels::ColorBox{{lo(c.r), lo(c.g), lo(c.b)},
                           {hi(c.r), hi(c.g), hi(c.b)}};
}

// Inside, clipped on each side, 1 px wide or high, empty, and full-frame.
std::vector<RectI> TestRois(int w, int h, Rng& rng) {
  auto in = [&](int extent) {
    return static_cast<int>(rng.NextBounded(static_cast<uint64_t>(extent)));
  };
  const int rw = 1 + in(w), rh = 1 + in(h);
  return {
      RectI{in(w), in(h), rw, rh},                                  // random
      RectI{w / 4, h / 4, std::max(1, w / 2), std::max(1, h / 2)},  // inside
      RectI{-3, in(h), rw + 3, rh},                     // clipped left
      RectI{w - rw / 2 - 1, in(h), rw + 4, rh},         // clipped right
      RectI{in(w), -2, rw, rh + 2},                     // clipped top
      RectI{in(w), h - rh / 2 - 1, rw, rh + 5},         // clipped bottom
      RectI{in(w), 0, 1, h},                            // 1 px wide
      RectI{0, in(h), w, 1},                            // 1 px high
      RectI{in(w), in(h), 0, rh},                       // empty
      RectI{w + 1, h + 1, 5, 5},                        // outside the frame
      RectI{0, 0, w, h},                                // full frame
      RectI{-4, -4, w + 8, h + 8},                      // covers the frame
  };
}

TEST(MaskRoiTest, MatchesFullFrameOracleAtEveryTier) {
  const Rgb palette[] = {Rgb{48, 80, 176}, Rgb{40, 120, 60},
                         Rgb{240, 240, 240}, Rgb{208, 48, 48},
                         Rgb{208, 144, 112}};
  const kernels::SimdLevel previous = kernels::ActiveLevel();
  for (kernels::SimdLevel level :
       {kernels::SimdLevel::kScalar, kernels::SimdLevel::kSse41,
        kernels::SimdLevel::kAvx2}) {
    if (kernels::OpsFor(level) == nullptr) continue;
    kernels::SetActiveLevel(level);
    SCOPED_TRACE(kernels::SimdLevelName(level));
    Rng rng(0x5e6);
    for (auto [w, h] : std::vector<std::pair<int, int>>{
             {128, 96}, {37, 23}, {1, 9}, {9, 1}, {3, 3}, {64, 5}}) {
      for (int trial = 0; trial < 3; ++trial) {
        const Frame frame = RandomSceneFrame(w, h, palette, 5, rng);
        // The tracker's shape: foreground = outside court, surround and
        // line boxes; plus a single inside box.
        const kernels::ColorBox background[3] = {
            BoxAround(palette[0], 4 + static_cast<int>(rng.NextBounded(6))),
            BoxAround(palette[1], 4 + static_cast<int>(rng.NextBounded(6))),
            BoxAround(palette[2], 4 + static_cast<int>(rng.NextBounded(6)))};
        const kernels::ColorBox player =
            BoxAround(palette[3], 3 + static_cast<int>(rng.NextBounded(6)));
        for (const RectI& roi : TestRois(w, h, rng)) {
          SCOPED_TRACE(std::to_string(w) + "x" + std::to_string(h) + " roi " +
                       roi.ToString());
          const BinaryMask outside =
              BinaryMask::FromOutsideColorBoxes(frame, roi, background, 3);
          const FullMask outside_full =
              OracleMask(frame, roi, [&](const Rgb& p) {
                return !background[0].Contains(p) &&
                       !background[1].Contains(p) && !background[2].Contains(p);
              });
          const BinaryMask inside =
              BinaryMask::FromColorBox(frame, roi, player);
          const FullMask inside_full = OracleMask(
              frame, roi, [&](const Rgb& p) { return player.Contains(p); });

          for (const auto& [mask, full] :
               {std::pair{&outside, &outside_full},
                std::pair{&inside, &inside_full}}) {
            ExpectSamePixels(*mask, *full, "mask");
            ExpectSamePixels(mask->Erode(), OracleErode(*full), "erode");
            ExpectSamePixels(mask->Dilate(), OracleDilate(*full), "dilate");
            ExpectSamePixels(mask->Close(), OracleErode(OracleDilate(*full)),
                             "close");
            const FullMask opened_full = OracleDilate(OracleErode(*full));
            ExpectSamePixels(mask->Open(), opened_full, "open");
            ExpectSameComponents(LabelComponents(*mask),
                                 OracleLabel(*full, 1));
            ExpectSameComponents(LabelComponents(mask->Open(), 3),
                                 OracleLabel(opened_full, 3));
          }
        }
      }
    }
  }
  kernels::SetActiveLevel(previous);
}

// ---------- Moments ----------

TEST(MomentsTest, CentroidOfSquare) {
  std::vector<std::pair<int, int>> pixels;
  for (int y = 2; y <= 6; ++y) {
    for (int x = 4; x <= 8; ++x) pixels.emplace_back(x, y);
  }
  RegionMoments m = ComputeMoments(pixels);
  EXPECT_DOUBLE_EQ(m.m00, 25.0);
  EXPECT_DOUBLE_EQ(m.Centroid().x, 6.0);
  EXPECT_DOUBLE_EQ(m.Centroid().y, 4.0);
  EXPECT_NEAR(m.Eccentricity(), 0.0, 1e-9);  // square ~ circle
}

TEST(MomentsTest, ElongatedRegionEccentricityAndOrientation) {
  std::vector<std::pair<int, int>> pixels;
  for (int x = 0; x < 30; ++x) {
    for (int y = 0; y < 3; ++y) pixels.emplace_back(x, y);  // wide strip
  }
  RegionMoments m = ComputeMoments(pixels);
  EXPECT_GT(m.Eccentricity(), 0.9);
  EXPECT_NEAR(m.Orientation(), 0.0, 0.05);  // aligned with x axis

  // Vertical strip: orientation ±pi/2.
  std::vector<std::pair<int, int>> vert;
  for (int y = 0; y < 30; ++y) {
    for (int x = 0; x < 3; ++x) vert.emplace_back(x, y);
  }
  RegionMoments mv = ComputeMoments(vert);
  EXPECT_NEAR(std::fabs(mv.Orientation()), M_PI / 2, 0.05);
}

TEST(MomentsTest, EmptyRegion) {
  RegionMoments m = ComputeMoments(std::vector<std::pair<int, int>>{});
  EXPECT_EQ(m.m00, 0.0);
  EXPECT_EQ(m.Eccentricity(), 0.0);
  EXPECT_EQ(m.Orientation(), 0.0);
}

TEST(MomentsTest, MaskOverloadMatchesPixelList) {
  BinaryMask mask(10, 10);
  std::vector<std::pair<int, int>> pixels;
  for (int y = 1; y < 5; ++y) {
    for (int x = 2; x < 9; ++x) {
      mask.Set(x, y, true);
      pixels.emplace_back(x, y);
    }
  }
  RegionMoments a = ComputeMoments(mask);
  RegionMoments b = ComputeMoments(pixels);
  EXPECT_DOUBLE_EQ(a.m00, b.m00);
  EXPECT_DOUBLE_EQ(a.mu20, b.mu20);
  EXPECT_DOUBLE_EQ(a.mu11, b.mu11);
}

TEST(ShapeFeaturesTest, DominantColorOfRegion) {
  Frame f(10, 10, Rgb{0, 0, 0});
  f.FillRect(RectI{2, 2, 4, 4}, Rgb{208, 44, 44});
  BinaryMask m(10, 10);
  for (int y = 2; y < 6; ++y) {
    for (int x = 2; x < 6; ++x) m.Set(x, y, true);
  }
  auto cc = LabelComponents(m);
  ASSERT_EQ(cc.size(), 1u);
  ShapeFeatures sf = ComputeShapeFeatures(f, cc[0]);
  EXPECT_EQ(sf.area, 16.0);
  EXPECT_EQ(sf.bounding_box, (RectI{2, 2, 4, 4}));
  // Dominant color quantized to 32-wide bins: within 16 of the truth.
  EXPECT_NEAR(sf.dominant_color.r, 208, 16);
  EXPECT_NEAR(sf.dominant_color.g, 44, 16);
}

// ---------- Color model ----------

TEST(ColorModelTest, MatchesOwnPopulation) {
  Frame f(16, 16, Rgb{38, 82, 164});
  GaussianColorModel m =
      GaussianColorModel::FromRegion(f, RectI{0, 0, 16, 16});
  EXPECT_NEAR(m.mean_b(), 164.0, 0.5);
  EXPECT_TRUE(m.Matches(Rgb{40, 84, 160}));
  EXPECT_FALSE(m.Matches(Rgb{208, 44, 44}));   // player shirt
  EXPECT_FALSE(m.Matches(Rgb{222, 164, 124})); // skin
}

TEST(ColorModelTest, VarianceFloorAdmitsNoise) {
  GaussianColorModel m;
  for (int i = 0; i < 100; ++i) m.Add(Rgb{100, 100, 100});
  // Exactly constant model still accepts small perturbations.
  EXPECT_TRUE(m.Matches(Rgb{104, 96, 100}, 3.0));
  EXPECT_FALSE(m.Matches(Rgb{140, 100, 100}, 3.0));
}

TEST(ColorModelTest, Distance2Monotone) {
  GaussianColorModel m;
  for (int i = 0; i < 50; ++i) m.Add(Rgb{100, 100, 100});
  EXPECT_LT(m.Distance2(Rgb{101, 100, 100}), m.Distance2(Rgb{120, 100, 100}));
  EXPECT_LT(m.Distance2(Rgb{120, 100, 100}), m.Distance2(Rgb{200, 100, 100}));
}

TEST(ColorModelTest, EmptyModelIsPermissiveEnough) {
  GaussianColorModel m;
  EXPECT_EQ(m.count(), 0);
  EXPECT_EQ(m.mean_r(), 0.0);
}

}  // namespace
}  // namespace cobra::vision
