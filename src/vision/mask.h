#pragma once

/// \file mask.h
/// Binary pixel masks and simple morphology, used by the player
/// segmentation step of the tennis detector.

#include <cstdint>
#include <functional>
#include <vector>

#include "media/frame.h"
#include "util/geometry.h"
#include "vision/kernels.h"

namespace cobra::vision {

/// A width x height binary raster. Only the rectangle `rect()` that can
/// hold set pixels is stored: the clipped ROI for the From* builders, the
/// whole frame for BinaryMask(w, h), and correspondingly shrunk or grown
/// rectangles for Erode and Dilate. Every pixel outside it reads 0, so all
/// results stay in frame coordinates while the work scales with the ROI.
class BinaryMask {
 public:
  BinaryMask() = default;
  BinaryMask(int width, int height)
      : BinaryMask(width, height, RectI{0, 0, width, height}) {}

  int width() const { return width_; }
  int height() const { return height_; }
  bool Empty() const { return width_ == 0 || height_ == 0; }

  /// The stored rectangle, within the frame; empty when nothing can be set.
  const RectI& rect() const { return rect_; }

  /// (x, y) may be any frame pixel.
  bool At(int x, int y) const {
    return rect_.Contains(x, y) && bits_[Index(x, y)] != 0;
  }
  /// (x, y) must lie inside rect() (the whole frame for BinaryMask(w, h)).
  void Set(int x, int y, bool v) { bits_[Index(x, y)] = v ? 1 : 0; }

  /// Number of set pixels.
  int64_t Count() const;

  /// Tight bounding box of set pixels (empty rect if none).
  RectI BoundingBox() const;

  /// 3x3 box erosion (8-neighborhood).
  BinaryMask Erode() const;
  /// 3x3 box dilation (8-neighborhood).
  BinaryMask Dilate() const;
  /// Erode-then-dilate; removes isolated noise pixels.
  BinaryMask Open() const { return Erode().Dilate(); }
  /// Dilate-then-erode; fills small holes.
  BinaryMask Close() const { return Dilate().Erode(); }

  /// Builds a mask by applying `predicate` to every pixel of `frame`,
  /// optionally restricted to `roi` (pixels outside stay 0).
  static BinaryMask FromPredicate(
      const media::Frame& frame,
      const std::function<bool(const media::Rgb&)>& predicate);
  static BinaryMask FromPredicate(
      const media::Frame& frame, const RectI& roi,
      const std::function<bool(const media::Rgb&)>& predicate);

  /// Builds the mask of pixels inside `box` within `roi` (clipped; pixels
  /// outside stay 0). Batch-kernel fast path for color-model match tests
  /// (see GaussianColorModel::MatchBox); equivalent to FromPredicate with
  /// `box.Contains` but runs SIMD-wide.
  static BinaryMask FromColorBox(const media::Frame& frame, const RectI& roi,
                                 const kernels::ColorBox& box);

  /// Builds the mask of pixels belonging to NONE of `boxes` within `roi` —
  /// the foreground-extraction shape the player tracker uses.
  static BinaryMask FromOutsideColorBoxes(const media::Frame& frame,
                                          const RectI& roi,
                                          const kernels::ColorBox* boxes,
                                          size_t num_boxes);

 private:
  /// A zeroed mask storing `rect` (already clipped to the frame).
  BinaryMask(int width, int height, const RectI& rect)
      : width_(width),
        height_(height),
        rect_(rect),
        bits_(static_cast<size_t>(rect.Area()), 0) {}

  size_t Index(int x, int y) const {
    return static_cast<size_t>(y - rect_.y) *
               static_cast<size_t>(rect_.width) +
           static_cast<size_t>(x - rect_.x);
  }

  int width_ = 0;
  int height_ = 0;
  RectI rect_;
  std::vector<uint8_t> bits_;  ///< rect_ only, row-major
};

/// A 4-connected component of set pixels.
struct ConnectedComponent {
  int label = 0;
  int64_t area = 0;
  RectI bbox;
  PointD centroid;
  std::vector<std::pair<int, int>> pixels;  ///< (x, y) members
};

/// Labels 4-connected components; returns them sorted by decreasing area.
/// Components smaller than `min_area` are dropped.
std::vector<ConnectedComponent> LabelComponents(const BinaryMask& mask,
                                                int64_t min_area = 1);

}  // namespace cobra::vision
