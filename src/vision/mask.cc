#include "vision/mask.h"

#include <algorithm>

namespace cobra::vision {

int64_t BinaryMask::Count() const {
  return static_cast<int64_t>(
      kernels::Ops().byte_sum(bits_.data(), bits_.size()));
}

RectI BinaryMask::BoundingBox() const {
  int min_x = width_, min_y = height_, max_x = -1, max_y = -1;
  for (int y = rect_.y; y < rect_.Bottom(); ++y) {
    for (int x = rect_.x; x < rect_.Right(); ++x) {
      if (bits_[Index(x, y)] != 0) {
        min_x = std::min(min_x, x);
        min_y = std::min(min_y, y);
        max_x = std::max(max_x, x);
        max_y = std::max(max_y, y);
      }
    }
  }
  if (max_x < 0) return RectI{};
  return RectI{min_x, min_y, max_x - min_x + 1, max_y - min_y + 1};
}

BinaryMask BinaryMask::Erode() const {
  // Every pixel on the border of rect_ has a neighbor that reads 0 (outside
  // the frame or outside rect_), so the result fits in rect_ shrunk by one
  // and each of its 3x3 neighborhoods lies inside rect_.
  BinaryMask out(width_, height_,
                 RectI{rect_.x + 1, rect_.y + 1, rect_.width - 2,
                       rect_.height - 2}
                     .Intersect(rect_));
  const RectI& r = out.rect_;
  const size_t stride = static_cast<size_t>(rect_.width);
  for (int y = r.y; y < r.Bottom(); ++y) {
    // Bytes are 0/1, so AND over the neighborhood is the erosion.
    const uint8_t* row = bits_.data() + Index(r.x, y);
    const uint8_t* above = row - stride;
    const uint8_t* below = row + stride;
    uint8_t* dst = out.bits_.data() + out.Index(r.x, y);
    for (int i = 0; i < r.width; ++i) {
      dst[i] = above[i - 1] & above[i] & above[i + 1] & row[i - 1] & row[i] &
               row[i + 1] & below[i - 1] & below[i] & below[i + 1];
    }
  }
  return out;
}

BinaryMask BinaryMask::Dilate() const {
  if (rect_.Empty()) return BinaryMask(width_, height_, RectI{});
  // Set pixels spread one pixel past rect_, but not past the frame.
  BinaryMask out(width_, height_,
                 RectI{rect_.x - 1, rect_.y - 1, rect_.width + 2,
                       rect_.height + 2}
                     .ClipTo(width_, height_));
  const RectI& r = out.rect_;
  // rect_ inside a two-pixel border of zeros: output pixels reach one pixel
  // past rect_, so each of their 3x3 neighborhoods lies in it. Bytes are
  // 0/1, so OR over the neighborhood is the dilation.
  const size_t stride = static_cast<size_t>(rect_.width) + 4;
  std::vector<uint8_t> padded(stride * (static_cast<size_t>(rect_.height) + 4),
                              0);
  for (int y = rect_.y; y < rect_.Bottom(); ++y) {
    std::copy_n(bits_.data() + Index(rect_.x, y), rect_.width,
                padded.data() + static_cast<size_t>(y - rect_.y + 2) * stride +
                    2);
  }
  for (int y = r.y; y < r.Bottom(); ++y) {
    const uint8_t* row = padded.data() +
                         static_cast<size_t>(y - rect_.y + 2) * stride +
                         static_cast<size_t>(r.x - rect_.x + 2);
    const uint8_t* above = row - stride;
    const uint8_t* below = row + stride;
    uint8_t* dst = out.bits_.data() + out.Index(r.x, y);
    for (int i = 0; i < r.width; ++i) {
      dst[i] = above[i - 1] | above[i] | above[i + 1] | row[i - 1] | row[i] |
               row[i + 1] | below[i - 1] | below[i] | below[i + 1];
    }
  }
  return out;
}

BinaryMask BinaryMask::FromPredicate(
    const media::Frame& frame,
    const std::function<bool(const media::Rgb&)>& predicate) {
  return FromPredicate(frame, RectI{0, 0, frame.width(), frame.height()},
                       predicate);
}

BinaryMask BinaryMask::FromPredicate(
    const media::Frame& frame, const RectI& roi,
    const std::function<bool(const media::Rgb&)>& predicate) {
  BinaryMask out(frame.width(), frame.height(),
                 roi.ClipTo(frame.width(), frame.height()));
  const RectI& r = out.rect_;
  for (int y = r.y; y < r.Bottom(); ++y) {
    for (int x = r.x; x < r.Right(); ++x) {
      if (predicate(frame.At(x, y))) out.Set(x, y, true);
    }
  }
  return out;
}

BinaryMask BinaryMask::FromColorBox(const media::Frame& frame,
                                    const RectI& roi,
                                    const kernels::ColorBox& box) {
  BinaryMask out(frame.width(), frame.height(),
                 roi.ClipTo(frame.width(), frame.height()));
  const RectI& r = out.rect_;
  const kernels::KernelOps& ops = kernels::Ops();
  for (int y = r.y; y < r.Bottom(); ++y) {
    ops.classify_inside(frame.Row(y) + r.x, static_cast<size_t>(r.width), box,
                        out.bits_.data() + out.Index(r.x, y));
  }
  return out;
}

BinaryMask BinaryMask::FromOutsideColorBoxes(const media::Frame& frame,
                                             const RectI& roi,
                                             const kernels::ColorBox* boxes,
                                             size_t num_boxes) {
  BinaryMask out(frame.width(), frame.height(),
                 roi.ClipTo(frame.width(), frame.height()));
  const RectI& r = out.rect_;
  const kernels::KernelOps& ops = kernels::Ops();
  for (int y = r.y; y < r.Bottom(); ++y) {
    ops.classify_outside(frame.Row(y) + r.x, static_cast<size_t>(r.width),
                         boxes, num_boxes, out.bits_.data() + out.Index(r.x, y));
  }
  return out;
}

std::vector<ConnectedComponent> LabelComponents(const BinaryMask& mask,
                                                int64_t min_area) {
  // Set pixels lie inside mask.rect(), so scanning its rows visits them in
  // the frame's raster order; `seen` covers that rectangle only.
  std::vector<ConnectedComponent> out;
  const RectI& r = mask.rect();
  if (r.Empty()) return out;
  std::vector<uint8_t> seen(static_cast<size_t>(r.Area()), 0);
  auto idx = [&](int x, int y) {
    return static_cast<size_t>(y - r.y) * static_cast<size_t>(r.width) +
           static_cast<size_t>(x - r.x);
  };
  int next_label = 0;
  for (int y = r.y; y < r.Bottom(); ++y) {
    for (int x = r.x; x < r.Right(); ++x) {
      if (!mask.At(x, y) || seen[idx(x, y)] != 0) continue;
      ++next_label;
      ConnectedComponent cc;
      cc.label = next_label;
      double sum_x = 0, sum_y = 0;
      int min_x = x, min_y = y, max_x = x, max_y = y;
      // Breadth-first: `pixels` doubles as the FIFO queue, so members are
      // listed in visiting order.
      cc.pixels.emplace_back(x, y);
      seen[idx(x, y)] = 1;
      for (size_t head = 0; head < cc.pixels.size(); ++head) {
        const auto [cx, cy] = cc.pixels[head];
        sum_x += cx;
        sum_y += cy;
        min_x = std::min(min_x, cx);
        min_y = std::min(min_y, cy);
        max_x = std::max(max_x, cx);
        max_y = std::max(max_y, cy);
        constexpr int kDx[] = {1, -1, 0, 0};
        constexpr int kDy[] = {0, 0, 1, -1};
        for (int d = 0; d < 4; ++d) {
          int nx = cx + kDx[d], ny = cy + kDy[d];
          if (mask.At(nx, ny) && seen[idx(nx, ny)] == 0) {
            seen[idx(nx, ny)] = 1;
            cc.pixels.emplace_back(nx, ny);
          }
        }
      }
      cc.area = static_cast<int64_t>(cc.pixels.size());
      cc.bbox = RectI{min_x, min_y, max_x - min_x + 1, max_y - min_y + 1};
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

}  // namespace cobra::vision
