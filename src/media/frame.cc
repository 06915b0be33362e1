#include "media/frame.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

namespace cobra::media {

Frame::Frame(int width, int height, Rgb fill)
    : width_(width), height_(height) {
  const size_t n = static_cast<size_t>(width) * static_cast<size_t>(height);
  // Value-initialized pixels are black and compile to one memset; a fill
  // copy stores one 3-byte triple at a time, ~10x slower for a frame the
  // decoder then overwrites anyway.
  if (fill == Rgb{}) {
    pixels_.resize(n);
  } else {
    pixels_.assign(n, fill);
  }
}

void Frame::FillRect(const RectI& rect, Rgb color) {
  RectI r = rect.ClipTo(width_, height_);
  for (int y = r.y; y < r.Bottom(); ++y) {
    for (int x = r.x; x < r.Right(); ++x) {
      At(x, y) = color;
    }
  }
}

void Frame::FillEllipse(double cx, double cy, double rx, double ry, Rgb color) {
  if (rx <= 0 || ry <= 0) return;
  int y0 = std::max(0, static_cast<int>(std::floor(cy - ry)));
  int y1 = std::min(height_ - 1, static_cast<int>(std::ceil(cy + ry)));
  int x0 = std::max(0, static_cast<int>(std::floor(cx - rx)));
  int x1 = std::min(width_ - 1, static_cast<int>(std::ceil(cx + rx)));
  for (int y = y0; y <= y1; ++y) {
    double dy = (y - cy) / ry;
    for (int x = x0; x <= x1; ++x) {
      double dx = (x - cx) / rx;
      if (dx * dx + dy * dy <= 1.0) At(x, y) = color;
    }
  }
}

void Frame::DrawLine(int x0, int y0, int x1, int y1, Rgb color) {
  int dx = std::abs(x1 - x0), sx = x0 < x1 ? 1 : -1;
  int dy = -std::abs(y1 - y0), sy = y0 < y1 ? 1 : -1;
  int err = dx + dy;
  while (true) {
    Set(x0, y0, color);
    if (x0 == x1 && y0 == y1) break;
    int e2 = 2 * err;
    if (e2 >= dy) {
      err += dy;
      x0 += sx;
    }
    if (e2 <= dx) {
      err += dx;
      y0 += sy;
    }
  }
}

Frame Frame::Crop(const RectI& rect) const {
  RectI r = rect.ClipTo(width_, height_);
  Frame out(r.width, r.height);
  for (int y = 0; y < r.height; ++y) {
    for (int x = 0; x < r.width; ++x) {
      out.At(x, y) = At(r.x + x, r.y + y);
    }
  }
  return out;
}

Result<Frame> Frame::Downsample(int factor) const {
  if (factor < 1) {
    return Status::InvalidArgument("downsample factor must be >= 1");
  }
  if (factor == 1) return *this;
  int nw = std::max(1, width_ / factor);
  int nh = std::max(1, height_ / factor);
  Frame out(nw, nh);
  for (int y = 0; y < nh; ++y) {
    for (int x = 0; x < nw; ++x) {
      int sum_r = 0, sum_g = 0, sum_b = 0, n = 0;
      for (int dy = 0; dy < factor; ++dy) {
        for (int dx = 0; dx < factor; ++dx) {
          int sx = x * factor + dx;
          int sy = y * factor + dy;
          if (sx < width_ && sy < height_) {
            const Rgb& p = At(sx, sy);
            sum_r += p.r;
            sum_g += p.g;
            sum_b += p.b;
            ++n;
          }
        }
      }
      out.At(x, y) = Rgb{static_cast<uint8_t>(sum_r / n),
                         static_cast<uint8_t>(sum_g / n),
                         static_cast<uint8_t>(sum_b / n)};
    }
  }
  return out;
}

}  // namespace cobra::media
