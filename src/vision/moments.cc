#include "vision/moments.h"

#include <cmath>

namespace cobra::vision {

double RegionMoments::Orientation() const {
  if (m00 <= 0) return 0.0;
  return 0.5 * std::atan2(2.0 * mu11, mu20 - mu02);
}

double RegionMoments::Eccentricity() const {
  if (m00 <= 0) return 0.0;
  // Eigenvalues of the covariance matrix [[mu20, mu11], [mu11, mu02]] / m00.
  double a = mu20 / m00, b = mu11 / m00, c = mu02 / m00;
  double tr = a + c;
  double det_part = std::sqrt(std::max(0.0, (a - c) * (a - c) / 4.0 + b * b));
  double l1 = tr / 2.0 + det_part;  // major
  double l2 = tr / 2.0 - det_part;  // minor
  if (l1 <= 0) return 0.0;
  double ratio = std::max(0.0, l2) / l1;
  return std::sqrt(1.0 - ratio);
}

RegionMoments ComputeMoments(const std::vector<std::pair<int, int>>& pixels) {
  RegionMoments m;
  for (const auto& [x, y] : pixels) {
    m.m00 += 1.0;
    m.m10 += x;
    m.m01 += y;
  }
  if (m.m00 <= 0) return m;
  const double cx = m.m10 / m.m00;
  const double cy = m.m01 / m.m00;
  for (const auto& [x, y] : pixels) {
    const double dx = x - cx;
    const double dy = y - cy;
    m.mu20 += dx * dx;
    m.mu02 += dy * dy;
    m.mu11 += dx * dy;
  }
  return m;
}

RegionMoments ComputeMoments(const BinaryMask& mask) {
  std::vector<std::pair<int, int>> pixels;
  for (int y = 0; y < mask.height(); ++y) {
    for (int x = 0; x < mask.width(); ++x) {
      if (mask.At(x, y)) pixels.emplace_back(x, y);
    }
  }
  return ComputeMoments(pixels);
}

ShapeFeatures ComputeShapeFeatures(const media::Frame& frame,
                                   const ConnectedComponent& component) {
  ShapeFeatures out;
  RegionMoments m = ComputeMoments(component.pixels);
  out.area = m.m00;
  out.mass_center = m.Centroid();
  out.bounding_box = component.bbox;
  out.orientation = m.Orientation();
  out.eccentricity = m.Eccentricity();

  // Dominant color: modal 32-level-quantized color among member pixels.
  // Bins are indexed (r/32, g/32, b/32) in row-major order and scanned
  // upward, so a tie goes to the smallest quantized color.
  int counts[8 * 8 * 8] = {};
  for (const auto& [x, y] : component.pixels) {
    const media::Rgb& p = frame.At(x, y);
    ++counts[(p.r / 32) * 64 + (p.g / 32) * 8 + p.b / 32];
  }
  int best_bin = -1;
  int best = 0;
  for (int bin = 0; bin < 8 * 8 * 8; ++bin) {
    if (counts[bin] > best) {
      best = counts[bin];
      best_bin = bin;
    }
  }
  if (best_bin >= 0) {
    out.dominant_color =
        media::Rgb{static_cast<uint8_t>((best_bin / 64) * 32 + 16),
                   static_cast<uint8_t>((best_bin / 8 % 8) * 32 + 16),
                   static_cast<uint8_t>((best_bin % 8) * 32 + 16)};
  }
  return out;
}

}  // namespace cobra::vision
