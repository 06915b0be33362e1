#pragma once

/// \file dct.h
/// 8x8 block DCT, quantization and zigzag scan — the transform layer of the
/// block video codec (media/block_codec.h) that stands in for the demo's
/// external MPEG decoder.
///
/// The decode hot path — dequantization, the inverse DCT, reconstruction
/// and the YCbCr -> RGB conversion — dispatches through `DctOps` (scalar /
/// SSE4.1 / AVX2 tiers, selected at runtime through the shared util/simd
/// level — the same override vision/kernels honors). All tiers are
/// bit-identical: every lane performs the same multiply/add sequence in the
/// same order as the scalar reference, rounding uses an explicit
/// trunc(x + copysign(0.5, x)) formula that vectorizes exactly, and every
/// clamp is one that saturating integer packs reproduce.

#include <array>
#include <cstddef>
#include <cstdint>

#include "util/simd.h"

namespace cobra::media {

constexpr int kDctBlockSize = 8;
using DctBlock = std::array<double, 64>;   ///< row-major 8x8 coefficients
using PixelBlock = std::array<int16_t, 64>;  ///< row-major 8x8 samples

/// Forward 8x8 DCT-II (orthonormal).
void ForwardDct(const PixelBlock& in, DctBlock* out);

/// Inverse 8x8 DCT (matches ForwardDct up to rounding); the dense
/// transform, i.e. `DctOps::idct8x8` with every row and column marked.
void InverseDct(const DctBlock& in, PixelBlock* out);

/// Quantizer tables scaled once for a `quality` in [1, 100] (JPEG-style
/// scaling: 50 = table as-is, higher = finer); index [chroma]. The encoder
/// and decoder build one per stream instead of re-scaling per coefficient.
struct QuantTableSet {
  std::array<int, 64> quant[2];       ///< divisor per coefficient
  std::array<double, 64> dequant[2];  ///< the same divisors as multipliers
};
QuantTableSet MakeQuantTables(int quality);

/// Quantizes coefficients with a prebuilt table set.
void Quantize(const DctBlock& in, const QuantTableSet& tables, bool chroma,
              std::array<int16_t, 64>* out);
/// Convenience overload that scales the tables on every call.
void Quantize(const DctBlock& in, int quality, bool chroma,
              std::array<int16_t, 64>* out);

/// Dequantizes back to coefficient space (dispatched kernel).
void Dequantize(const std::array<int16_t, 64>& in, const QuantTableSet& tables,
                bool chroma, DctBlock* out);
void Dequantize(const std::array<int16_t, 64>& in, int quality, bool chroma,
                DctBlock* out);

/// One tier of the codec's kernels. Blocks are 64-element row-major 8x8
/// arrays unless a stride says otherwise.
struct DctOps {
  /// Inverse DCT of dequantized coefficients, rounded to int16 samples
  /// (saturated to the int16 range). Bit k of `row_mask` / `col_mask` must
  /// be set when coefficient row / column k may hold a nonzero value; the
  /// transform skips the rows and columns outside the masks, which leaves
  /// every output bit unchanged. 0xFF, 0xFF is the dense transform.
  void (*idct8x8)(const double* in, uint8_t row_mask, uint8_t col_mask,
                  int16_t* out);
  /// out[i] = in[i] * table[i].
  void (*dequant64)(const int16_t* in, const double* table, double* out);
  /// Block reconstruction: out row y, sample x =
  /// clamp(pred[y * pred_stride + x] + residual[y * 8 + x], 0, 255), for
  /// an 8x8 block whose output rows are `out_stride` samples apart.
  void (*reconstruct8x8)(const int16_t* residual, const int16_t* pred,
                         ptrdiff_t pred_stride, int16_t* out,
                         ptrdiff_t out_stride);
  /// One row of 4:2:0 YCbCr (BT.601 full range) to packed RGB24: pixel x
  /// converts (y[x], cb[x / 2], cr[x / 2]) into rgb[3x .. 3x + 2], each
  /// channel clamped to [0, 255] and truncated.
  void (*ycbcr_to_rgb_row)(const int16_t* y, const int16_t* cb,
                           const int16_t* cr, int width, uint8_t* rgb);
};

/// Ops table for `level`, or nullptr if that tier is compiled out or the
/// CPU lacks the instructions. `kScalar` never returns nullptr.
const DctOps* DctOpsFor(util::simd::SimdLevel level);

/// The tier the codec currently dispatches to: the best compiled+supported
/// tier, capped by the shared util/simd forced level (which
/// vision::kernels::SetActiveLevel sets).
util::simd::SimdLevel ActiveDctLevel();
const DctOps& ActiveDctOps();

/// Zigzag order: index i of the scan -> position in the 8x8 block. The
/// decoder's entropy stage writes levels straight to these positions.
extern const std::array<uint8_t, 64> kZigzagOrder;

/// Reorders a quantized block into zigzag scan order.
void ZigzagScan(const std::array<int16_t, 64>& in, std::array<int16_t, 64>* out);

}  // namespace cobra::media
