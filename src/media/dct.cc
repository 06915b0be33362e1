#include "media/dct.h"

#include <algorithm>
#include <cmath>

// SIMD tiers exist only on x86-64 GCC/Clang builds with the COBRA_SIMD CMake
// option ON; everywhere else only the scalar tier is compiled and dispatch
// degenerates to it (same gating as vision/kernels.cc).
#if defined(COBRA_SIMD) && COBRA_SIMD && defined(__x86_64__) && \
    (defined(__GNUC__) || defined(__clang__))
#define COBRA_DCT_SIMD_X86 1
#include <immintrin.h>
#else
#define COBRA_DCT_SIMD_X86 0
#endif

namespace cobra::media {

namespace {

constexpr double kPi = 3.14159265358979323846;

/// DCT basis matrix C[k][n] = s(k) cos((2n+1) k pi / 16).
struct DctTables {
  double basis[8][8];
  DctTables() {
    for (int k = 0; k < 8; ++k) {
      double s = k == 0 ? std::sqrt(1.0 / 8.0) : std::sqrt(2.0 / 8.0);
      for (int n = 0; n < 8; ++n) {
        basis[k][n] = s * std::cos((2 * n + 1) * k * kPi / 16.0);
      }
    }
  }
};
const DctTables kTables;

// JPEG Annex K quantization tables.
constexpr int kLumaQuant[64] = {
    16, 11, 10, 16, 24,  40,  51,  61,  12, 12, 14, 19, 26,  58,  60,  55,
    14, 13, 16, 24, 40,  57,  69,  56,  14, 17, 22, 29, 51,  87,  80,  62,
    18, 22, 37, 56, 68,  109, 103, 77,  24, 35, 55, 64, 81,  104, 113, 92,
    49, 64, 78, 87, 103, 121, 120, 101, 72, 92, 95, 98, 112, 100, 103, 99};
constexpr int kChromaQuant[64] = {
    17, 18, 24, 47, 99, 99, 99, 99, 18, 21, 26, 66, 99, 99, 99, 99,
    24, 26, 56, 99, 99, 99, 99, 99, 47, 66, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99};

int ScaledQuant(int base, int quality) {
  quality = std::clamp(quality, 1, 100);
  int scale = quality < 50 ? 5000 / quality : 200 - 2 * quality;
  int q = (base * scale + 50) / 100;
  return std::clamp(q, 1, 255);
}

// ---------------------------------------------------------------------------
// Transform kernels. The accumulation contract every tier follows exactly:
// each output lane sums its basis*input products sequentially in k order
// (no trees, no FMA contraction — explicit mul then add), and rounding is
// trunc(v + copysign(0.5, v)), saturated to int16. The vector tiers carry 8
// output lanes per row and perform the same per-lane sequence, so all tiers
// are bit-identical.
//
// The masked IDCT skips the products of rows (pass 1) and columns (pass 2)
// that hold no nonzero coefficient. That is exact: every skipped product is
// ±0, each accumulator starts at +0, and a sum that starts at +0 can never
// become -0 under round-to-nearest (x + y is -0 only when both are -0), so
// adding ±0 never changes it. The vector tiers' pass 1 also skips the tmp
// columns pass 2 never reads.
// ---------------------------------------------------------------------------

inline int16_t RoundSample(double v) {
  const int32_t r = static_cast<int32_t>(v + std::copysign(0.5, v));
  return static_cast<int16_t>(std::clamp(r, -32768, 32767));
}

/// The set bits of `mask` in increasing order; returns how many there are.
int MaskIndices(uint8_t mask, int* k) {
  int count = 0;
  for (int i = 0; i < 8; ++i) {
    if ((mask >> i) & 1) k[count++] = i;
  }
  return count;
}

void IdctScalar(const double* in, uint8_t row_mask, uint8_t col_mask,
                int16_t* out) {
  // Columns then rows; every lane is the sequential k-order sum over the
  // marked rows (pass 1) and columns (pass 2).
  int rows[8], cols[8];
  const int num_rows = MaskIndices(row_mask, rows);
  const int num_cols = MaskIndices(col_mask, cols);
  double tmp[64];
  for (int n = 0; n < 8; ++n) {
    double acc[8] = {};
    for (int i = 0; i < num_rows; ++i) {
      const int k = rows[i];
      for (int x = 0; x < 8; ++x) {
        acc[x] += kTables.basis[k][n] * in[k * 8 + x];
      }
    }
    for (int x = 0; x < 8; ++x) tmp[n * 8 + x] = acc[x];
  }
  for (int y = 0; y < 8; ++y) {
    double acc[8] = {};
    for (int i = 0; i < num_cols; ++i) {
      const int k = cols[i];
      for (int n = 0; n < 8; ++n) {
        acc[n] += kTables.basis[k][n] * tmp[y * 8 + k];
      }
    }
    for (int n = 0; n < 8; ++n) out[y * 8 + n] = RoundSample(acc[n]);
  }
}

void Dequant64Scalar(const int16_t* in, const double* table, double* out) {
  for (int i = 0; i < 64; ++i) out[i] = static_cast<double>(in[i]) * table[i];
}

void Reconstruct8x8Scalar(const int16_t* residual, const int16_t* pred,
                          ptrdiff_t pred_stride, int16_t* out,
                          ptrdiff_t out_stride) {
  for (int y = 0; y < 8; ++y) {
    for (int x = 0; x < 8; ++x) {
      const int v = pred[y * pred_stride + x] + residual[y * 8 + x];
      out[y * out_stride + x] = static_cast<int16_t>(std::clamp(v, 0, 255));
    }
  }
}

uint8_t ClampChannel(double v) {
  return static_cast<uint8_t>(std::clamp(v, 0.0, 255.0));
}

void YcbcrToRgbRowScalar(const int16_t* y, const int16_t* cb,
                         const int16_t* cr, int width, uint8_t* rgb) {
  for (int x = 0; x < width; ++x) {
    const double luma = y[x];
    const double u = cb[x / 2] - 128.0;
    const double v = cr[x / 2] - 128.0;
    rgb[3 * x] = ClampChannel(luma + 1.403 * v);
    rgb[3 * x + 1] = ClampChannel(luma - 0.344 * u - 0.714 * v);
    rgb[3 * x + 2] = ClampChannel(luma + 1.773 * u);
  }
}

constexpr DctOps kScalarDctOps = {IdctScalar, Dequant64Scalar,
                                  Reconstruct8x8Scalar, YcbcrToRgbRowScalar};

#if COBRA_DCT_SIMD_X86

/// pshufb masks that spread 16 bytes of one channel over its slots in 48
/// bytes of packed RGB24: mask[o][c] fills output bytes 16o..16o+15 with
/// channel c and zeroes the other two channels' slots.
struct RgbSpread {
  alignas(16) int8_t mask[3][3][16];
  constexpr RgbSpread() : mask{} {
    for (int o = 0; o < 3; ++o) {
      for (int c = 0; c < 3; ++c) {
        for (int p = 0; p < 16; ++p) {
          const int byte = 16 * o + p;
          mask[o][c][p] = static_cast<int8_t>(byte % 3 == c ? byte / 3 : -1);
        }
      }
    }
  }
};
constexpr RgbSpread kRgbSpread;

// ---------------- SSE4.1 tier: 8 lanes as four __m128d ----------------

/// RoundSample's trunc(v + copysign(0.5, v)) as int32 lanes (the low two):
/// the truncating conversion does the trunc.
__attribute__((target("sse4.1"))) inline __m128i RoundToInt128(__m128d v) {
  const __m128d sign = _mm_and_pd(v, _mm_set1_pd(-0.0));
  const __m128d half = _mm_or_pd(_mm_set1_pd(0.5), sign);
  return _mm_cvttpd_epi32(_mm_add_pd(v, half));
}

// The vector tiers run each pass with k in the outer loop and eight
// independent accumulators inside it, so the multiply/add chains overlap;
// every lane still adds its products in increasing k order.

__attribute__((target("sse4.1"))) void IdctSse41(const double* in,
                                                 uint8_t row_mask,
                                                 uint8_t col_mask,
                                                 int16_t* out) {
  int rows[8], cols[8];
  const int num_rows = MaskIndices(row_mask, rows);
  const int num_cols = MaskIndices(col_mask, cols);
  double tmp[64];
  // Pass 1: tmp[n][x] = sum_k basis[k][n] * in[k][x]; lanes over x, only
  // the lane pairs holding a column pass 2 reads.
  for (int x = 0; x < 8; x += 2) {
    if (((col_mask >> x) & 3) == 0) continue;
    __m128d acc[8];
    for (__m128d& a : acc) a = _mm_setzero_pd();
    for (int i = 0; i < num_rows; ++i) {
      const int k = rows[i];
      const __m128d row = _mm_loadu_pd(in + k * 8 + x);
      for (int n = 0; n < 8; ++n) {
        acc[n] = _mm_add_pd(
            acc[n], _mm_mul_pd(_mm_set1_pd(kTables.basis[k][n]), row));
      }
    }
    for (int n = 0; n < 8; ++n) _mm_storeu_pd(tmp + n * 8 + x, acc[n]);
  }
  // Pass 2: out[y][n] = sum_k basis[k][n] * tmp[y][k]; lanes over n
  // (basis row k is contiguous over n), two output rows at a time.
  for (int y = 0; y < 8; y += 2) {
    __m128d acc[2][4];
    for (auto& r : acc) {
      for (__m128d& a : r) a = _mm_setzero_pd();
    }
    for (int i = 0; i < num_cols; ++i) {
      const int k = cols[i];
      const double* basis = kTables.basis[k];
      const __m128d b[4] = {_mm_loadu_pd(basis), _mm_loadu_pd(basis + 2),
                            _mm_loadu_pd(basis + 4), _mm_loadu_pd(basis + 6)};
      for (int j = 0; j < 2; ++j) {
        const __m128d t = _mm_set1_pd(tmp[(y + j) * 8 + k]);
        for (int q = 0; q < 4; ++q) {
          acc[j][q] = _mm_add_pd(acc[j][q], _mm_mul_pd(t, b[q]));
        }
      }
    }
    for (int j = 0; j < 2; ++j) {
      // 2 ints per conversion, lanes 0-1.
      const __m128i i0 = RoundToInt128(acc[j][0]);
      const __m128i i1 = RoundToInt128(acc[j][1]);
      const __m128i i2 = RoundToInt128(acc[j][2]);
      const __m128i i3 = RoundToInt128(acc[j][3]);
      const __m128i lo = _mm_unpacklo_epi64(i0, i1);  // ints 0..3
      const __m128i hi = _mm_unpacklo_epi64(i2, i3);  // ints 4..7
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out + (y + j) * 8),
                       _mm_packs_epi32(lo, hi));
    }
  }
}

__attribute__((target("sse4.1"))) void Dequant64Sse41(const int16_t* in,
                                                      const double* table,
                                                      double* out) {
  for (int i = 0; i < 64; i += 4) {
    const __m128i raw =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(in + i));
    const __m128i i32 = _mm_cvtepi16_epi32(raw);
    const __m128d lo = _mm_cvtepi32_pd(i32);
    const __m128d hi = _mm_cvtepi32_pd(_mm_srli_si128(i32, 8));
    _mm_storeu_pd(out + i, _mm_mul_pd(lo, _mm_loadu_pd(table + i)));
    _mm_storeu_pd(out + i + 2, _mm_mul_pd(hi, _mm_loadu_pd(table + i + 2)));
  }
}

/// One 8-sample row per register, so the AVX2 tier uses it too. The
/// saturating add equals the exact sum clamped to [0, 255]: saturation
/// only moves sums that lie outside int16, hence outside [0, 255], and
/// keeps them on the same side of it.
__attribute__((target("sse4.1"))) void Reconstruct8x8Sse41(
    const int16_t* residual, const int16_t* pred, ptrdiff_t pred_stride,
    int16_t* out, ptrdiff_t out_stride) {
  const __m128i zero = _mm_setzero_si128();
  const __m128i max = _mm_set1_epi16(255);
  for (int y = 0; y < 8; ++y) {
    const __m128i r =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(residual + y * 8));
    const __m128i p = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(pred + y * pred_stride));
    const __m128i v = _mm_max_epi16(_mm_min_epi16(_mm_adds_epi16(p, r), max),
                                    zero);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + y * out_stride), v);
  }
}

/// Widens 16 luma samples and the 8 chroma samples they share into four
/// groups of four int32 lanes, each chroma sample repeated for its two
/// pixels.
__attribute__((target("sse4.1"))) inline void WidenYcbcr16(
    const int16_t* y, const int16_t* cb, const int16_t* cr, __m128i* y32,
    __m128i* cb32, __m128i* cr32) {
  const __m128i cb8 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(cb));
  const __m128i cr8 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(cr));
  // [0]: pixels 0..7, [1]: pixels 8..15.
  const __m128i y16[2] = {
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(y)),
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(y + 8))};
  const __m128i cb16[2] = {_mm_unpacklo_epi16(cb8, cb8),
                           _mm_unpackhi_epi16(cb8, cb8)};
  const __m128i cr16[2] = {_mm_unpacklo_epi16(cr8, cr8),
                           _mm_unpackhi_epi16(cr8, cr8)};
  for (int h = 0; h < 2; ++h) {
    y32[2 * h] = _mm_cvtepi16_epi32(y16[h]);
    y32[2 * h + 1] = _mm_cvtepi16_epi32(_mm_srli_si128(y16[h], 8));
    cb32[2 * h] = _mm_cvtepi16_epi32(cb16[h]);
    cb32[2 * h + 1] = _mm_cvtepi16_epi32(_mm_srli_si128(cb16[h], 8));
    cr32[2 * h] = _mm_cvtepi16_epi32(cr16[h]);
    cr32[2 * h + 1] = _mm_cvtepi16_epi32(_mm_srli_si128(cr16[h], 8));
  }
}

/// Saturates four groups of four truncated int32 channel values per channel
/// to [0, 255] (packs_epi32, then packus_epi16) and stores the 16 pixels as
/// 48 bytes of packed RGB24. Truncation then saturation equals the scalar
/// clamp then truncation: both map (-1, 256) to trunc(v) and everything
/// below or above to 0 or 255.
__attribute__((target("sse4.1"))) inline void StoreRgb16(const __m128i* r,
                                                         const __m128i* g,
                                                         const __m128i* b,
                                                         uint8_t* rgb) {
  const __m128i* lanes[3] = {r, g, b};
  __m128i channel[3];
  for (int c = 0; c < 3; ++c) {
    const __m128i* v = lanes[c];
    channel[c] = _mm_packus_epi16(_mm_packs_epi32(v[0], v[1]),
                                  _mm_packs_epi32(v[2], v[3]));
  }
  for (int o = 0; o < 3; ++o) {
    __m128i bytes = _mm_setzero_si128();
    for (int c = 0; c < 3; ++c) {
      const __m128i spread = _mm_load_si128(
          reinterpret_cast<const __m128i*>(kRgbSpread.mask[o][c]));
      bytes = _mm_or_si128(bytes, _mm_shuffle_epi8(channel[c], spread));
    }
    _mm_storeu_si128(reinterpret_cast<__m128i*>(rgb + 16 * o), bytes);
  }
}

/// The scalar per-pixel double sequence on four pixels, truncated to int32,
/// as two pairs of double lanes.
__attribute__((target("sse4.1"))) inline void YcbcrToRgb4Sse41(
    __m128i y32, __m128i cb32, __m128i cr32, __m128i* r, __m128i* g,
    __m128i* b) {
  __m128i pair[3][2];  // [channel][pixels 0-1, pixels 2-3], low two lanes
  for (int h = 0; h < 2; ++h) {
    const __m128d luma = _mm_cvtepi32_pd(y32);
    const __m128d u = _mm_sub_pd(_mm_cvtepi32_pd(cb32), _mm_set1_pd(128.0));
    const __m128d v = _mm_sub_pd(_mm_cvtepi32_pd(cr32), _mm_set1_pd(128.0));
    pair[0][h] =
        _mm_cvttpd_epi32(_mm_add_pd(luma, _mm_mul_pd(_mm_set1_pd(1.403), v)));
    pair[1][h] = _mm_cvttpd_epi32(
        _mm_sub_pd(_mm_sub_pd(luma, _mm_mul_pd(_mm_set1_pd(0.344), u)),
                   _mm_mul_pd(_mm_set1_pd(0.714), v)));
    pair[2][h] =
        _mm_cvttpd_epi32(_mm_add_pd(luma, _mm_mul_pd(_mm_set1_pd(1.773), u)));
    y32 = _mm_srli_si128(y32, 8);
    cb32 = _mm_srli_si128(cb32, 8);
    cr32 = _mm_srli_si128(cr32, 8);
  }
  *r = _mm_unpacklo_epi64(pair[0][0], pair[0][1]);
  *g = _mm_unpacklo_epi64(pair[1][0], pair[1][1]);
  *b = _mm_unpacklo_epi64(pair[2][0], pair[2][1]);
}

__attribute__((target("sse4.1"))) void YcbcrToRgbRowSse41(
    const int16_t* y, const int16_t* cb, const int16_t* cr, int width,
    uint8_t* rgb) {
  int x = 0;
  for (; x + 16 <= width; x += 16) {
    __m128i y32[4], cb32[4], cr32[4], r[4], g[4], b[4];
    WidenYcbcr16(y + x, cb + x / 2, cr + x / 2, y32, cb32, cr32);
    for (int i = 0; i < 4; ++i) {
      YcbcrToRgb4Sse41(y32[i], cb32[i], cr32[i], &r[i], &g[i], &b[i]);
    }
    StoreRgb16(r, g, b, rgb + 3 * x);
  }
  YcbcrToRgbRowScalar(y + x, cb + x / 2, cr + x / 2, width - x, rgb + 3 * x);
}

constexpr DctOps kSse41DctOps = {IdctSse41, Dequant64Sse41,
                                 Reconstruct8x8Sse41, YcbcrToRgbRowSse41};

// ---------------- AVX2 tier: 8 lanes as two __m256d ----------------

__attribute__((target("avx2"))) inline __m128i RoundToInt256(__m256d v) {
  const __m256d sign = _mm256_and_pd(v, _mm256_set1_pd(-0.0));
  const __m256d half = _mm256_or_pd(_mm256_set1_pd(0.5), sign);
  return _mm256_cvttpd_epi32(_mm256_add_pd(v, half));
}

__attribute__((target("avx2"))) void IdctAvx2(const double* in,
                                              uint8_t row_mask,
                                              uint8_t col_mask, int16_t* out) {
  int rows[8], cols[8];
  const int num_rows = MaskIndices(row_mask, rows);
  const int num_cols = MaskIndices(col_mask, cols);
  double tmp[64];
  for (int x = 0; x < 8; x += 4) {
    if (((col_mask >> x) & 15) == 0) continue;
    __m256d acc[8];
    for (__m256d& a : acc) a = _mm256_setzero_pd();
    for (int i = 0; i < num_rows; ++i) {
      const int k = rows[i];
      const __m256d row = _mm256_loadu_pd(in + k * 8 + x);
      for (int n = 0; n < 8; ++n) {
        acc[n] = _mm256_add_pd(
            acc[n], _mm256_mul_pd(_mm256_set1_pd(kTables.basis[k][n]), row));
      }
    }
    for (int n = 0; n < 8; ++n) _mm256_storeu_pd(tmp + n * 8 + x, acc[n]);
  }
  for (int y = 0; y < 8; y += 4) {
    __m256d lo[4], hi[4];
    for (int j = 0; j < 4; ++j) lo[j] = hi[j] = _mm256_setzero_pd();
    for (int i = 0; i < num_cols; ++i) {
      const int k = cols[i];
      const __m256d b_lo = _mm256_loadu_pd(kTables.basis[k]);
      const __m256d b_hi = _mm256_loadu_pd(kTables.basis[k] + 4);
      for (int j = 0; j < 4; ++j) {
        const __m256d t = _mm256_set1_pd(tmp[(y + j) * 8 + k]);
        lo[j] = _mm256_add_pd(lo[j], _mm256_mul_pd(t, b_lo));
        hi[j] = _mm256_add_pd(hi[j], _mm256_mul_pd(t, b_hi));
      }
    }
    for (int j = 0; j < 4; ++j) {
      const __m128i i_lo = RoundToInt256(lo[j]);  // ints 0..3
      const __m128i i_hi = RoundToInt256(hi[j]);  // ints 4..7
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out + (y + j) * 8),
                       _mm_packs_epi32(i_lo, i_hi));
    }
  }
}

__attribute__((target("avx2"))) void Dequant64Avx2(const int16_t* in,
                                                   const double* table,
                                                   double* out) {
  for (int i = 0; i < 64; i += 8) {
    const __m128i raw =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + i));
    const __m256i i32 = _mm256_cvtepi16_epi32(raw);
    const __m256d lo = _mm256_cvtepi32_pd(_mm256_castsi256_si128(i32));
    const __m256d hi = _mm256_cvtepi32_pd(_mm256_extracti128_si256(i32, 1));
    _mm256_storeu_pd(out + i, _mm256_mul_pd(lo, _mm256_loadu_pd(table + i)));
    _mm256_storeu_pd(out + i + 4,
                     _mm256_mul_pd(hi, _mm256_loadu_pd(table + i + 4)));
  }
}

/// The scalar per-pixel double sequence on four pixels, truncated to int32.
__attribute__((target("avx2"))) inline void YcbcrToRgb4Avx2(
    __m128i y32, __m128i cb32, __m128i cr32, __m128i* r, __m128i* g,
    __m128i* b) {
  const __m256d luma = _mm256_cvtepi32_pd(y32);
  const __m256d u =
      _mm256_sub_pd(_mm256_cvtepi32_pd(cb32), _mm256_set1_pd(128.0));
  const __m256d v =
      _mm256_sub_pd(_mm256_cvtepi32_pd(cr32), _mm256_set1_pd(128.0));
  *r = _mm256_cvttpd_epi32(
      _mm256_add_pd(luma, _mm256_mul_pd(_mm256_set1_pd(1.403), v)));
  *g = _mm256_cvttpd_epi32(_mm256_sub_pd(
      _mm256_sub_pd(luma, _mm256_mul_pd(_mm256_set1_pd(0.344), u)),
      _mm256_mul_pd(_mm256_set1_pd(0.714), v)));
  *b = _mm256_cvttpd_epi32(
      _mm256_add_pd(luma, _mm256_mul_pd(_mm256_set1_pd(1.773), u)));
}

/// The SSE4.1 row loop around the AVX2 four-pixel kernel (a template
/// shared by both tiers would compile both for a single target).
__attribute__((target("avx2"))) void YcbcrToRgbRowAvx2(
    const int16_t* y, const int16_t* cb, const int16_t* cr, int width,
    uint8_t* rgb) {
  int x = 0;
  for (; x + 16 <= width; x += 16) {
    __m128i y32[4], cb32[4], cr32[4], r[4], g[4], b[4];
    WidenYcbcr16(y + x, cb + x / 2, cr + x / 2, y32, cb32, cr32);
    for (int i = 0; i < 4; ++i) {
      YcbcrToRgb4Avx2(y32[i], cb32[i], cr32[i], &r[i], &g[i], &b[i]);
    }
    StoreRgb16(r, g, b, rgb + 3 * x);
  }
  YcbcrToRgbRowScalar(y + x, cb + x / 2, cr + x / 2, width - x, rgb + 3 * x);
}

constexpr DctOps kAvx2DctOps = {IdctAvx2, Dequant64Avx2,
                                Reconstruct8x8Sse41, YcbcrToRgbRowAvx2};

#endif  // COBRA_DCT_SIMD_X86

}  // namespace

const std::array<uint8_t, 64> kZigzagOrder = {
    0,  1,  8,  16, 9,  2,  3,  10, 17, 24, 32, 25, 18, 11, 4,  5,
    12, 19, 26, 33, 40, 48, 41, 34, 27, 20, 13, 6,  7,  14, 21, 28,
    35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51,
    58, 59, 52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63};

const DctOps* DctOpsFor(util::simd::SimdLevel level) {
  using util::simd::SimdLevel;
  if (level == SimdLevel::kScalar) return &kScalarDctOps;
#if COBRA_DCT_SIMD_X86
  if (static_cast<int>(level) >
      static_cast<int>(util::simd::CpuBestLevel())) {
    return nullptr;
  }
  if (level == SimdLevel::kSse41) return &kSse41DctOps;
  if (level == SimdLevel::kAvx2) return &kAvx2DctOps;
#endif
  return nullptr;
}

util::simd::SimdLevel ActiveDctLevel() {
  const int forced = util::simd::ForcedLevel();
  int level = forced < 0 ? static_cast<int>(util::simd::CpuBestLevel()) : forced;
  while (level > 0 &&
         DctOpsFor(static_cast<util::simd::SimdLevel>(level)) == nullptr) {
    --level;
  }
  return static_cast<util::simd::SimdLevel>(level);
}

const DctOps& ActiveDctOps() { return *DctOpsFor(ActiveDctLevel()); }

void ForwardDct(const PixelBlock& in, DctBlock* out) {
  // Separable: rows then columns.
  double tmp[64];
  for (int y = 0; y < 8; ++y) {
    for (int k = 0; k < 8; ++k) {
      double acc = 0.0;
      for (int n = 0; n < 8; ++n) acc += kTables.basis[k][n] * in[y * 8 + n];
      tmp[y * 8 + k] = acc;
    }
  }
  for (int x = 0; x < 8; ++x) {
    for (int k = 0; k < 8; ++k) {
      double acc = 0.0;
      for (int n = 0; n < 8; ++n) acc += kTables.basis[k][n] * tmp[n * 8 + x];
      (*out)[k * 8 + x] = acc;
    }
  }
}

void InverseDct(const DctBlock& in, PixelBlock* out) {
  ActiveDctOps().idct8x8(in.data(), 0xFF, 0xFF, out->data());
}

QuantTableSet MakeQuantTables(int quality) {
  QuantTableSet tables;
  for (int chroma = 0; chroma < 2; ++chroma) {
    const int* base = chroma ? kChromaQuant : kLumaQuant;
    for (int i = 0; i < 64; ++i) {
      const int q = ScaledQuant(base[i], quality);
      tables.quant[chroma][static_cast<size_t>(i)] = q;
      tables.dequant[chroma][static_cast<size_t>(i)] = static_cast<double>(q);
    }
  }
  return tables;
}

void Quantize(const DctBlock& in, const QuantTableSet& tables, bool chroma,
              std::array<int16_t, 64>* out) {
  const std::array<int, 64>& q = tables.quant[chroma ? 1 : 0];
  for (int i = 0; i < 64; ++i) {
    (*out)[static_cast<size_t>(i)] =
        static_cast<int16_t>(std::lround(in[static_cast<size_t>(i)] /
                                         q[static_cast<size_t>(i)]));
  }
}

void Quantize(const DctBlock& in, int quality, bool chroma,
              std::array<int16_t, 64>* out) {
  Quantize(in, MakeQuantTables(quality), chroma, out);
}

void Dequantize(const std::array<int16_t, 64>& in, const QuantTableSet& tables,
                bool chroma, DctBlock* out) {
  ActiveDctOps().dequant64(in.data(), tables.dequant[chroma ? 1 : 0].data(),
                           out->data());
}

void Dequantize(const std::array<int16_t, 64>& in, int quality, bool chroma,
                DctBlock* out) {
  Dequantize(in, MakeQuantTables(quality), chroma, out);
}

void ZigzagScan(const std::array<int16_t, 64>& in,
                std::array<int16_t, 64>* out) {
  for (int i = 0; i < 64; ++i) (*out)[i] = in[kZigzagOrder[i]];
}

}  // namespace cobra::media
