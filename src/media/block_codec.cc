#include "media/block_codec.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "media/dct.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace cobra::media {

namespace {

constexpr int kMb = 16;  // macroblock size in luma samples

/// One padded image plane of 16-bit samples.
struct Plane {
  int width = 0;
  int height = 0;
  std::vector<int16_t> samples;

  void Resize(int w, int h) {
    width = w;
    height = h;
    samples.assign(static_cast<size_t>(w) * h, 0);
  }
  int16_t At(int x, int y) const {
    return samples[static_cast<size_t>(y) * width + x];
  }
  void Set(int x, int y, int16_t v) {
    samples[static_cast<size_t>(y) * width + x] = v;
  }
  const int16_t* Row(int y) const {
    return samples.data() + static_cast<size_t>(y) * width;
  }
  int16_t* Row(int y) {
    return samples.data() + static_cast<size_t>(y) * width;
  }
};

struct Planes {
  Plane y, cb, cr;

  /// Sizes the planes for a padded luma_w x luma_h frame, reallocating only
  /// when the size changes; the caller overwrites every sample.
  void Allocate(int luma_w, int luma_h) {
    if (y.width == luma_w && y.height == luma_h) return;
    y.Resize(luma_w, luma_h);
    cb.Resize(luma_w / 2, luma_h / 2);
    cr.Resize(luma_w / 2, luma_h / 2);
  }
};

int PadTo(int v, int multiple) {
  return (v + multiple - 1) / multiple * multiple;
}

int16_t ClampSample(double v) {
  return static_cast<int16_t>(std::clamp(v, 0.0, 255.0));
}

/// RGB -> padded YCbCr 4:2:0 planes (BT.601 full range, edge-replicated
/// padding).
void FrameToPlanes(const Frame& frame, Planes* out) {
  const int luma_w = PadTo(frame.width(), kMb);
  const int luma_h = PadTo(frame.height(), kMb);
  out->Allocate(luma_w, luma_h);

  for (int y = 0; y < luma_h; ++y) {
    int sy = std::min(y, frame.height() - 1);
    for (int x = 0; x < luma_w; ++x) {
      int sx = std::min(x, frame.width() - 1);
      const Rgb& p = frame.At(sx, sy);
      double luma = 0.299 * p.r + 0.587 * p.g + 0.114 * p.b;
      out->y.Set(x, y, ClampSample(luma));
    }
  }
  for (int y = 0; y < luma_h / 2; ++y) {
    for (int x = 0; x < luma_w / 2; ++x) {
      double sum_cb = 0.0, sum_cr = 0.0;
      for (int dy = 0; dy < 2; ++dy) {
        for (int dx = 0; dx < 2; ++dx) {
          int sx = std::min(2 * x + dx, frame.width() - 1);
          int sy = std::min(2 * y + dy, frame.height() - 1);
          const Rgb& p = frame.At(sx, sy);
          double luma = 0.299 * p.r + 0.587 * p.g + 0.114 * p.b;
          sum_cb += 128.0 + 0.564 * (p.b - luma);
          sum_cr += 128.0 + 0.713 * (p.r - luma);
        }
      }
      out->cb.Set(x, y, ClampSample(sum_cb / 4.0));
      out->cr.Set(x, y, ClampSample(sum_cr / 4.0));
    }
  }
}

static_assert(sizeof(Rgb) == 3, "Frame rows must be packed RGB24");

Frame PlanesToFrame(const Planes& planes, int width, int height,
                    const DctOps& ops) {
  Frame frame(width, height);
  for (int y = 0; y < height; ++y) {
    ops.ycbcr_to_rgb_row(planes.y.Row(y), planes.cb.Row(y / 2),
                         planes.cr.Row(y / 2), width,
                         reinterpret_cast<uint8_t*>(frame.Row(y)));
  }
  return frame;
}

// ---------- bitstream helpers ----------

void PutVarint(int32_t value, std::vector<uint8_t>* out) {
  uint32_t zz = (static_cast<uint32_t>(value) << 1) ^
                static_cast<uint32_t>(value >> 31);
  while (zz >= 0x80) {
    out->push_back(static_cast<uint8_t>(zz) | 0x80);
    zz >>= 7;
  }
  out->push_back(static_cast<uint8_t>(zz));
}

bool GetVarint(const uint8_t* in, size_t size, size_t* pos, int32_t* value) {
  uint32_t zz = 0;
  int shift = 0;
  while (*pos < size && shift <= 28) {
    uint8_t byte = in[(*pos)++];
    zz |= static_cast<uint32_t>(byte & 0x7F) << shift;
    if (!(byte & 0x80)) {
      *value = static_cast<int32_t>((zz >> 1) ^ (~(zz & 1) + 1));
      return true;
    }
    shift += 7;
  }
  return false;
}

constexpr uint8_t kEob = 0xFF;

/// RLE-encodes a zigzagged quantized block. Returns true if any coefficient
/// is nonzero (i.e. the block must be present in the stream).
bool EncodeBlock(const std::array<int16_t, 64>& zz, std::vector<uint8_t>* out) {
  bool any = false;
  int run = 0;
  for (int i = 0; i < 64; ++i) {
    if (zz[i] == 0) {
      ++run;
      continue;
    }
    out->push_back(static_cast<uint8_t>(run));
    PutVarint(zz[i], out);
    run = 0;
    any = true;
  }
  out->push_back(kEob);
  return any;
}

/// Parses one RLE-coded block straight into natural (row-major) order, so
/// no unscan follows, and marks in `row_mask` / `col_mask` the rows and
/// columns that received a level. `levels` must be all zero on entry.
bool DecodeBlock(const uint8_t* in, size_t size, size_t* pos,
                 int16_t* levels, uint8_t* row_mask, uint8_t* col_mask) {
  uint8_t rows = 0, cols = 0;
  int i = 0;
  while (*pos < size) {
    uint8_t run = in[(*pos)++];
    if (run == kEob) {
      *row_mask = rows;
      *col_mask = cols;
      return true;
    }
    i += run;
    int32_t level;
    if (i >= 64 || !GetVarint(in, size, pos, &level)) return false;
    const int at = kZigzagOrder[static_cast<size_t>(i)];
    levels[at] = static_cast<int16_t>(level);
    rows |= static_cast<uint8_t>(1 << (at / 8));
    cols |= static_cast<uint8_t>(1 << (at % 8));
    ++i;
  }
  return false;
}

// ---------- block transform round trip ----------

/// Quantizes an 8x8 sample/residual block; returns zigzagged levels and the
/// reconstructed (dequantized) samples the reference must hold.
void CodeBlock(const PixelBlock& input, const QuantTableSet& tables,
               bool chroma, std::array<int16_t, 64>* zz_out,
               PixelBlock* recon_out) {
  DctBlock coeffs;
  ForwardDct(input, &coeffs);
  std::array<int16_t, 64> quantized;
  Quantize(coeffs, tables, chroma, &quantized);
  ZigzagScan(quantized, zz_out);
  DctBlock dequantized;
  Dequantize(quantized, tables, chroma, &dequantized);
  InverseDct(dequantized, recon_out);
}

/// Where an 8x8 block's prediction comes from: a row pointer and the
/// distance between its rows.
struct Prediction {
  const int16_t* row0;
  ptrdiff_t stride;
};

/// Intra blocks predict mid-grey: one row of 128s read with stride 0.
constexpr int16_t kMidGreyRow[8] = {128, 128, 128, 128,
                                    128, 128, 128, 128};
constexpr Prediction kIntraPrediction = {kMidGreyRow, 0};

/// Inter and SKIP blocks predict from the reference plane in place at the
/// motion-compensated position (x, y), which must lie inside the plane.
Prediction MotionPrediction(const Plane& reference, int x, int y) {
  return {reference.Row(y) + x, reference.width};
}

/// The residual of blocks outside the coded-block pattern (and of SKIP).
constexpr PixelBlock kZeroResidual{};

/// Writes prediction + residual, clamped to [0, 255], into the 8x8 block at
/// (bx, by) of `out`: the one reconstruction path, shared by the encoder's
/// closed loop and the decoder.
void Reconstruct(const DctOps& ops, const int16_t* residual,
                 const Prediction& prediction, Plane* out, int bx, int by) {
  ops.reconstruct8x8(residual, prediction.row0, prediction.stride,
                     out->Row(by) + bx, out->width);
}

/// Mean absolute difference per pixel between a 16x16 luma block and the
/// reference at an offset.
double MbSad(const Plane& cur, const Plane& ref, int mbx, int mby, int mvx,
             int mvy) {
  int64_t sad = 0;
  for (int y = 0; y < kMb; ++y) {
    for (int x = 0; x < kMb; ++x) {
      sad += std::abs(cur.At(mbx + x, mby + y) -
                      ref.At(mbx + x + mvx, mby + y + mvy));
    }
  }
  return static_cast<double>(sad) / (kMb * kMb);
}

enum MbMode : uint8_t { kSkip = 0, kInter = 1, kIntra = 2 };

/// The six 8x8 blocks of a macroblock: 4 luma, then Cb, Cr.
struct BlockRef {
  Plane Planes::*plane;
  int dx, dy;   ///< offset inside the macroblock, plane-local
  bool chroma;
};
constexpr BlockRef kMbBlocks[6] = {
    {&Planes::y, 0, 0, false}, {&Planes::y, 8, 0, false},
    {&Planes::y, 0, 8, false}, {&Planes::y, 8, 8, false},
    {&Planes::cb, 0, 0, true}, {&Planes::cr, 0, 0, true},
};

}  // namespace

// ---------- encoder ----------

int64_t EncodedVideo::TotalBytes() const {
  int64_t total = 0;
  for (const auto& f : frames_) total += static_cast<int64_t>(f.size());
  return total;
}

double EncodedVideo::CompressionRatio() const {
  double raw = static_cast<double>(width_) * height_ * 3 *
               static_cast<double>(frames_.size());
  int64_t coded = TotalBytes();
  return coded > 0 ? raw / static_cast<double>(coded) : 0.0;
}

namespace {

void PutU32(uint32_t v, std::vector<uint8_t>* out) {
  out->push_back(static_cast<uint8_t>(v));
  out->push_back(static_cast<uint8_t>(v >> 8));
  out->push_back(static_cast<uint8_t>(v >> 16));
  out->push_back(static_cast<uint8_t>(v >> 24));
}

bool GetU32(const std::vector<uint8_t>& in, size_t* pos, uint32_t* v) {
  if (*pos + 4 > in.size()) return false;
  *v = static_cast<uint32_t>(in[*pos]) |
       (static_cast<uint32_t>(in[*pos + 1]) << 8) |
       (static_cast<uint32_t>(in[*pos + 2]) << 16) |
       (static_cast<uint32_t>(in[*pos + 3]) << 24);
  *pos += 4;
  return true;
}

constexpr uint32_t kStreamMagic = 0xC0B7A01;

}  // namespace

void EncodedVideo::BuildGopIndex() {
  gops_.clear();
  int64_t offset = 0;
  for (size_t f = 0; f < frames_.size(); ++f) {
    const bool intra = !frames_[f].empty() && frames_[f][0] == 'I';
    // Frame 0 opens the first GOP even if its marker is corrupt; the decoder
    // reports the ParseError, the index just has to partition the frames.
    if (intra || gops_.empty()) {
      gops_.push_back(GopIndexEntry{static_cast<int64_t>(f), 0, offset});
    }
    ++gops_.back().num_frames;
    offset += static_cast<int64_t>(frames_[f].size());
  }
}

int64_t EncodedVideo::GopOfFrame(int64_t frame) const {
  // First GOP whose first_frame is > frame, minus one.
  int64_t lo = 0, hi = NumGops() - 1;
  while (lo < hi) {
    const int64_t mid = (lo + hi + 1) / 2;
    if (gops_[static_cast<size_t>(mid)].first_frame <= frame) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  return lo;
}

std::vector<uint8_t> EncodedVideo::Serialize() const {
  std::vector<uint8_t> out;
  PutU32(kStreamMagic, &out);
  PutU32(static_cast<uint32_t>(width_), &out);
  PutU32(static_cast<uint32_t>(height_), &out);
  PutU32(static_cast<uint32_t>(fps_ * 1000.0), &out);
  PutU32(static_cast<uint32_t>(config_.gop_size), &out);
  PutU32(static_cast<uint32_t>(config_.quality), &out);
  PutU32(static_cast<uint32_t>(frames_.size()), &out);
  for (size_t f = 0; f < frames_.size(); ++f) {
    PutU32(static_cast<uint32_t>(frames_[f].size()), &out);
    out.insert(out.end(), frames_[f].begin(), frames_[f].end());
    const CodedFrameStats& s = stats_[f];
    out.push_back(s.intra_frame ? 1 : 0);
    PutU32(static_cast<uint32_t>(s.mean_motion * 1000.0), &out);
    PutU32(static_cast<uint32_t>(s.intra_block_ratio * 10000.0), &out);
  }
  return out;
}

Result<EncodedVideo> EncodedVideo::Deserialize(
    const std::vector<uint8_t>& bytes) {
  size_t pos = 0;
  uint32_t magic, width, height, fps_milli, gop, quality, num_frames;
  if (!GetU32(bytes, &pos, &magic) || magic != kStreamMagic) {
    return Status::ParseError("bad coded-video magic");
  }
  if (!GetU32(bytes, &pos, &width) || !GetU32(bytes, &pos, &height) ||
      !GetU32(bytes, &pos, &fps_milli) || !GetU32(bytes, &pos, &gop) ||
      !GetU32(bytes, &pos, &quality) || !GetU32(bytes, &pos, &num_frames)) {
    return Status::ParseError("truncated coded-video header");
  }
  if (width == 0 || height == 0 || width > 1u << 16 || height > 1u << 16 ||
      gop == 0 || quality == 0 || quality > 100) {
    return Status::ParseError("implausible coded-video header");
  }
  EncodedVideo out;
  out.width_ = static_cast<int>(width);
  out.height_ = static_cast<int>(height);
  out.fps_ = fps_milli / 1000.0;
  out.config_.gop_size = static_cast<int>(gop);
  out.config_.quality = static_cast<int>(quality);
  for (uint32_t f = 0; f < num_frames; ++f) {
    uint32_t frame_bytes;
    if (!GetU32(bytes, &pos, &frame_bytes) ||
        pos + frame_bytes > bytes.size()) {
      return Status::ParseError("truncated coded frame");
    }
    out.frames_.emplace_back(bytes.begin() + static_cast<long>(pos),
                             bytes.begin() + static_cast<long>(pos + frame_bytes));
    pos += frame_bytes;
    if (pos + 9 > bytes.size()) {
      return Status::ParseError("truncated frame stats");
    }
    CodedFrameStats stats;
    stats.bytes = frame_bytes;
    stats.intra_frame = bytes[pos++] != 0;
    uint32_t motion_milli, ratio_e4;
    (void)GetU32(bytes, &pos, &motion_milli);
    (void)GetU32(bytes, &pos, &ratio_e4);
    stats.mean_motion = motion_milli / 1000.0;
    stats.intra_block_ratio = ratio_e4 / 10000.0;
    out.stats_.push_back(stats);
  }
  if (pos != bytes.size()) {
    return Status::ParseError("trailing bytes after coded video");
  }
  out.BuildGopIndex();
  return out;
}

Result<EncodedVideo> BlockVideoEncoder::Encode(const VideoSource& video,
                                               const CodecConfig& config) {
  if (video.num_frames() == 0) {
    return Status::InvalidArgument("cannot encode an empty video");
  }
  if (config.gop_size < 1 || config.quality < 1 || config.quality > 100 ||
      config.motion_search_range < 0 || config.motion_search_range > 120) {
    return Status::InvalidArgument("invalid codec config");
  }
  EncodedVideo out;
  out.width_ = video.width();
  out.height_ = video.height();
  out.fps_ = video.fps();
  out.config_ = config;
  const QuantTableSet tables = MakeQuantTables(config.quality);

  Planes reference;  // decoded (closed-loop) reference
  bool have_reference = false;

  for (int64_t f = 0; f < video.num_frames(); ++f) {
    COBRA_ASSIGN_OR_RETURN(Frame frame, video.GetFrame(f));
    Planes current;
    FrameToPlanes(frame, &current);
    Planes recon;  // written block by block
    recon.Allocate(current.y.width, current.y.height);
    const DctOps& ops = ActiveDctOps();

    const bool intra_frame = (f % config.gop_size == 0);
    std::vector<uint8_t> bits;
    bits.push_back(intra_frame ? 'I' : 'P');

    CodedFrameStats stats;
    stats.intra_frame = intra_frame;
    int mbs = 0, analysis_intra = 0, inter_mbs = 0;
    double motion_sum = 0.0;

    const int mb_cols = current.y.width / kMb;
    const int mb_rows = current.y.height / kMb;
    for (int mby = 0; mby < mb_rows; ++mby) {
      for (int mbx = 0; mbx < mb_cols; ++mbx) {
        ++mbs;
        const int px = mbx * kMb, py = mby * kMb;

        // Motion estimation (always, for the analysis statistics).
        int best_mvx = 0, best_mvy = 0;
        double best_sad = 1e18, zero_sad = 1e18;
        if (have_reference) {
          const int range = config.motion_search_range;
          for (int mvy = -range; mvy <= range; ++mvy) {
            if (py + mvy < 0 || py + mvy + kMb > reference.y.height) continue;
            for (int mvx = -range; mvx <= range; ++mvx) {
              if (px + mvx < 0 || px + mvx + kMb > reference.y.width) continue;
              double sad = MbSad(current.y, reference.y, px, py, mvx, mvy);
              if (mvx == 0 && mvy == 0) zero_sad = sad;
              if (sad < best_sad ||
                  (sad == best_sad && std::abs(mvx) + std::abs(mvy) <
                                          std::abs(best_mvx) + std::abs(best_mvy))) {
                best_sad = sad;
                best_mvx = mvx;
                best_mvy = mvy;
              }
            }
          }
        }
        const bool analysis_poor = !have_reference || best_sad > config.intra_sad;
        if (analysis_poor) ++analysis_intra;

        // Mode decision for the actual coding.
        MbMode mode;
        if (intra_frame) {
          mode = kIntra;
        } else if (zero_sad < config.skip_sad) {
          mode = kSkip;
        } else if (!analysis_poor) {
          mode = kInter;
        } else {
          mode = kIntra;
        }

        if (mode == kInter) {
          ++inter_mbs;
          motion_sum += std::sqrt(static_cast<double>(best_mvx) * best_mvx +
                                  static_cast<double>(best_mvy) * best_mvy);
        }

        bits.push_back(mode);
        if (mode == kInter) {
          bits.push_back(static_cast<uint8_t>(static_cast<int8_t>(best_mvx)));
          bits.push_back(static_cast<uint8_t>(static_cast<int8_t>(best_mvy)));
        }

        // Code the six blocks (SKIP codes none and predicts at mv 0);
        // collect the coded-block pattern first.
        const int mvx = mode == kInter ? best_mvx : 0;
        const int mvy = mode == kInter ? best_mvy : 0;
        std::array<int16_t, 64> zz[6];
        PixelBlock residual[6] = {};
        Prediction prediction[6];
        uint8_t cbp = 0;
        for (int b = 0; b < 6; ++b) {
          const BlockRef& ref = kMbBlocks[b];
          int bx = (ref.chroma ? mbx * 8 : px) + ref.dx;
          int by = (ref.chroma ? mby * 8 : py) + ref.dy;
          // Motion-compensated prediction (chroma uses mv/2).
          prediction[b] =
              mode == kIntra
                  ? kIntraPrediction
                  : MotionPrediction(reference.*(ref.plane),
                                     bx + (ref.chroma ? mvx / 2 : mvx),
                                     by + (ref.chroma ? mvy / 2 : mvy));
          if (mode == kSkip) continue;

          const Plane& source = current.*(ref.plane);
          PixelBlock input;
          for (int y = 0; y < 8; ++y) {
            const int16_t* src = source.Row(by + y) + bx;
            const int16_t* pred =
                prediction[b].row0 + y * prediction[b].stride;
            for (int x = 0; x < 8; ++x) {
              input[static_cast<size_t>(y * 8 + x)] =
                  static_cast<int16_t>(src[x] - pred[x]);
            }
          }
          CodeBlock(input, tables, ref.chroma, &zz[b], &residual[b]);
          bool nonzero = false;
          for (int16_t v : zz[b]) {
            if (v != 0) {
              nonzero = true;
              break;
            }
          }
          if (nonzero) cbp |= static_cast<uint8_t>(1 << b);
        }
        if (mode != kSkip) {
          bits.push_back(cbp);
          for (int b = 0; b < 6; ++b) {
            if (cbp & (1 << b)) (void)EncodeBlock(zz[b], &bits);
          }
        }

        // Closed-loop reconstruction. A block outside the coded-block
        // pattern quantized to all zeros, so its residual is all zeros.
        for (int b = 0; b < 6; ++b) {
          const BlockRef& ref = kMbBlocks[b];
          int bx = (ref.chroma ? mbx * 8 : px) + ref.dx;
          int by = (ref.chroma ? mby * 8 : py) + ref.dy;
          Reconstruct(ops, residual[b].data(), prediction[b],
                      &(recon.*(ref.plane)), bx, by);
        }
      }
    }

    stats.bytes = bits.size();
    stats.mean_motion = inter_mbs > 0 ? motion_sum / inter_mbs : 0.0;
    stats.intra_block_ratio =
        mbs > 0 ? static_cast<double>(analysis_intra) / mbs : 0.0;
    out.frames_.push_back(std::move(bits));
    out.stats_.push_back(stats);

    reference = std::move(recon);
    have_reference = true;
  }
  out.BuildGopIndex();
  return out;
}

// ---------- decoder ----------

struct CodedVideoSource::DecoderState {
  Planes reference;  ///< frame next_index - 1, when have_reference
  Planes scratch;    ///< the next frame decodes here, then swaps in
  bool have_reference = false;
  int64_t next_index = 0;  ///< the frame DecodeNext would produce
};

CodedVideoSource::CodedVideoSource(EncodedVideo encoded)
    : encoded_(std::move(encoded)),
      quant_tables_(MakeQuantTables(encoded_.config().quality)) {}

CodedVideoSource::~CodedVideoSource() = default;

CodedVideoSource::DecoderState& CodedVideoSource::ThreadState() const {
  const std::thread::id id = std::this_thread::get_id();
  std::lock_guard<std::mutex> lock(states_mutex_);
  std::shared_ptr<DecoderState>& slot = states_[id];
  if (!slot) slot = std::make_shared<DecoderState>();
  // Safe to hand out unlocked: the state is only ever touched by the thread
  // whose id keys it, and map growth does not move existing nodes.
  return *slot;
}

namespace {

/// Decodes one frame's bitstream into `out`, predicting from `reference`
/// (nullptr when there is none: a GOP decode's first frame). Corrupt or
/// hostile input ends in ParseError before any out-of-plane access.
Status DecodeFrameBits(const std::vector<uint8_t>& stream,
                       const QuantTableSet& tables, const DctOps& ops,
                       const Planes* reference, int luma_w, int luma_h,
                       Planes* out) {
  const uint8_t* bits = stream.data();
  const size_t size = stream.size();
  if (size == 0) return Status::ParseError("empty frame bitstream");
  size_t pos = 0;
  const char type = static_cast<char>(bits[pos++]);
  if (type != 'I' && type != 'P') {
    return Status::ParseError("bad frame type marker");
  }
  if (type == 'P' && reference == nullptr) {
    return Status::ParseError("P frame without a reference frame");
  }
  out->Allocate(luma_w, luma_h);

  PixelBlock levels, residual;
  DctBlock coeffs;
  const int mb_cols = luma_w / kMb;
  const int mb_rows = luma_h / kMb;
  for (int mby = 0; mby < mb_rows; ++mby) {
    for (int mbx = 0; mbx < mb_cols; ++mbx) {
      if (pos >= size) return Status::ParseError("truncated stream");
      const int px = mbx * kMb, py = mby * kMb;
      const MbMode mode = static_cast<MbMode>(bits[pos++]);
      if (mode != kSkip && mode != kInter && mode != kIntra) {
        return Status::ParseError("bad macroblock mode");
      }
      if (mode != kIntra && type == 'I') {
        return Status::ParseError("inter MB in I frame");
      }
      int mvx = 0, mvy = 0;
      if (mode == kInter) {
        if (pos + 2 > size) return Status::ParseError("truncated mv");
        mvx = static_cast<int8_t>(bits[pos++]);
        mvy = static_cast<int8_t>(bits[pos++]);
        // The 16x16 luma prediction must lie inside the reference; the
        // chroma blocks at mv/2 (rounded toward zero) then lie inside the
        // chroma planes too.
        if (px + mvx < 0 || py + mvy < 0 || px + mvx + kMb > luma_w ||
            py + mvy + kMb > luma_h) {
          return Status::ParseError("motion vector leaves the reference");
        }
      }
      uint8_t cbp = 0;  // SKIP: no coded blocks, prediction at mv 0
      if (mode != kSkip) {
        if (pos >= size) return Status::ParseError("truncated cbp");
        cbp = bits[pos++];
      }
      for (int b = 0; b < 6; ++b) {
        const BlockRef& ref = kMbBlocks[b];
        int bx = (ref.chroma ? mbx * 8 : px) + ref.dx;
        int by = (ref.chroma ? mby * 8 : py) + ref.dy;
        const int16_t* block_residual = kZeroResidual.data();
        if (cbp & (1 << b)) {
          levels.fill(0);
          uint8_t rows = 0, cols = 0;
          if (!DecodeBlock(bits, size, &pos, levels.data(), &rows, &cols)) {
            return Status::ParseError("corrupt block data");
          }
          ops.dequant64(levels.data(),
                        tables.dequant[ref.chroma ? 1 : 0].data(),
                        coeffs.data());
          ops.idct8x8(coeffs.data(), rows, cols, residual.data());
          block_residual = residual.data();
        }
        const Prediction prediction =
            mode == kIntra
                ? kIntraPrediction
                : MotionPrediction(reference->*(ref.plane),
                                   bx + (ref.chroma ? mvx / 2 : mvx),
                                   by + (ref.chroma ? mvy / 2 : mvy));
        Reconstruct(ops, block_residual, prediction, &(out->*(ref.plane)), bx,
                    by);
      }
    }
  }
  return Status::OK();
}

}  // namespace

Result<Frame> CodedVideoSource::DecodeAt(int64_t index) const {
  const int luma_w = PadTo(encoded_.width(), kMb);
  const int luma_h = PadTo(encoded_.height(), kMb);
  const DctOps& ops = ActiveDctOps();
  DecoderState& state = ThreadState();
  // The cache holds only this thread's most recently decoded frame
  // (next_index - 1). Restart at the target's I-frame when seeking
  // backwards, or when the target's GOP begins after the cache (cheaper
  // than decoding through).
  const int64_t gop_start =
      encoded_.Gops()[static_cast<size_t>(encoded_.GopOfFrame(index))]
          .first_frame;
  if (index + 1 < state.next_index || gop_start > state.next_index) {
    state.next_index = gop_start;
    state.have_reference = false;
  }
  while (state.next_index <= index) {
    COBRA_RETURN_NOT_OK(DecodeFrameBits(
        encoded_.FrameBits(state.next_index), quant_tables_, ops,
        state.have_reference ? &state.reference : nullptr, luma_w, luma_h,
        &state.scratch));
    std::swap(state.reference, state.scratch);
    state.have_reference = true;
    ++state.next_index;
  }
  return PlanesToFrame(state.reference, encoded_.width(), encoded_.height(),
                       ops);
}

Result<std::vector<Frame>> CodedVideoSource::DecodeGop(int64_t gop_index) const {
  if (gop_index < 0 || gop_index >= encoded_.NumGops()) {
    return Status::OutOfRange(
        StringFormat("GOP %lld out of [0, %lld)",
                     static_cast<long long>(gop_index),
                     static_cast<long long>(encoded_.NumGops())));
  }
  const GopIndexEntry& gop = encoded_.Gops()[static_cast<size_t>(gop_index)];
  const int luma_w = PadTo(encoded_.width(), kMb);
  const int luma_h = PadTo(encoded_.height(), kMb);
  const DctOps& ops = ActiveDctOps();
  Planes reference, scratch;  // local: nothing shared, nothing locked
  std::vector<Frame> frames;
  frames.reserve(static_cast<size_t>(gop.num_frames));
  for (int64_t f = gop.first_frame; f < gop.first_frame + gop.num_frames; ++f) {
    COBRA_RETURN_NOT_OK(DecodeFrameBits(
        encoded_.FrameBits(f), quant_tables_, ops,
        f == gop.first_frame ? nullptr : &reference, luma_w, luma_h,
        &scratch));
    std::swap(reference, scratch);
    frames.push_back(PlanesToFrame(reference, encoded_.width(),
                                   encoded_.height(), ops));
  }
  return frames;
}

Result<MemoryVideo> CodedVideoSource::DecodeAll(util::ThreadPool* pool) const {
  std::vector<Frame> frames(static_cast<size_t>(encoded_.num_frames()));
  const int64_t num_gops = encoded_.NumGops();
  std::vector<Status> gop_status(static_cast<size_t>(num_gops), Status::OK());
  const auto decode_one = [&](int64_t g) {
    Result<std::vector<Frame>> decoded = DecodeGop(g);
    if (!decoded.ok()) {
      gop_status[static_cast<size_t>(g)] = decoded.status();
      return;
    }
    const int64_t first =
        encoded_.Gops()[static_cast<size_t>(g)].first_frame;
    std::vector<Frame> got = decoded.TakeValue();
    for (size_t i = 0; i < got.size(); ++i) {
      frames[static_cast<size_t>(first) + i] = std::move(got[i]);
    }
  };
  if (pool != nullptr) {
    pool->ParallelFor(0, num_gops, 1, decode_one);
  } else {
    for (int64_t g = 0; g < num_gops; ++g) decode_one(g);
  }
  for (const Status& s : gop_status) COBRA_RETURN_NOT_OK(s);
  return MemoryVideo(std::move(frames), encoded_.fps());
}

Result<Frame> CodedVideoSource::GetFrame(int64_t index) const {
  if (index < 0 || index >= encoded_.num_frames()) {
    return Status::OutOfRange(
        StringFormat("frame %lld out of range", static_cast<long long>(index)));
  }
  return DecodeAt(index);
}

Result<double> ComputePsnr(const Frame& a, const Frame& b) {
  if (!a.SameSizeAs(b) || a.Empty()) {
    return Status::InvalidArgument("PSNR requires equal non-empty frames");
  }
  double mse = 0.0;
  for (int y = 0; y < a.height(); ++y) {
    for (int x = 0; x < a.width(); ++x) {
      const Rgb& pa = a.At(x, y);
      const Rgb& pb = b.At(x, y);
      double dr = pa.r - static_cast<double>(pb.r);
      double dg = pa.g - static_cast<double>(pb.g);
      double db = pa.b - static_cast<double>(pb.b);
      mse += dr * dr + dg * dg + db * db;
    }
  }
  mse /= static_cast<double>(a.PixelCount()) * 3.0;
  if (mse <= 0.0) return 99.0;
  return 10.0 * std::log10(255.0 * 255.0 / mse);
}

}  // namespace cobra::media
