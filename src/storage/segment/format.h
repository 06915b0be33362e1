#pragma once

/// \file format.h
/// On-disk layout of the immutable COBRA segment files (DESIGN.md §4h).
///
/// A segment is the unit of durable library state: a page-aligned,
/// checksummed container of typed sections. The file starts with a 64-byte
/// header, followed by the section table (one 32-byte entry per section),
/// followed by the section payloads, each aligned to a 4096-byte page so a
/// memory-mapped reader can hand out naturally aligned typed views (e.g.
/// raw `Posting[]` arrays) straight into the mapping.
///
///   [FileHeader 64B][SectionEntry * N][pad][section 0][pad][section 1]...
///
/// Integrity: every section payload carries a CRC-32; the section table
/// and the header each carry their own CRC-32. A reader rejects any
/// mismatch with a Status — corrupt bytes must never reach the zero-copy
/// views. All integers are little-endian (asserted at build time on the
/// only platforms we target).

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "util/status.h"

namespace cobra::storage::segment {

/// "COBRASEG" as a little-endian u64.
inline constexpr uint64_t kSegmentMagic = 0x4745534152424F43ull;
inline constexpr uint32_t kFormatVersion = 1;
/// Section payload alignment: one page, so mapped views of POD arrays are
/// page-aligned and a cold open touches no payload page it does not read.
inline constexpr uint64_t kPageSize = 4096;

/// Section types. Values are part of the on-disk format; never reuse.
enum class SectionId : uint32_t {
  /// Epoch, flags and the oids of videos indexed in this segment's window.
  kLibraryMeta = 1,
  /// Concept schema + per-class/per-association table row deltas.
  kWebspace = 2,
  /// Meta-index table row deltas.
  kShotsDelta = 3,
  kObjectsDelta = 4,
  kEventsDelta = 5,
  /// Lossless full snapshot of the finalized interview text index:
  /// doc norms plus per-term idf/max_weight and raw Posting[]/BlockMeta[]
  /// arrays, mapped back zero-copy.
  kTextIndex = 6,
  // Id 7 is reserved: older segments carry a delta+varbyte copy of the
  // kTextIndex postings under it. Readers CRC-check that section like any
  // other, then ignore it; Compact() drops it. Never reuse the id.
  /// Interviews added but not yet finalized: replayed on restore when no
  /// newer segment carries a kTextIndex snapshot.
  kPendingInterviews = 8,
  /// Per-shot perceptual signature records added in this segment's window
  /// (vision::SignatureRecord[], 64-aligned): u64 count, pad, raw array —
  /// mapped back as a zero-copy base chunk of the similarity index
  /// (DESIGN.md §4j).
  kSignatures = 9,
};

/// 64-byte file header. `header_crc` covers the header bytes with the
/// field itself zeroed.
struct FileHeader {
  uint64_t magic = kSegmentMagic;
  uint32_t version = kFormatVersion;
  uint32_t flags = 0;
  uint32_t section_count = 0;
  uint32_t header_crc = 0;
  uint64_t file_size = 0;
  uint64_t section_table_offset = 0;
  uint32_t section_table_crc = 0;
  uint32_t reserved0 = 0;
  uint64_t reserved1 = 0;
  uint64_t reserved2 = 0;
};
static_assert(std::is_trivially_copyable_v<FileHeader> &&
                  sizeof(FileHeader) == 64,
              "FileHeader is persisted as raw bytes");

/// 32-byte section table entry. `crc32` covers the payload bytes.
struct SectionEntry {
  uint32_t id = 0;
  uint32_t reserved = 0;
  uint64_t offset = 0;
  uint64_t size = 0;
  uint32_t crc32 = 0;
  uint32_t reserved2 = 0;
};
static_assert(std::is_trivially_copyable_v<SectionEntry> &&
                  sizeof(SectionEntry) == 32,
              "SectionEntry is persisted as raw bytes");

/// Append-only little-endian byte buffer used to build section payloads.
class ByteWriter {
 public:
  void PutU8(uint8_t v) { buf_.push_back(v); }
  void PutU32(uint32_t v) { PutRaw(&v, sizeof(v)); }
  void PutU64(uint64_t v) { PutRaw(&v, sizeof(v)); }
  void PutI64(int64_t v) { PutRaw(&v, sizeof(v)); }
  void PutDouble(double v) { PutRaw(&v, sizeof(v)); }
  /// u32 length + bytes.
  void PutString(const std::string& s) {
    PutU32(static_cast<uint32_t>(s.size()));
    PutRaw(s.data(), s.size());
  }
  void PutRaw(const void* data, size_t size) {
    if (size == 0) return;  // empty columns may hand out a null data()
    const auto* p = static_cast<const uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + size);
  }
  /// Zero-pads so the next byte lands on a multiple of `alignment`
  /// *relative to the buffer start* (sections are page-aligned in the
  /// file, so this is also the absolute alignment in the mapping).
  void Align(size_t alignment) {
    while (buf_.size() % alignment != 0) buf_.push_back(0);
  }

  size_t size() const { return buf_.size(); }
  const std::vector<uint8_t>& buffer() const { return buf_; }

 private:
  std::vector<uint8_t> buf_;
};

/// Bounds-checked little-endian reader over one section payload. Every
/// getter fails (sticky) instead of reading out of bounds; callers check
/// `ok()` (or each getter's return) before trusting values.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  bool GetU8(uint8_t* v) { return GetRaw(v, sizeof(*v)); }
  bool GetU32(uint32_t* v) { return GetRaw(v, sizeof(*v)); }
  bool GetU64(uint64_t* v) { return GetRaw(v, sizeof(*v)); }
  bool GetI64(int64_t* v) { return GetRaw(v, sizeof(*v)); }
  bool GetDouble(double* v) { return GetRaw(v, sizeof(*v)); }
  bool GetString(std::string* s) {
    uint32_t len = 0;
    if (!GetU32(&len)) return false;
    if (len > size_ - pos_) return Fail();
    s->assign(reinterpret_cast<const char*>(data_ + pos_), len);
    pos_ += len;
    return true;
  }
  bool GetRaw(void* out, size_t size) {
    if (size > size_ - pos_) return Fail();
    if (size > 0) std::memcpy(out, data_ + pos_, size);
    pos_ += size;
    return true;
  }
  /// Borrows `size` bytes in place (zero-copy view into the mapping).
  bool GetView(size_t size, const uint8_t** out) {
    if (size > size_ - pos_) return Fail();
    *out = data_ + pos_;
    pos_ += size;
    return true;
  }
  bool SkipAlign(size_t alignment) {
    while (pos_ % alignment != 0) {
      uint8_t pad;
      if (!GetU8(&pad)) return false;
    }
    return true;
  }

  bool ok() const { return ok_; }
  size_t pos() const { return pos_; }
  size_t remaining() const { return size_ - pos_; }

  Status CorruptIf(bool also, const char* what) const {
    if (ok_ && !also) return Status::OK();
    return Status::InvalidArgument(std::string("corrupt segment section: ") +
                                   what);
  }

 private:
  bool Fail() {
    ok_ = false;
    pos_ = size_;
    return false;
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace cobra::storage::segment
