#pragma once

/// \file postings_codec.h
/// Compressed postings lists: delta-encoded doc ids (varbyte) plus
/// fixed-point tf weights, augmented with fixed-size *skip blocks* — per
/// block of `kBlockSize` postings the encoder records the byte offset, the
/// last doc id and the maximum weight. A cursor can then jump whole blocks
/// without decoding (`SkipTo`), and a block-max evaluator can prove that a
/// block cannot contribute a competitive score before touching its bytes.
/// Ref [1] runs IR inside a main-memory DBMS where postings size directly
/// bounds the collections that fit; E10 measures the size/latency trade-off
/// against the uncompressed index.

#include <cstdint>
#include <vector>

#include "util/status.h"

namespace cobra::text {

/// One decoded posting.
struct DecodedPosting {
  int64_t doc_id = 0;
  double weight = 0.0;
};

/// Compressed, immutable postings list.
///
/// Layout: per posting, varbyte(doc id delta) then varbyte(weight scaled to
/// 1/1024 fixed point). Doc ids must be strictly increasing. Every
/// `kBlockSize` postings form a skip block described by a `SkipBlock`
/// entry; the entries live uncompressed beside the byte stream (a few
/// dozen bytes per ~64 postings).
class CompressedPostings {
 public:
  /// Postings per skip block. Small enough that an in-block linear decode
  /// is cheap, large enough that the skip table stays tiny.
  static constexpr size_t kBlockSize = 64;

  /// Skip-table entry for one block of up to kBlockSize postings.
  struct SkipBlock {
    size_t byte_offset = 0;   ///< where the block's first varbyte starts
    int64_t prev_doc = -1;    ///< delta origin: last doc id before the block
    int64_t last_doc = 0;     ///< last doc id inside the block
    double max_weight = 0.0;  ///< max decoded (quantized) weight in block
  };

  /// Encodes postings (must be sorted by strictly increasing doc_id,
  /// weights non-negative).
  static Result<CompressedPostings> Encode(
      const std::vector<DecodedPosting>& postings);

  /// Reassembles a list from raw parts, e.g. bytes read back from storage.
  /// The bytes are deliberately NOT validated here — cursors fail fast on
  /// truncated or corrupt input instead (see Cursor::ok()).
  static CompressedPostings FromRaw(std::vector<uint8_t> bytes,
                                    std::vector<SkipBlock> blocks,
                                    size_t count, double max_weight);

  /// The raw varbyte stream (FromRaw's input, paired with blocks()).
  const uint8_t* data() const { return bytes_.data(); }

  size_t SizeBytes() const { return bytes_.size(); }
  size_t count() const { return count_; }
  size_t num_blocks() const { return blocks_.size(); }
  const std::vector<SkipBlock>& blocks() const { return blocks_; }

  /// Maximum decoded weight over the whole list (0 for an empty list).
  double max_weight() const { return max_weight_; }

  /// Decodes the full list.
  std::vector<DecodedPosting> Decode() const;

  /// Streaming cursor over the compressed bytes (no materialization).
  ///
  /// The cursor fails fast on truncated or corrupt bytes: `Next`/`SkipTo`
  /// return false and `ok()` turns false; it never reads past the byte
  /// buffer and never yields a non-increasing doc id.
  class Cursor {
   public:
    explicit Cursor(const CompressedPostings& postings)
        : postings_(&postings) {}

    bool Next(DecodedPosting* out);

    /// Positions the cursor at the first block whose last doc id is
    /// >= doc_id, without decoding any posting. Returns false (and
    /// exhausts the cursor) when no such block exists. Never moves
    /// backwards.
    bool SeekBlock(int64_t doc_id);

    /// Decodes forward to the first posting with doc id >= doc_id, jumping
    /// whole blocks via the skip table. Returns false when the list has no
    /// such posting (or on corrupt bytes; check ok()).
    bool SkipTo(int64_t doc_id, DecodedPosting* out);

    /// False once truncated or corrupt bytes were detected. A cursor that
    /// ran off a valid list stays ok().
    bool ok() const { return !corrupt_; }

    /// Index of the block the cursor currently points into (meaningful
    /// while not exhausted).
    size_t block() const { return index_ / kBlockSize; }

    /// Number of postings consumed so far (the posting returned by the
    /// last successful Next/SkipTo has index `index() - 1`).
    size_t index() const { return index_; }

    /// Max weight of the current block (0 when exhausted).
    double block_max() const;

    /// Blocks jumped over without decoding any of their postings.
    int64_t blocks_skipped() const { return blocks_skipped_; }

    /// Postings actually decoded (Next calls that returned true).
    int64_t postings_decoded() const { return decoded_; }

   private:
    const CompressedPostings* postings_;
    size_t pos_ = 0;          ///< next byte to decode
    size_t index_ = 0;        ///< postings consumed so far
    int64_t last_doc_ = -1;   ///< matches the encoder's delta origin
    int64_t blocks_skipped_ = 0;
    int64_t decoded_ = 0;
    bool corrupt_ = false;

    void MarkCorrupt();
  };

 private:
  std::vector<uint8_t> bytes_;
  std::vector<SkipBlock> blocks_;
  size_t count_ = 0;
  double max_weight_ = 0.0;
};

}  // namespace cobra::text
