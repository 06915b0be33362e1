#pragma once

/// \file segment.h
/// Writing and reading immutable library segments (DESIGN.md §4h).
///
/// A segment captures one flush window of library state as typed sections
/// (format.h). Column-store tables are persisted as *row deltas* — raw
/// typed arrays plus new dictionary entries and codes for string columns;
/// derived acceleration state (zone maps, NDV sets, code histograms,
/// oid→row indexes, adjacency lists) is never serialized, always rebuilt.
/// The finalized text index is persisted losslessly (exact doubles, raw
/// Posting[]/BlockMeta[] arrays) so a restored library answers queries
/// bit-identically to the one that wrote it; the reader points the
/// restored index's spans straight into the memory mapping (zero-copy).
///
/// Layering: this library sits above storage/text/webspace/core and below
/// the engine — the engine's DurableLibrary assembles LibraryDelta from a
/// DigitalLibrary and reassembles one from RestoredParts.

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/meta_index.h"
#include "storage/segment/format.h"
#include "storage/segment/io.h"
#include "storage/table.h"
#include "text/inverted_index.h"
#include "vision/signature.h"
#include "webspace/schema.h"
#include "webspace/store.h"

namespace cobra::storage::segment {

/// Serialization back door into storage::Table (befriended there): writes
/// row deltas and applies them, reusing the table's own incremental
/// zone-map/NDV maintenance for the derived state.
class TableSerde {
 public:
  /// Serializes rows [from_row, num_rows) of `table`, including the whole
  /// ColumnStats of the post-delta table for load-time verification.
  static Status WriteDelta(const Table& table, int64_t from_row,
                           ByteWriter* out);

  /// Appends a delta onto `table`. The delta must start exactly at the
  /// table's current row count (segments apply in manifest order) and its
  /// schema arity/types must match. Recomputed column stats are verified
  /// against the persisted ones — a mismatch means corruption the CRC
  /// somehow missed, or a delta applied out of order.
  static Status ApplyDelta(Table* table, ByteReader* in);
};

/// One flush window of library state, by reference (the writer does not
/// own anything). Assembled by the engine layer.
struct LibraryDelta {
  int64_t index_epoch = 0;
  const webspace::WebspaceStore* store = nullptr;
  /// Per class/association (schema order): first row of this delta.
  std::vector<int64_t> class_from_rows;
  std::vector<int64_t> assoc_from_rows;
  const core::MetaIndex* meta = nullptr;
  int64_t shots_from_row = 0;
  int64_t objects_from_row = 0;
  int64_t events_from_row = 0;
  /// Oids of videos indexed in this window (suffix of indexed_videos()).
  std::vector<int64_t> new_video_oids;
  /// Full finalized text snapshot; null while the index is still open or
  /// when an earlier segment already persisted it.
  const text::InvertedIndex* text = nullptr;
  /// Interviews added in this window while the index was still open.
  std::vector<std::pair<int64_t, std::string>> pending_interviews;
  /// Shot signature records added in this window, as the chunk spans the
  /// similarity index hands out (similarity::SignatureIndex::OwnedFrom);
  /// concatenated into one kSignatures section.
  std::vector<std::pair<const vision::SignatureRecord*, size_t>>
      signature_chunks;
};

/// Serializes `delta` into a segment file at `path` (atomic write).
Status WriteSegment(const LibraryDelta& delta, const std::string& path);

/// An opened, validated segment. Owns the memory mapping; every view the
/// reader hands out (restored text spans, signature records) borrows from
/// it and dies with it.
class SegmentReader {
 public:
  enum class Verify {
    kFull,  ///< header + section table + every section CRC (default)
    kNone,  ///< header + section table CRCs only (benchmark knob)
  };

  static Result<std::unique_ptr<SegmentReader>> Open(
      const std::string& path, Verify verify = Verify::kFull);

  int64_t index_epoch() const { return index_epoch_; }
  bool text_finalized() const { return text_finalized_; }
  const std::vector<int64_t>& new_video_oids() const {
    return new_video_oids_;
  }
  bool has_section(SectionId id) const;

  /// Applies this segment's webspace delta. On the first segment `schema`
  /// is decoded and the per-class/association tables are created; later
  /// segments verify the schema matches and append.
  Status ApplyWebspace(std::optional<webspace::ConceptSchema>* schema,
                       std::map<std::string, Table>* class_tables,
                       std::map<std::string, Table>* assoc_tables) const;

  /// Applies this segment's meta-index deltas onto the three tables
  /// (created empty via CreateMetaTables()).
  Status ApplyMeta(Table* shots, Table* objects, Table* events) const;

  /// Restores the finalized text index from the kTextIndex snapshot. The
  /// postings/blocks spans point into this reader's mapping (the reader
  /// must outlive the index and every copy of it).
  Result<text::InvertedIndex> LoadTextIndex() const;

  /// Decoded kPendingInterviews (empty when the section is absent).
  Result<std::vector<std::pair<int64_t, std::string>>> PendingInterviews()
      const;

  /// Zero-copy view of this segment's kSignatures section ({nullptr, 0}
  /// when absent). The records live in the mapping — the reader must
  /// outlive every index built on the view.
  Result<std::pair<const vision::SignatureRecord*, size_t>> SignatureChunk()
      const;

  size_t file_size() const { return map_.size(); }

 private:
  SegmentReader() = default;

  Result<ByteReader> Section(SectionId id) const;

  MmapFile map_;
  std::vector<SectionEntry> sections_;
  int64_t index_epoch_ = 0;
  bool text_finalized_ = false;
  std::vector<int64_t> new_video_oids_;
};

/// Empty meta-index tables with the layouts MetaIndex::FromTables expects.
Status CreateMetaTables(Table* shots, Table* objects, Table* events);

/// Everything needed to reassemble a DigitalLibrary from a segment chain.
struct RestoredParts {
  webspace::ConceptSchema schema;
  std::map<std::string, Table> class_tables;
  std::map<std::string, Table> assoc_tables;
  Table shots, objects, events;
  std::vector<int64_t> indexed_videos;
  int64_t index_epoch = 0;
  /// Set when some segment carried a finalized text snapshot; its spans
  /// borrow from that segment's reader.
  std::optional<text::InvertedIndex> text;
  /// Un-finalized interviews to replay, in add order (only populated when
  /// `text` is absent — a snapshot already contains every interview).
  std::vector<std::pair<int64_t, std::string>> pending_interviews;
  /// One zero-copy signature chunk per segment that carried a kSignatures
  /// section, in chain order. The chunks borrow from the readers — the
  /// readers must outlive the library.
  std::vector<std::pair<const vision::SignatureRecord*, size_t>>
      signature_chunks;
};

/// Folds a manifest-ordered segment chain into library parts. The text
/// index borrows from the reader that carried the snapshot — that reader
/// must outlive the restored library.
Result<RestoredParts> RestoreFromSegments(
    const std::vector<const SegmentReader*>& segments);

}  // namespace cobra::storage::segment
