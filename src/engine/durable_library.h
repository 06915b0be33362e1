#pragma once

/// \file durable_library.h
/// Durable persistence for the DigitalLibrary (DESIGN.md §4h).
///
/// A DurableLibrary wraps a DigitalLibrary with an on-disk directory:
///
///   MANIFEST        current segment chain + active WAL (atomic rename)
///   seg-NNNNNN.cseg immutable segments (storage/segment), applied in order
///   wal-NNNNNN.wal  write-ahead log of mutations since the last flush
///
/// Mutations (core::IngestDelta) apply in memory and are framed into the
/// WAL; Flush() folds the window into a new delta segment and starts a
/// fresh WAL; Open() restores the segment chain (text postings mapped
/// zero-copy), replays the WAL's intact prefix, and — when the WAL held
/// anything — immediately flushes so recovery cost stays bounded by one
/// window. Compact() merges the segment *files* into one full snapshot
/// off-lock and publishes it atomically, so queries against the live
/// library never block; superseded mappings are retired but kept alive
/// because a zero-copy restored text index may still point into them.
///
/// Concurrency: queries (through library()) may run concurrently with
/// CompactAsync(). Mutations and Flush are internally thread-safe (any
/// number of writer threads; DESIGN.md §4k): the in-memory apply and the
/// WAL staging happen atomically under one mutation mutex, and the
/// durability wait happens outside it, so concurrent writers' records
/// share WAL group commits (one fdatasync per group, each call still
/// durable on return). Queries concurrent with *mutations* follow the
/// DigitalLibrary contract (not safe) — the serving tier's ingest path
/// double-buffers and publishes through ReloadShard instead.

#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "engine/digital_library.h"
#include "storage/segment/segment.h"
#include "storage/segment/wal.h"
#include "util/thread_pool.h"

namespace cobra::engine {

class DurableLibrary {
 public:
  struct Options {
    /// Section checksum verification of every segment this library opens.
    storage::segment::SegmentReader::Verify verify =
        storage::segment::SegmentReader::Verify::kFull;
  };

  /// Persists `library` in (empty or absent) `dir` as segment 0, next to
  /// an empty WAL — the bulk build: whatever the library already holds is
  /// written once, never logged. FailedPrecondition, with nothing written,
  /// when the library holds interviews it has not finalized (DigitalLibrary
  /// does not keep their text) or signature records borrowed from another
  /// chain's segments (a library restored by CreateFromParts).
  static Result<std::unique_ptr<DurableLibrary>> Create(
      const std::string& dir, std::unique_ptr<DigitalLibrary> library,
      const Options& options);
  static Result<std::unique_ptr<DurableLibrary>> Create(
      const std::string& dir, std::unique_ptr<DigitalLibrary> library);
  /// Create over an empty library on `store`: segment 0 is the full
  /// webspace snapshot.
  static Result<std::unique_ptr<DurableLibrary>> Create(
      const std::string& dir, webspace::WebspaceStore store,
      const Options& options);
  static Result<std::unique_ptr<DurableLibrary>> Create(
      const std::string& dir, webspace::WebspaceStore store);

  /// Restores a library from `dir`: segment chain, then WAL replay.
  /// Unreferenced files (orphans of a crashed flush/compaction) are
  /// removed.
  static Result<std::unique_ptr<DurableLibrary>> Open(
      const std::string& dir, const Options& options);
  static Result<std::unique_ptr<DurableLibrary>> Open(const std::string& dir);

  /// The live library. Queries only — route mutations through Stage or
  /// Apply so they hit the WAL.
  const DigitalLibrary& library() const { return *library_; }

  /// A staged (applied + WAL-framed, not yet durable) mutation. Tickets
  /// keep the WAL generation they were staged into alive, so waiting on a
  /// ticket across a concurrent Flush is safe: the rotation only happens
  /// after the flushed segment made the record durable by other means.
  struct StageTicket {
    std::shared_ptr<storage::segment::GroupCommitWal> wal;
    uint64_t seq = 0;
  };

  /// Two-phase mutation surface (thread-safe; DESIGN.md §4k): Stage()
  /// applies `delta` in memory and frames it into the WAL under one hold
  /// of the mutation mutex (fast, serialized internally), and frames it
  /// only if it applied; WaitDurable() blocks until the frames are on
  /// stable storage. Overlapping many staged deltas before waiting is what
  /// lets the WAL batch them into one group commit. WaitDurable fails
  /// with FailedPrecondition on a ticket whose record was never staged.
  Result<StageTicket> Stage(const core::IngestDelta& delta);
  Status WaitDurable(const StageTicket& ticket);
  /// Stage() + WaitDurable(): durable on return, one fdatasync when no
  /// concurrent writer shares the group.
  Status Apply(const core::IngestDelta& delta);

  /// Folds everything since the last flush into a new segment and starts
  /// a fresh WAL. After Flush returns, the window is durable without the
  /// log.
  Status Flush();

  /// Merges the current segment files into one full snapshot. Reads only
  /// the immutable files (never the live library), so queries proceed
  /// concurrently; the new chain is published atomically under the
  /// manifest lock. Segments flushed while compaction ran are preserved.
  Status Compact();

  /// Runs Compact() on `pool`; at most one compaction at a time.
  Status CompactAsync(util::ThreadPool* pool);
  /// Waits for a CompactAsync and returns its status (OK when none ran).
  Status WaitForCompaction();

  size_t num_segments() const;
  /// WAL telemetry since the last rotation: fdatasync calls and records
  /// committed — the group-size signal the E15 bench reports
  /// (records/sync ≈ achieved commit-group size).
  int64_t wal_sync_calls() const;
  int64_t wal_records_committed() const;

 private:
  DurableLibrary() = default;

  struct Manifest {
    uint64_t next_file_number = 1;
    std::vector<std::string> segments;
    std::string wal;
  };

  static Result<Manifest> ReadManifest(const std::string& dir);
  Status WriteManifestLocked();
  Status FlushLocked();
  /// Applies `delta` to the live library and records an interview as
  /// pending. Callers serialize: Stage holds mutate_mutex_, Open's replay
  /// runs before the library is shared.
  Status ApplyInMemory(const core::IngestDelta& delta);
  /// Sets every flush watermark to the library's current row counts.
  Status SetWatermarksLocked();
  storage::segment::LibraryDelta BuildDeltaLocked(
      const text::InvertedIndex* text) const;

  std::string dir_;
  Options options_;
  std::unique_ptr<DigitalLibrary> library_;

  /// Guards the manifest state (segment chain, readers, file numbering)
  /// against concurrent publication by CompactAsync.
  mutable std::mutex manifest_mutex_;
  Manifest manifest_;
  std::vector<std::unique_ptr<storage::segment::SegmentReader>> readers_;
  /// Superseded by compaction but possibly still backing the live text
  /// index's zero-copy spans; freed only on destruction.
  std::vector<std::unique_ptr<storage::segment::SegmentReader>> retired_;

  /// Serializes the in-memory apply + WAL staging of every mutation (and
  /// excludes them during Flush). Ordered before manifest_mutex_ when both
  /// are taken.
  mutable std::mutex mutate_mutex_;
  std::shared_ptr<storage::segment::GroupCommitWal> wal_;

  // Flush watermarks: rows already persisted by the segment chain.
  std::vector<int64_t> class_flushed_rows_;
  std::vector<int64_t> assoc_flushed_rows_;
  int64_t shots_flushed_rows_ = 0;
  int64_t objects_flushed_rows_ = 0;
  int64_t events_flushed_rows_ = 0;
  size_t videos_flushed_ = 0;
  size_t signatures_flushed_rows_ = 0;
  bool text_persisted_ = false;
  /// Interviews added (pre-finalize) since the last flush.
  std::vector<std::pair<int64_t, std::string>> pending_;

  std::optional<util::TaskGroup> compact_group_;
  std::mutex compact_status_mutex_;
  Status compact_status_;
};

inline Result<std::unique_ptr<DurableLibrary>> DurableLibrary::Create(
    const std::string& dir, std::unique_ptr<DigitalLibrary> library) {
  return Create(dir, std::move(library), Options());
}

inline Result<std::unique_ptr<DurableLibrary>> DurableLibrary::Create(
    const std::string& dir, webspace::WebspaceStore store) {
  return Create(dir, std::move(store), Options());
}

inline Result<std::unique_ptr<DurableLibrary>> DurableLibrary::Open(
    const std::string& dir) {
  return Open(dir, Options());
}

}  // namespace cobra::engine
