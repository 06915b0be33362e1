#pragma once

/// \file wal.h
/// Write-ahead log for durable library ingest (DESIGN.md §4h).
///
/// Every library mutation between two segment flushes is one
/// core::IngestDelta, framed into the current WAL file once it applied in
/// memory (DurableLibrary::Stage holds one lock across both steps):
///
///   [u32 payload_len][u32 crc32][u8 type][payload]
///
/// where the CRC covers type + payload. Replay hands the records back as
/// deltas, in order, and stops at the first frame that is truncated or
/// fails its checksum — the accepted crash semantics: a torn tail is the
/// operation that never happened. A Flush writes a segment covering
/// everything the WAL held and starts a fresh log, so recovery cost is
/// bounded by one flush window.

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/ingest_delta.h"
#include "core/video_description.h"
#include "storage/segment/format.h"
#include "storage/segment/io.h"
#include "util/status.h"

namespace cobra::storage::segment {

/// Frame tags. A kVideo delta with signatures is two frames (kAddVideo,
/// then kAddSignatures), each with its own sequence number, and replays as
/// a kVideo delta without signatures followed by a kSignatures delta.
enum class WalRecordType : uint8_t {
  kAddInterview = 1,   ///< i64 oid, string text
  kFinalizeText = 2,   ///< empty payload
  kAddVideo = 3,       ///< serialized core::VideoDescription
  kAddSignatures = 4,  ///< i64 video_id, u64 count, SignatureRecord[count]
};

/// The write-ahead log writer, with group commit (DESIGN.md §4k). Any
/// number of threads may stage deltas concurrently; each record lands in
/// the file as one frame of the layout in the file comment, which
/// ReplayWal reads back.
///
/// The two-phase surface is what lets callers overlap durability waits:
///   seq = Stage(delta)    // frames + orders the delta; returns at once
///   WaitDurable(seq)      // blocks until the delta is on stable storage
/// Stage order IS file order (staging appends to the shared group buffer
/// under the log mutex), so callers that need replay order to match an
/// in-memory apply order stage under the same lock that applies. A waiter
/// finding no leader becomes one: it writes everything staged so far as
/// one batch with a single write + fdatasync, and every record in that
/// batch is durable when it returns. One Stage + WaitDurable per record
/// is therefore one fdatasync per record.
///
/// Error handling is sticky: once an append or sync fails, the error is
/// returned from every subsequent Stage/WaitDurable — a WAL that lost a
/// write cannot accept acknowledged records behind the hole.
class GroupCommitWal {
 public:
  static Result<std::unique_ptr<GroupCommitWal>> Open(const std::string& path);

  /// Stages the frames of one delta; returns the sequence number of its
  /// last frame (sequence numbers count frames, 1-based).
  Result<uint64_t> Stage(const core::IngestDelta& delta);

  /// Blocks until record `seq` is synced. The calling thread may be
  /// elected group leader and perform the batched write + fdatasync
  /// itself. FailedPrecondition when `seq` was never staged.
  Status WaitDurable(uint64_t seq);

  /// Bytes known synced — the crash-test truncation watermark: a file
  /// truncated at or past this offset replays every acknowledged record.
  int64_t durable_bytes();
  /// fdatasync calls and records committed so far (group-size telemetry).
  int64_t sync_calls();
  int64_t records_committed();

 private:
  GroupCommitWal() = default;

  AppendFile file_;

  std::mutex mutex_;
  std::condition_variable group_cv_;
  std::vector<uint8_t> staged_;    ///< framed records awaiting the leader
  uint64_t staged_seq_ = 0;        ///< records staged so far
  uint64_t durable_seq_ = 0;       ///< records durable so far
  bool leader_active_ = false;
  int64_t durable_bytes_ = 0;
  int64_t sync_calls_ = 0;
  Status io_error_;                ///< sticky first IO failure
};

/// Serializes a VideoDescription (shared by the WAL and tests).
void EncodeVideoDescription(const core::VideoDescription& desc,
                            ByteWriter* out);
Result<core::VideoDescription> DecodeVideoDescription(ByteReader* in);

/// Replays `path`: returns the delta of every intact record in order,
/// silently dropping the torn tail (truncated or checksum-failing frame and
/// everything after it). A missing file replays as empty.
Result<std::vector<core::IngestDelta>> ReplayWal(const std::string& path);

}  // namespace cobra::storage::segment
