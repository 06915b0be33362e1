#pragma once

/// \file ingest.h
/// Pipelined parallel corpus ingest (DESIGN.md §4k).
///
/// The serial ingest loop — analyze one video through the FDE, append its
/// description, fdatasync, repeat — leaves both the cores and the disk
/// idle: analysis waits on the sync, the sync waits on the next analysis.
/// The CorpusIngestPipeline runs the expensive per-item work (FDE
/// analysis, signature extraction, description construction) for many
/// items concurrently on a util::ThreadPool and *commits* results in
/// submission order, so the produced library is bit-identical to the
/// serial loop for any thread count:
///
///   Submit*()  ->  [bounded window]  ->  analyze on pool  ->  reorder
///   buffer  ->  committer applies in submission order  ->  sink
///
/// Ordering. Every Submit* call takes the next slot of one global
/// submission sequence; a committer role (assumed by whichever worker
/// completes into the frontier, never a dedicated thread) drains the
/// reorder buffer in slot order. Workers finishing out of order park
/// their result and return to the pool.
///
/// Backpressure. At most `window` submitted-but-uncommitted items exist;
/// Submit* blocks past that, bounding the reorder buffer (and the FDE
/// frame caches in flight) no matter how far analysis runs ahead of the
/// durability path.
///
/// Durability batching. The committer applies every contiguous ready
/// result (stage-only, fast) and then issues ONE durability barrier for
/// the batch. Against the group-commit WAL the whole sweep lands in one
/// fdatasync — the batch accumulates while the previous group's leader
/// syncs, which is what keeps sync-durable ingest within a small factor
/// of never syncing at all.
///
/// Errors are sticky: the first analysis or commit failure fails every
/// subsequent Submit*/Finish, and nothing past the failed slot commits
/// (the committed prefix is exactly a prefix of the submission order, and
/// a sink barrier covers all of it).

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <condition_variable>
#include <optional>
#include <string>
#include <vector>

#include "core/ingest_delta.h"
#include "engine/digital_library.h"
#include "engine/durable_library.h"
#include "engine/serving/partition.h"
#include "engine/serving/serving.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace cobra::engine::ingest {

/// One committed unit of corpus growth (core/ingest_delta.h): the type the
/// pipeline produces, every sink applies, and the WAL frames.
using core::IngestDelta;

/// Where committed ingest lands. The pipeline calls Commit from exactly
/// one thread at a time (the current committer), in submission order;
/// Barrier follows each commit sweep and must make everything committed
/// so far durable and/or visible. Implementations need no internal
/// locking against the pipeline — only against their own readers.
class IngestSink {
 public:
  virtual ~IngestSink() = default;
  virtual Status Commit(const IngestDelta& delta) = 0;
  virtual Status Barrier() = 0;
};

/// Sink over an in-memory DigitalLibrary (the oracle arm: applying the
/// same submission sequence here and through any other sink must yield
/// bit-identical answers).
class LibrarySink : public IngestSink {
 public:
  explicit LibrarySink(DigitalLibrary* library) : library_(library) {}
  Status Commit(const IngestDelta& delta) override {
    return library_->Apply(delta);
  }
  Status Barrier() override { return Status::OK(); }

 private:
  DigitalLibrary* library_;
};

/// Sink over a DurableLibrary: Commit is one DurableLibrary::Stage (apply
/// + WAL-frame, no sync), Barrier waits for the newest staged record — one
/// wait per sweep, so the whole sweep shares WAL group commits.
class DurableLibrarySink : public IngestSink {
 public:
  explicit DurableLibrarySink(DurableLibrary* library) : library_(library) {}
  Status Commit(const IngestDelta& delta) override;
  Status Barrier() override;

 private:
  DurableLibrary* library_;
  std::optional<DurableLibrary::StageTicket> last_ticket_;
};

/// Sink that grows a live sharded serving deployment. Each video's (and
/// signature batch's) delta routes to its owning shard
/// (serving::ShardRouter range partitioning); interviews and FinalizeText
/// fan out to every shard (the replicated
/// modality, partition.h). Each shard is double-buffered: commits apply
/// to the build copy, and Barrier publishes it through
/// ServingFrontend::ReloadShardRetiring — the index-epoch seam — then
/// waits for the retired copy's lease before reusing it as the next
/// build copy, so queries racing ingest always read a consistent,
/// unmutated snapshot.
class ShardedIngestSink : public IngestSink {
 public:
  struct Options {
    size_t num_shards = 1;
    serving::ServingConfig serving;
    /// Leave the seed shards' text index open so live kInterview /
    /// kFinalizeText deltas can still replicate in (the interview index
    /// freezes at FinalizeText; text queries fail until it arrives).
    /// Keep the default when the seed corpus already holds every
    /// interview and only videos are ingested live.
    bool finalize_seed_text = true;
  };

  /// Builds the router and both library copies of every shard from
  /// `seed` (identical replay per copy, partition.h), then the frontend
  /// over the serving copies.
  static Result<std::unique_ptr<ShardedIngestSink>> Create(
      const serving::CorpusParts& seed, Options options);

  Status Commit(const IngestDelta& delta) override;
  /// Publishes every shard that changed since its last publish.
  Status Barrier() override;

  serving::ServingFrontend& frontend() { return *frontend_; }
  const serving::ShardRouter& router() const { return router_; }
  size_t num_shards() const { return shards_.size(); }
  /// The currently-served library of `shard` (for the bit-identity gate;
  /// only meaningful once ingest is quiescent).
  const DigitalLibrary& shard_library(size_t shard) const;
  /// Publishes performed across all Barrier calls.
  int64_t publishes() const { return publishes_; }

 private:
  /// One double-buffered shard: lib[front] is served, lib[1 - front] is
  /// the build copy. `log` holds deltas not yet applied to both copies;
  /// `applied[i]` counts this shard's deltas applied to lib[i] since
  /// creation (log.front() is delta number `log_base`).
  struct Shard {
    std::unique_ptr<DigitalLibrary> lib[2];
    size_t front = 0;
    std::deque<IngestDelta> log;
    uint64_t log_base = 0;
    uint64_t applied[2] = {0, 0};
  };

  ShardedIngestSink() = default;

  serving::ShardRouter router_;
  std::vector<Shard> shards_;
  std::unique_ptr<serving::ServingFrontend> frontend_;
  int64_t publishes_ = 0;
};

/// The bounded, backpressured ingest pipeline (file comment above).
class CorpusIngestPipeline {
 public:
  struct Options {
    /// Analysis workers. Null (or an inline single-thread pool) degrades
    /// to the serial loop: Submit* analyzes and commits synchronously.
    util::ThreadPool* pool = nullptr;
    /// Max submitted-but-uncommitted items before Submit* blocks;
    /// 0 = 2 * pool threads + 2.
    size_t window = 0;
  };

  struct Stats {
    int64_t submitted = 0;
    int64_t committed = 0;
    /// Commit sweeps (== sink Barrier calls): committed / sweeps is the
    /// achieved durability-batch size.
    int64_t sweeps = 0;
  };

  CorpusIngestPipeline(IngestSink* sink, Options options);
  /// Finish() must have been called (and is called defensively here,
  /// discarding its status).
  ~CorpusIngestPipeline();

  /// Cheap items: no analysis, ready to commit at submission. They enter
  /// the reorder buffer directly on the submitting thread and the
  /// committer role is scheduled onto the pool, so the submitter keeps
  /// staging while a sweep's durability barrier is in flight — this is
  /// where durability batches larger than one record come from even with
  /// a single worker thread.
  Status SubmitInterview(int64_t oid, std::string text);
  Status SubmitFinalizeText();
  /// Expensive items: `analyze` runs on the pool and returns the video's
  /// delta (description + signatures). It must be self-contained — it
  /// runs concurrently with other analyses and must not touch the sink
  /// or any shared mutable state.
  Status SubmitVideo(std::function<Result<IngestDelta>()> analyze);

  /// Drains: blocks until everything submitted is committed (or the
  /// sticky error is returned). The pipeline is reusable afterwards.
  Status Finish();

  Stats stats() const;

 private:
  Status Submit(std::function<Result<IngestDelta>()> produce);
  /// Places an already-produced delta straight into the reorder buffer
  /// and makes sure a committer is active or scheduled (inline when the
  /// pool cannot run one — the serial degradation).
  Status SubmitReady(IngestDelta delta);
  /// With `lock` held: assume the committer role if it is free and the
  /// commit frontier is ready; drains every contiguous ready result per
  /// sweep, committing with the lock released.
  void CommitReadyLocked(std::unique_lock<std::mutex>& lock);

  IngestSink* sink_;
  Options options_;
  size_t window_ = 0;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::map<uint64_t, Result<IngestDelta>> ready_;  ///< reorder buffer
  uint64_t next_submit_ = 0;
  uint64_t next_commit_ = 0;
  bool committer_active_ = false;
  bool committer_pending_ = false;  ///< a scheduled committer task exists
  Status error_;
  int64_t committed_ = 0;
  int64_t sweeps_ = 0;
  std::optional<util::TaskGroup> group_;
};

}  // namespace cobra::engine::ingest
