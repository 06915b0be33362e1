#include "engine/ingest/ingest.h"

#include <thread>
#include <utility>

namespace cobra::engine::ingest {

// ---------------------------------------------------------------------------
// DurableLibrarySink

Status DurableLibrarySink::Commit(const IngestDelta& delta) {
  COBRA_ASSIGN_OR_RETURN(last_ticket_, library_->Stage(delta));
  return Status::OK();
}

Status DurableLibrarySink::Barrier() {
  if (!last_ticket_.has_value()) return Status::OK();
  // The newest staged record covers the sweep: sequence numbers are
  // monotone within a WAL, and records staged into a WAL rotated away by
  // a concurrent Flush are durable through the flushed segment.
  Status status = library_->WaitDurable(*last_ticket_);
  last_ticket_.reset();
  return status;
}

// ---------------------------------------------------------------------------
// ShardedIngestSink

Result<std::unique_ptr<ShardedIngestSink>> ShardedIngestSink::Create(
    const serving::CorpusParts& seed, Options options) {
  if (options.num_shards == 0) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  std::unique_ptr<ShardedIngestSink> out(new ShardedIngestSink());
  out->router_ = serving::ShardRouter(seed.videos, options.num_shards);
  // Two identical replays per shard (partition.h: replaying the same
  // insert sequence is what makes the copies interchangeable).
  COBRA_ASSIGN_OR_RETURN(
      std::vector<std::unique_ptr<DigitalLibrary>> serving_copies,
      serving::BuildShardLibraries(seed, options.num_shards,
                                   options.finalize_seed_text));
  COBRA_ASSIGN_OR_RETURN(
      std::vector<std::unique_ptr<DigitalLibrary>> build_copies,
      serving::BuildShardLibraries(seed, options.num_shards,
                                   options.finalize_seed_text));
  out->shards_.resize(options.num_shards);
  std::vector<const DigitalLibrary*> fronts;
  fronts.reserve(options.num_shards);
  for (size_t s = 0; s < options.num_shards; ++s) {
    out->shards_[s].lib[0] = std::move(serving_copies[s]);
    out->shards_[s].lib[1] = std::move(build_copies[s]);
    out->shards_[s].front = 0;
    fronts.push_back(out->shards_[s].lib[0].get());
  }
  COBRA_ASSIGN_OR_RETURN(
      out->frontend_,
      serving::ServingFrontend::Create(std::move(fronts),
                                       std::move(options.serving)));
  return out;
}

Status ShardedIngestSink::Commit(const IngestDelta& delta) {
  // Videos and signature batches are partitioned; interviews and the
  // finalize barrier are replicated into every shard.
  const bool replicated = delta.kind == IngestDelta::Kind::kInterview ||
                          delta.kind == IngestDelta::Kind::kFinalizeText;
  const size_t owner = replicated ? 0 : router_.ShardOf(delta.video_id());
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (!replicated && s != owner) continue;
    Shard& shard = shards_[s];
    const size_t build = 1 - shard.front;
    // Logged only once applied: a delta that fails leaves no trace for
    // the catch-up replay either.
    COBRA_RETURN_NOT_OK(shard.lib[build]->Apply(delta));
    shard.log.push_back(delta);
    shard.applied[build] = shard.log_base + shard.log.size();
  }
  return Status::OK();
}

Status ShardedIngestSink::Barrier() {
  for (size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = shards_[s];
    const size_t build = 1 - shard.front;
    if (shard.applied[build] == shard.applied[shard.front]) continue;
    std::shared_ptr<const void> retired;
    COBRA_RETURN_NOT_OK(frontend_->ReloadShardRetiring(
        s, shard.lib[build].get(), &retired));
    shard.front = build;
    ++publishes_;
    // The retired copy may still be read by in-flight queries holding the
    // old generation's snapshots; mutate it only once its lease is ours
    // alone. Queries are bounded (deadline or shed), so this drains.
    while (retired.use_count() > 1) std::this_thread::yield();
    // use_count() is a relaxed load; dropping the last reference is an
    // acquire, which orders every former reader's accesses before the
    // catch-up writes below.
    retired.reset();
    const size_t catchup = 1 - shard.front;
    const uint64_t total = shard.log_base + shard.log.size();
    for (uint64_t i = shard.applied[catchup]; i < total; ++i) {
      COBRA_RETURN_NOT_OK(
          shard.lib[catchup]->Apply(shard.log[i - shard.log_base]));
    }
    shard.applied[catchup] = total;
    // Both copies hold everything: the log window is empty.
    shard.log_base = total;
    shard.log.clear();
  }
  return Status::OK();
}

const DigitalLibrary& ShardedIngestSink::shard_library(size_t shard) const {
  return *shards_[shard].lib[shards_[shard].front];
}

// ---------------------------------------------------------------------------
// CorpusIngestPipeline

CorpusIngestPipeline::CorpusIngestPipeline(IngestSink* sink, Options options)
    : sink_(sink), options_(options) {
  const int threads =
      options_.pool != nullptr ? options_.pool->num_threads() : 0;
  window_ = options_.window > 0
                ? options_.window
                : 2 * static_cast<size_t>(threads) + 2;
  group_.emplace(options_.pool);
}

CorpusIngestPipeline::~CorpusIngestPipeline() { (void)Finish(); }

Status CorpusIngestPipeline::SubmitInterview(int64_t oid, std::string text) {
  return SubmitReady(IngestDelta::Interview(oid, std::move(text)));
}

Status CorpusIngestPipeline::SubmitFinalizeText() {
  return SubmitReady(IngestDelta::FinalizeText());
}

Status CorpusIngestPipeline::SubmitReady(IngestDelta delta) {
  bool spawn = false;
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] {
      return !error_.ok() || next_submit_ - next_commit_ < window_;
    });
    if (!error_.ok()) return error_;
    ready_.emplace(next_submit_++, Result<IngestDelta>(std::move(delta)));
    if (options_.pool == nullptr || options_.pool->num_threads() == 0) {
      // No worker to hand the committer role to: the serial degradation,
      // commit on the submitting thread (errors surface on the next
      // Submit*/Finish, as everywhere).
      CommitReadyLocked(lock);
      return Status::OK();
    }
    // Hand the committer role to the pool so this thread keeps staging
    // while the sweep's durability barrier is in flight. One scheduled
    // committer at a time; an active one claims new frontier work itself.
    if (!committer_active_ && !committer_pending_) {
      committer_pending_ = true;
      spawn = true;
    }
  }
  if (spawn) {
    group_->Run([this] {
      std::unique_lock<std::mutex> lock(mu_);
      committer_pending_ = false;
      CommitReadyLocked(lock);
    });
  }
  return Status::OK();
}

Status CorpusIngestPipeline::SubmitVideo(
    std::function<Result<IngestDelta>()> analyze) {
  return Submit(std::move(analyze));
}

Status CorpusIngestPipeline::Submit(
    std::function<Result<IngestDelta>()> produce) {
  uint64_t index = 0;
  {
    std::unique_lock<std::mutex> lock(mu_);
    // Backpressure: bound the reorder buffer and the analyses in flight.
    cv_.wait(lock, [this] {
      return !error_.ok() || next_submit_ - next_commit_ < window_;
    });
    if (!error_.ok()) return error_;
    index = next_submit_++;
  }
  group_->Run([this, index, produce = std::move(produce)] {
    Result<IngestDelta> result = produce();
    std::unique_lock<std::mutex> lock(mu_);
    ready_.emplace(index, std::move(result));
    CommitReadyLocked(lock);
  });
  return Status::OK();
}

void CorpusIngestPipeline::CommitReadyLocked(
    std::unique_lock<std::mutex>& lock) {
  if (committer_active_) return;  // the active committer will pick it up
  committer_active_ = true;
  while (error_.ok()) {
    // Claim every contiguous ready result at the frontier.
    std::vector<Result<IngestDelta>> batch;
    for (auto it = ready_.find(next_commit_); it != ready_.end();
         it = ready_.find(next_commit_)) {
      batch.push_back(std::move(it->second));
      ready_.erase(it);
      ++next_commit_;
    }
    if (batch.empty()) break;
    cv_.notify_all();  // window slots freed
    lock.unlock();
    // Stage the whole batch, then one durability barrier for all of it —
    // against a group-commit WAL the sweep shares one fdatasync. The
    // barrier also covers the committed part of a sweep that then failed,
    // so the committed prefix is always durable and visible.
    Status status = Status::OK();
    int64_t committed = 0;
    for (Result<IngestDelta>& result : batch) {
      if (!result.ok()) {
        status = result.status();
        break;
      }
      status = sink_->Commit(result.value());
      if (!status.ok()) break;
      ++committed;
    }
    if (committed > 0) {
      const Status barrier = sink_->Barrier();
      if (status.ok()) status = barrier;
    }
    lock.lock();
    committed_ += committed;
    ++sweeps_;
    if (!status.ok()) error_ = status;
  }
  committer_active_ = false;
  cv_.notify_all();
}

Status CorpusIngestPipeline::Finish() {
  if (group_.has_value()) group_->Wait();
  std::unique_lock<std::mutex> lock(mu_);
  // All analyses completed and every completing task runs the committer
  // before returning, so by now the frontier caught up (or stuck on the
  // sticky error).
  cv_.wait(lock, [this] {
    return !committer_active_ &&
           (!error_.ok() || next_commit_ == next_submit_);
  });
  if (!error_.ok()) return error_;
  // Reusable: restart the task group for a next ingest wave.
  lock.unlock();
  group_.emplace(options_.pool);
  return Status::OK();
}

CorpusIngestPipeline::Stats CorpusIngestPipeline::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats out;
  out.submitted = static_cast<int64_t>(next_submit_);
  out.committed = committed_;
  out.sweeps = sweeps_;
  return out;
}

}  // namespace cobra::engine::ingest
