#pragma once

/// \file serving.h
/// The sharded scatter-gather serving tier (DESIGN.md §4i).
///
/// A ServingFrontend fans one combined query across N shard libraries
/// (see partition.h for what a shard replicates vs partitions) and merges
/// the per-shard sorted results into a global top-N under the shared
/// SceneHitLess total order — so the merged answer is bit-identical to the
/// unsharded DigitalLibrary::Search oracle truncated to N, for any shard
/// count. Each shard is asked for its own top-N only (the global top-N is
/// the top-N of the union of the shards' top-Ns), so its planner stops
/// early and its result cache holds at most N hits per entry.
///
/// Work reduction, not parallelism, is where the speedup comes from:
///   * queries with no content (event) condition are answered entirely by
///     the replicated modalities, so they route to ONE shard picked by
///     query-key hash — cache affinity multiplies effective cache capacity
///     by the shard count;
///   * queries with a text condition evaluate the text stage ONCE in the
///     frontend (the interview index is replicated, so every shard would
///     compute the same map) and fan the result out as a planner seed;
///   * queries with a similar_to condition resolve the probe signature and
///     the GLOBAL neighbor set once in the frontend (the signature modality
///     is partitioned, so a shard evaluating alone would answer a local,
///     different question) and fan it out as a seed; per-shard Hamming
///     lower bounds order the candidate merge and skip shards provably
///     outside the top-k, and the resolved per-shard neighbor distances
///     feed the same block-max merge bound event queries use;
///   * every shard has an upper bound B_i on the rank of its best possible
///     hit — max seed score among players present in the shard, then the
///     shard's minimum video id (range partitioning makes it a bound) —
///     and a shard whose B_i ranks strictly after the current merged Nth
///     hit is skipped without being evaluated, the block-max/maxscore idea
///     of text/daat.h lifted to the shard level;
///   * shards that provably cannot contribute (no indexed videos, or no
///     player both text-matching and present) are pruned upfront — all of
///     them, when none can: the query is validated once before the
///     scatter, so a pruned shard never has an error left to report.
///
/// Overload behavior: each shard has R replica workers with bounded
/// queues; dispatch picks the replica with the smaller queue via
/// power-of-two-choices, and a full queue sheds the whole query with
/// Status::Unavailable instead of queueing unboundedly. A per-query
/// deadline returns the partial merge accumulated so far (degraded, with
/// the timed-out shard count in QueryStats) instead of stalling on a slow
/// shard.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "engine/digital_library.h"
#include "engine/query_engine.h"
#include "util/status.h"

namespace cobra::engine::serving {

struct ServingConfig {
  /// Worker replicas per shard; each owns one bounded queue + thread.
  int replicas = 1;
  /// Maximum queued (not yet running) queries per replica; a query that
  /// finds every candidate replica of some shard full is shed.
  size_t queue_depth = 64;
  /// Per-shard QueryEngine configuration (num_threads is forced to 1 — the
  /// replicas are the workers).
  QueryEngineConfig engine;
};

/// Per-query execution record.
struct QueryStats {
  size_t shards_total = 0;        ///< shards in the frontend
  size_t shards_searched = 0;     ///< shards actually evaluated
  size_t shards_pruned_upfront = 0;   ///< provably-empty before dispatch
  size_t shards_pruned_by_bound = 0;  ///< skipped by the merge bound
  size_t shards_timed_out = 0;    ///< still pending when the deadline hit
  bool single_shard_routed = false;   ///< no-content query, one shard answered
  bool text_seeded = false;       ///< frontend evaluated the text stage once
  bool text_seed_cached = false;  ///< ... and it came from the seed cache
  bool similar_seeded = false;    ///< frontend resolved the global similar stage
  /// Shard ANN probes skipped during seed resolution because the shard's
  /// Hamming lower bound proved it outside the merged top-(k+1).
  size_t similar_probes_skipped = 0;
  bool degraded = false;          ///< partial merge returned at the deadline
};

/// Aggregate counters across all queries answered by one frontend.
struct ServingStats {
  int64_t queries = 0;
  int64_t shed = 0;       ///< rejected with Unavailable (full queues)
  int64_t degraded = 0;   ///< returned partial at the deadline
  int64_t shards_searched = 0;
  int64_t shards_pruned_upfront = 0;
  int64_t shards_pruned_by_bound = 0;
  int64_t single_shard_routed = 0;
  int64_t text_seed_cache_hits = 0;
  int64_t text_seed_cache_misses = 0;
  int64_t similar_seeded = 0;
  int64_t similar_probes_skipped = 0;
};

class ServingFrontend {
 public:
  /// `shards` are complete libraries per partition.h; every pointer must
  /// outlive the frontend and not be mutated while queries are in flight
  /// (the DurableLibrary compaction seam is explicitly allowed — it never
  /// mutates the live library). Requires >= 1 shard.
  static Result<std::unique_ptr<ServingFrontend>> Create(
      std::vector<const DigitalLibrary*> shards, ServingConfig config);

  /// Joins all replica workers after draining their queues.
  ~ServingFrontend();

  /// The global top-`top_n` of `query` under SceneHitLess (top_n == 0 =
  /// all hits). `deadline_ms` <= 0 means no deadline.
  /// Errors: an invalid query fails before the scatter with the status
  /// DigitalLibrary::Search would return (validated once on shard 0;
  /// NotFound when no shard resolves a similar_to probe); Unavailable when
  /// shed at admission; DeadlineExceeded is never returned — an expired
  /// deadline degrades to the partial merge with `qstats->degraded` set.
  Result<std::vector<SceneHit>> Search(const CombinedQuery& query,
                                       size_t top_n,
                                       QueryStats* qstats = nullptr,
                                       double deadline_ms = 0.0);

  /// Swaps shard `shard` to `library` (e.g. a reopened durable shard) with
  /// a fresh per-shard engine + cache. Safe while queries are in flight:
  /// in-flight queries finish against the snapshot they acquired.
  Status ReloadShard(size_t shard, const DigitalLibrary* library);

  /// ReloadShard, plus the retired generation's lease: a token held
  /// (through their snapshots) by every in-flight query still reading the
  /// shard's *previous* library. Once the returned pointer is unique the
  /// old library has no readers and the caller may mutate or destroy it —
  /// the double-buffered ingest publish seam (engine/ingest).
  Status ReloadShardRetiring(size_t shard, const DigitalLibrary* library,
                             std::shared_ptr<const void>* retired_lease);

  size_t num_shards() const { return slots_.size(); }
  ServingStats stats() const;

  /// Test hooks: freeze/unfreeze every replica worker (queued jobs stay
  /// queued), and the total currently queued job count.
  void PauseWorkersForTest();
  void ResumeWorkers();
  size_t QueuedJobsForTest() const;

 private:
  /// Immutable per-shard state published atomically on reload and rebuilt
  /// lazily when the shard library's index epoch moves (the serving-layer
  /// epoch seam): derived pruning stats must never outlive the data they
  /// summarize.
  struct Snapshot {
    const DigitalLibrary* library = nullptr;
    std::shared_ptr<QueryEngine> engine;
    /// Players reachable from the shard's indexed videos via "plays_in" —
    /// the only players that can appear in a scene hit of this shard.
    std::unordered_set<int64_t> players_present;
    bool presence_valid = false;  ///< false = traversal failed, never prune on it
    /// The shard's indexed video oids — membership tests for the similar
    /// stage's neighbor-video pruning.
    std::unordered_set<int64_t> video_set;
    int64_t min_video = 0;
    bool has_videos = false;
    int64_t built_epoch = -1;
    /// Liveness token of the library generation this snapshot reads
    /// (shared by every snapshot of the generation; see
    /// ReloadShardRetiring).
    std::shared_ptr<const void> lease;
  };

  struct ShardSlot {
    mutable std::mutex mu;
    std::shared_ptr<const Snapshot> snap;
  };

  /// One replica: a worker thread draining a bounded job queue. `depth`
  /// counts queued + running jobs (the power-of-two-choices load signal).
  struct Replica {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<std::function<void()>> queue;
    std::atomic<size_t> depth{0};
    std::thread thread;
  };

  struct ScatterState;

  ServingFrontend(std::vector<const DigitalLibrary*> shards,
                  ServingConfig config);

  std::shared_ptr<const Snapshot> BuildSnapshot(
      const DigitalLibrary* library, std::shared_ptr<QueryEngine> engine,
      std::shared_ptr<const void> lease);
  std::shared_ptr<const Snapshot> Acquire(size_t shard);

  /// Frontend-evaluated text stage, LRU-cached on (text, top_k, epoch).
  Result<std::shared_ptr<const std::map<int64_t, double>>> TextSeed(
      const CombinedQuery& query, int64_t epoch, bool* cached);

  /// Frontend-resolved global similar stage (the partitioned-modality
  /// analog of TextSeed): resolves the probe signature in its home shard,
  /// then merges per-shard exact top-(k+1) candidate lists under the total
  /// neighbor order, probing shards in Hamming-lower-bound order so a
  /// shard provably outside the merged top-(k+1) is never searched
  /// (`probes_skipped` counts those). NotFound when no shard resolves the
  /// probe.
  Result<std::shared_ptr<const SimilarSeed>> SimilarSeedFor(
      const CombinedQuery& query,
      const std::vector<std::shared_ptr<const Snapshot>>& snaps,
      size_t* probes_skipped);

  void WorkerLoop(Replica* replica);
  /// Enqueues onto the less loaded of two sampled replicas of `shard`;
  /// false = all candidates full (shed).
  bool Dispatch(size_t shard, std::function<void()> job);
  /// With `st->mu` held: prunes deferred targets whose bound ranks after
  /// the merged Nth, then dispatches the first survivor (the cascade step
  /// run after every shard completion).
  void DrainDeferredLocked(ScatterState* st);

  ServingConfig config_;
  std::vector<std::unique_ptr<ShardSlot>> slots_;
  std::vector<std::unique_ptr<Replica>> replicas_;  ///< shard-major, R per shard
  std::atomic<bool> stop_{false};
  std::atomic<bool> paused_{false};
  std::atomic<uint64_t> route_state_{0x9e3779b97f4a7c15ull};

  std::mutex seed_mu_;
  std::list<std::pair<std::string,
                      std::shared_ptr<const std::map<int64_t, double>>>>
      seed_lru_;
  std::unordered_map<
      std::string,
      std::list<std::pair<
          std::string,
          std::shared_ptr<const std::map<int64_t, double>>>>::iterator>
      seed_index_;

  std::atomic<int64_t> queries_{0};
  std::atomic<int64_t> shed_{0};
  std::atomic<int64_t> degraded_{0};
  std::atomic<int64_t> shards_searched_{0};
  std::atomic<int64_t> shards_pruned_upfront_{0};
  std::atomic<int64_t> shards_pruned_by_bound_{0};
  std::atomic<int64_t> single_shard_routed_{0};
  std::atomic<int64_t> seed_cache_hits_{0};
  std::atomic<int64_t> seed_cache_misses_{0};
  std::atomic<int64_t> similar_seeded_{0};
  std::atomic<int64_t> similar_probes_skipped_{0};
};

}  // namespace cobra::engine::serving
