#pragma once

/// \file query_engine.h
/// Concurrent query front end over DigitalLibrary: a fixed thread pool
/// evaluates batches of combined queries, and a sharded LRU cache serves
/// repeated queries without re-evaluation.
///
/// Cache protocol (see DESIGN.md "Serving path"):
///   * the key is the *normalized* query — predicates sorted into a
///     canonical order plus every other query field, so syntactically
///     different but equivalent queries share one entry — plus the
///     request's top_n, so an entry holds at most top_n hits and answers
///     only requests for exactly that many;
///   * each entry is tagged with the library's index epoch at evaluation
///     time; DigitalLibrary bumps the epoch on every mutation that can
///     change results (FinalizeText, AddVideoDescription), so a stale
///     entry fails the epoch check and is evicted on its next lookup.
///     There is no invalidation broadcast — staleness is detected lazily.
///
/// Thread model: Search/SearchKeywordOnly/SearchBatch may be called from
/// any number of client threads concurrently, provided the library is not
/// being mutated at the same time (queries are read-only over an immutable
/// snapshot; mutate-then-query requires external ordering, as with the
/// library itself).

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/digital_library.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace cobra::engine {

struct QueryEngineConfig {
  /// Worker threads for SearchBatch; <= 1 evaluates inline on the caller.
  int num_threads = 1;
  /// Number of independent cache shards (lock striping). Rounded up to 1.
  size_t cache_shards = 8;
  /// Maximum cached results per shard (LRU eviction beyond this).
  size_t cache_capacity_per_shard = 128;
  /// Master switch; false makes every query evaluate against the library.
  bool enable_cache = true;
  /// Default per-batch deadline for SearchBatch in milliseconds; <= 0
  /// disables. The pool cannot abort a running evaluation, so the deadline
  /// is checked when each task starts: queries that have not begun by then
  /// are shed with Status::DeadlineExceeded instead of evaluating, bounding
  /// how long a batch can grow behind one slow query.
  double deadline_ms = 0.0;
};

/// Aggregate counters across all queries answered by one engine.
struct QueryEngineStats {
  int64_t queries = 0;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;   ///< includes epoch-stale entries
  int64_t errors = 0;         ///< failed queries (never cached)
  int64_t postings_scanned = 0;  ///< text-index work, cache misses only
  int64_t blocks_skipped = 0;    ///< text-index skip-block jumps
  int64_t planner_plans = 0;  ///< combined queries answered by the planner
  int64_t planner_short_circuits = 0;  ///< plans ended by a provably-empty stage
  int64_t deadline_exceeded = 0;  ///< batch queries shed at their deadline

  double CacheHitRate() const {
    int64_t lookups = cache_hits + cache_misses;
    return lookups == 0 ? 0.0 : static_cast<double>(cache_hits) / lookups;
  }
};

class QueryEngine {
 public:
  /// `library` must outlive the engine and not be mutated while queries
  /// are in flight.
  QueryEngine(const DigitalLibrary* library, QueryEngineConfig config);

  /// One request through the cache, answered by DigitalLibrary::Search:
  /// the first `request.top_n` hits (0 = all), cached under the normalized
  /// query plus top_n. The text seed (optional) gives results identical to
  /// an unseeded evaluation, so seeded and unseeded requests share cache
  /// entries. The similar seed (see SimilarSeed), unlike the text seed, is
  /// *partition-dependent*: on a sharded library, seeded and unseeded
  /// evaluations of a similar query answer different questions (global vs
  /// local neighbors), which is fine for the serving tier because shard
  /// engines are only ever queried seeded.
  Result<std::vector<SceneHit>> Search(const SearchRequest& request);

  /// Plans and executes `query` (bypassing the cache), returning the
  /// rendered plan: chosen stage order and estimated vs actual
  /// cardinalities per step (the EXPLAIN surface, DESIGN.md §4g).
  Result<std::string> Explain(const CombinedQuery& query) const;

  /// The keyword-only baseline through the same cache (distinct key space).
  Result<std::vector<SceneHit>> SearchKeywordOnly(const std::string& text,
                                                  size_t top_k);

  /// Evaluates all queries concurrently on the pool; result i answers
  /// query i. Order is deterministic regardless of thread count.
  /// `deadline_ms` overrides the config deadline for this batch (< 0 =
  /// take the config value; 0 disables): queries not started by the
  /// deadline return Status::DeadlineExceeded.
  std::vector<Result<std::vector<SceneHit>>> SearchBatch(
      const std::vector<CombinedQuery>& queries, double deadline_ms = -1.0);

  /// Snapshot of the aggregate counters.
  QueryEngineStats stats() const;

  /// Canonical key of a combined query: predicates sorted by (column, op,
  /// literal), then every scalar field, length-delimited so distinct
  /// queries cannot collide. The result cache appends the request's top_n;
  /// the serving frontend routes on this key alone.
  static std::string NormalizedKey(const CombinedQuery& query);

 private:
  struct CacheEntry {
    int64_t epoch = 0;
    std::vector<SceneHit> hits;
  };

  /// One LRU shard: list front = most recent; map points into the list.
  struct Shard {
    std::mutex mutex;
    std::list<std::pair<std::string, CacheEntry>> lru;
    std::unordered_map<std::string,
                       std::list<std::pair<std::string, CacheEntry>>::iterator>
        index;
  };

  Shard& ShardFor(const std::string& key);
  /// True + fills `hits` on a fresh hit; erases stale entries.
  bool CacheGet(const std::string& key, int64_t epoch,
                std::vector<SceneHit>* hits);
  void CachePut(const std::string& key, int64_t epoch,
                const std::vector<SceneHit>& hits);

  /// Cache-through evaluation shared by Search and SearchKeywordOnly.
  template <typename Eval>
  Result<std::vector<SceneHit>> CachedEval(const std::string& key,
                                           const Eval& eval);

  const DigitalLibrary* library_;
  QueryEngineConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  util::ThreadPool pool_;

  std::atomic<int64_t> queries_{0};
  std::atomic<int64_t> cache_hits_{0};
  std::atomic<int64_t> cache_misses_{0};
  std::atomic<int64_t> errors_{0};
  std::atomic<int64_t> postings_scanned_{0};
  std::atomic<int64_t> blocks_skipped_{0};
  std::atomic<int64_t> planner_plans_{0};
  std::atomic<int64_t> planner_short_circuits_{0};
  std::atomic<int64_t> deadline_exceeded_{0};
};

}  // namespace cobra::engine
