#pragma once

/// \file query_engine.h
/// The per-shard result cache over one DigitalLibrary: the serving
/// frontend (engine/serving) holds one engine per shard and asks it for
/// the shard's top-N, and a repeated request is answered from the cache
/// without re-evaluation.
///
/// Cache protocol (see DESIGN.md §4c):
///   * the key is the *normalized* query — predicates sorted into a
///     canonical order plus every other query field, each literal encoded
///     exactly, so syntactically different but equivalent queries share
///     one entry — plus the request's top_n and the library's index
///     epoch, so an entry holds at most top_n hits and answers only
///     requests for exactly that many against exactly that index state;
///   * DigitalLibrary bumps the epoch on every mutation that can change
///     results (FinalizeText, AddVideoDescription), so an entry of an
///     older epoch is never looked up again and ages out of the LRU.
///     There is no invalidation broadcast;
///   * errors are never cached.
///
/// Thread model: Search may be called from any number of threads
/// concurrently, provided the library is not being mutated at the same
/// time (queries are read-only over an immutable snapshot; mutate-then-
/// query requires external ordering, as with the library itself).

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/digital_library.h"
#include "util/lru_cache.h"
#include "util/status.h"

namespace cobra::engine {

/// Aggregate counters across all queries answered by one engine.
struct QueryEngineStats {
  int64_t queries = 0;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;   ///< includes each epoch's first request
  int64_t errors = 0;         ///< failed queries (never cached)

  double CacheHitRate() const {
    int64_t lookups = cache_hits + cache_misses;
    return lookups == 0 ? 0.0 : static_cast<double>(cache_hits) / lookups;
  }
};

class QueryEngine {
 public:
  /// `library` must outlive the engine and not be mutated while queries
  /// are in flight.
  explicit QueryEngine(const DigitalLibrary* library);

  /// One request through the cache, answered by DigitalLibrary::Search:
  /// the first `request.top_n` hits (0 = all), cached under the normalized
  /// query, top_n and index epoch. The text seed (optional) gives results
  /// identical to an unseeded evaluation, so seeded and unseeded requests
  /// share cache entries. The similar seed (see SimilarSeed), unlike the
  /// text seed, is *partition-dependent*: on a sharded library, seeded and
  /// unseeded evaluations of a similar query answer different questions
  /// (global vs local neighbors), which is fine for the serving tier
  /// because shard engines are only ever queried seeded.
  Result<std::vector<SceneHit>> Search(const SearchRequest& request);

  /// Snapshot of the aggregate counters.
  QueryEngineStats stats() const;

  /// Canonical key of a combined query: predicates sorted by (column, op,
  /// literal), then every scalar field, length-delimited so distinct
  /// queries cannot collide. Literals are encoded exactly (a double by its
  /// bit pattern), so two queries share a key only when they ask the same
  /// question. The result cache appends the request's top_n and the index
  /// epoch; the serving frontend routes on this key alone.
  static std::string NormalizedKey(const CombinedQuery& query);

 private:
  /// Lock striping: a key's stripe is its hash modulo kCacheStripes.
  static constexpr size_t kCacheStripes = 8;
  static constexpr size_t kEntriesPerStripe = 128;

  using Cache = util::LruCache<std::vector<SceneHit>>;

  const DigitalLibrary* library_;
  std::vector<std::unique_ptr<Cache>> stripes_;

  std::atomic<int64_t> queries_{0};
  std::atomic<int64_t> cache_hits_{0};
  std::atomic<int64_t> cache_misses_{0};
  std::atomic<int64_t> errors_{0};
};

}  // namespace cobra::engine
