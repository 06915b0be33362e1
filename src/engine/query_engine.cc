#include "engine/query_engine.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <utility>

#include "storage/table.h"

namespace cobra::engine {

namespace {

/// Length-delimited append: two keys are equal iff their field sequences
/// are equal, regardless of what bytes the fields contain.
void AppendField(const std::string& field, std::string* key) {
  key->append(std::to_string(field.size()));
  key->push_back(':');
  key->append(field);
}

void AppendInt(int64_t value, std::string* key) {
  AppendField(std::to_string(value), key);
}

}  // namespace

std::string QueryEngine::NormalizedKey(const CombinedQuery& query) {
  std::vector<const storage::Predicate*> preds;
  preds.reserve(query.player_predicates.size());
  for (const storage::Predicate& p : query.player_predicates) {
    preds.push_back(&p);
  }
  std::sort(preds.begin(), preds.end(),
            [](const storage::Predicate* a, const storage::Predicate* b) {
              if (a->column != b->column) return a->column < b->column;
              if (a->op != b->op) {
                return static_cast<int>(a->op) < static_cast<int>(b->op);
              }
              if (a->literal.index() != b->literal.index()) {
                return a->literal.index() < b->literal.index();
              }
              return storage::ValueToString(a->literal) <
                     storage::ValueToString(b->literal);
            });

  std::string key;
  AppendField("combined", &key);
  AppendInt(static_cast<int64_t>(preds.size()), &key);
  for (const storage::Predicate* p : preds) {
    AppendField(p->column, &key);
    AppendInt(static_cast<int64_t>(p->op), &key);
    AppendInt(static_cast<int64_t>(p->literal.index()), &key);
    AppendField(storage::ValueToString(p->literal), &key);
  }
  AppendInt(query.require_champion ? 1 : 0, &key);
  AppendInt(query.won_year, &key);
  AppendField(query.text, &key);
  AppendInt(static_cast<int64_t>(query.text_top_k), &key);
  AppendField(query.event, &key);
  AppendInt(query.similar_video, &key);
  AppendInt(query.similar_frame, &key);
  AppendInt(static_cast<int64_t>(query.similar_k), &key);
  return key;
}

QueryEngine::QueryEngine(const DigitalLibrary* library, QueryEngineConfig config)
    : library_(library),
      config_(config),
      pool_(config.num_threads) {
  size_t shards = std::max<size_t>(1, config_.cache_shards);
  shards_.reserve(shards);
  for (size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

QueryEngine::Shard& QueryEngine::ShardFor(const std::string& key) {
  return *shards_[std::hash<std::string>{}(key) % shards_.size()];
}

bool QueryEngine::CacheGet(const std::string& key, int64_t epoch,
                           std::vector<SceneHit>* hits) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) return false;
  if (it->second->second.epoch != epoch) {
    // Stale: the library changed since this entry was computed.
    shard.lru.erase(it->second);
    shard.index.erase(it);
    return false;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  *hits = it->second->second.hits;
  return true;
}

void QueryEngine::CachePut(const std::string& key, int64_t epoch,
                           const std::vector<SceneHit>& hits) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    it->second->second = CacheEntry{epoch, hits};
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  shard.lru.emplace_front(key, CacheEntry{epoch, hits});
  shard.index.emplace(key, shard.lru.begin());
  while (shard.lru.size() > config_.cache_capacity_per_shard) {
    shard.index.erase(shard.lru.back().first);
    shard.lru.pop_back();
  }
}

template <typename Eval>
Result<std::vector<SceneHit>> QueryEngine::CachedEval(const std::string& key,
                                                      const Eval& eval) {
  queries_.fetch_add(1, std::memory_order_relaxed);
  int64_t epoch = library_->index_epoch();
  if (config_.enable_cache) {
    std::vector<SceneHit> cached;
    if (CacheGet(key, epoch, &cached)) {
      cache_hits_.fetch_add(1, std::memory_order_relaxed);
      return cached;
    }
    cache_misses_.fetch_add(1, std::memory_order_relaxed);
  }
  text::SearchStats search_stats;
  Result<std::vector<SceneHit>> result = eval(&search_stats);
  if (!result.ok()) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    return result;  // errors are never cached
  }
  postings_scanned_.fetch_add(search_stats.postings_scanned,
                              std::memory_order_relaxed);
  blocks_skipped_.fetch_add(search_stats.blocks_skipped,
                            std::memory_order_relaxed);
  if (config_.enable_cache) CachePut(key, epoch, result.value());
  return result;
}

Result<std::vector<SceneHit>> QueryEngine::Search(
    const SearchRequest& request) {
  std::string key = NormalizedKey(request.query);
  AppendInt(static_cast<int64_t>(request.top_n), &key);
  return CachedEval(key, [&](text::SearchStats* stats) {
    planner::PlanExplain explain;
    Result<std::vector<SceneHit>> result =
        library_->Search(request, stats, &explain);
    if (result.ok()) {
      planner_plans_.fetch_add(1, std::memory_order_relaxed);
      if (explain.short_circuited) {
        planner_short_circuits_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    return result;
  });
}

Result<std::string> QueryEngine::Explain(const CombinedQuery& query) const {
  COBRA_ASSIGN_OR_RETURN(planner::PlanExplain explain,
                         library_->ExplainSearch(query));
  return explain.ToString();
}

Result<std::vector<SceneHit>> QueryEngine::SearchKeywordOnly(
    const std::string& text, size_t top_k) {
  std::string key;
  AppendField("keyword", &key);
  AppendField(text, &key);
  AppendInt(static_cast<int64_t>(top_k), &key);
  return CachedEval(key, [&](text::SearchStats* stats) {
    return library_->SearchKeywordOnly(text, top_k, stats);
  });
}

std::vector<Result<std::vector<SceneHit>>> QueryEngine::SearchBatch(
    const std::vector<CombinedQuery>& queries, double deadline_ms) {
  // Result<T> has no default constructor; pre-fill with a placeholder that
  // every task overwrites (slot i is written only by task i).
  std::vector<Result<std::vector<SceneHit>>> results(
      queries.size(),
      Result<std::vector<SceneHit>>(Status::Internal("query not evaluated")));
  if (deadline_ms < 0.0) deadline_ms = config_.deadline_ms;
  const bool has_deadline = deadline_ms > 0.0;
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double, std::milli>(deadline_ms));
  util::TaskGroup group(&pool_);
  for (size_t i = 0; i < queries.size(); ++i) {
    group.Run([this, &queries, &results, i, has_deadline, deadline] {
      // The pool cannot abort a running evaluation; shedding not-yet-started
      // queries at the deadline is what bounds the batch's tail.
      if (has_deadline && std::chrono::steady_clock::now() >= deadline) {
        deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
        results[i] = Status::DeadlineExceeded("batch deadline expired");
        return;
      }
      results[i] = Search(queries[i]);
    });
  }
  group.Wait();
  return results;
}

QueryEngineStats QueryEngine::stats() const {
  QueryEngineStats out;
  out.queries = queries_.load(std::memory_order_relaxed);
  out.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  out.cache_misses = cache_misses_.load(std::memory_order_relaxed);
  out.errors = errors_.load(std::memory_order_relaxed);
  out.postings_scanned = postings_scanned_.load(std::memory_order_relaxed);
  out.blocks_skipped = blocks_skipped_.load(std::memory_order_relaxed);
  out.planner_plans = planner_plans_.load(std::memory_order_relaxed);
  out.planner_short_circuits =
      planner_short_circuits_.load(std::memory_order_relaxed);
  out.deadline_exceeded = deadline_exceeded_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace cobra::engine
