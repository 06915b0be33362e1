#include "engine/query_engine.h"

#include <algorithm>
#include <bit>
#include <functional>
#include <optional>
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

/// Exact encoding of a literal within its type: a double by its bit
/// pattern (ValueToString's %.6g would give 1.8500001 and 1.8500004 one
/// key), integers and strings as ValueToString writes them.
std::string LiteralKey(const storage::Value& literal) {
  if (const auto* d = std::get_if<double>(&literal)) {
    return std::to_string(std::bit_cast<uint64_t>(*d));
  }
  return storage::ValueToString(literal);
}

}  // namespace

std::string QueryEngine::NormalizedKey(const CombinedQuery& query) {
  struct Keyed {
    const storage::Predicate* pred;
    std::string literal;
  };
  std::vector<Keyed> preds;
  preds.reserve(query.player_predicates.size());
  for (const storage::Predicate& p : query.player_predicates) {
    preds.push_back({&p, LiteralKey(p.literal)});
  }
  std::sort(preds.begin(), preds.end(), [](const Keyed& a, const Keyed& b) {
    if (a.pred->column != b.pred->column) {
      return a.pred->column < b.pred->column;
    }
    if (a.pred->op != b.pred->op) {
      return static_cast<int>(a.pred->op) < static_cast<int>(b.pred->op);
    }
    if (a.pred->literal.index() != b.pred->literal.index()) {
      return a.pred->literal.index() < b.pred->literal.index();
    }
    return a.literal < b.literal;
  });

  std::string key;
  AppendField("combined", &key);
  AppendInt(static_cast<int64_t>(preds.size()), &key);
  for (const Keyed& p : preds) {
    AppendField(p.pred->column, &key);
    AppendInt(static_cast<int64_t>(p.pred->op), &key);
    AppendInt(static_cast<int64_t>(p.pred->literal.index()), &key);
    AppendField(p.literal, &key);
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

QueryEngine::QueryEngine(const DigitalLibrary* library) : library_(library) {
  stripes_.reserve(kCacheStripes);
  for (size_t i = 0; i < kCacheStripes; ++i) {
    stripes_.push_back(std::make_unique<Cache>(kEntriesPerStripe));
  }
}

Result<std::vector<SceneHit>> QueryEngine::Search(
    const SearchRequest& request) {
  queries_.fetch_add(1, std::memory_order_relaxed);
  std::string key = NormalizedKey(request.query);
  AppendInt(static_cast<int64_t>(request.top_n), &key);
  AppendInt(library_->index_epoch(), &key);
  Cache& cache = *stripes_[std::hash<std::string>{}(key) % kCacheStripes];
  if (std::optional<std::vector<SceneHit>> cached = cache.Get(key)) {
    cache_hits_.fetch_add(1, std::memory_order_relaxed);
    return *std::move(cached);
  }
  cache_misses_.fetch_add(1, std::memory_order_relaxed);
  Result<std::vector<SceneHit>> result = library_->Search(request);
  if (!result.ok()) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    return result;  // errors are never cached
  }
  cache.Put(key, result.value());
  return result;
}

QueryEngineStats QueryEngine::stats() const {
  QueryEngineStats out;
  out.queries = queries_.load(std::memory_order_relaxed);
  out.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  out.cache_misses = cache_misses_.load(std::memory_order_relaxed);
  out.errors = errors_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace cobra::engine
