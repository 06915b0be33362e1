#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/video_description.h"
#include "engine/query_engine.h"
#include "webspace/site_synthesizer.h"

namespace cobra::engine {
namespace {

using storage::CompareOp;
using storage::Predicate;

/// A text+concept library (no rendered videos — fast to build). Event
/// queries are irrelevant here; the query-engine tests exercise caching,
/// epochs and concurrency, not scene retrieval.
std::unique_ptr<DigitalLibrary> MakeLibrary() {
  webspace::SiteConfig config;
  config.num_players = 10;
  config.num_past_years = 3;
  config.videos_per_year = 1;
  config.seed = 5;
  auto site = webspace::SiteSynthesizer::Generate(config).TakeValue();
  auto library = DigitalLibrary::Create(std::move(site.store)).TakeValue();
  for (const auto& [oid, text] : site.interview_texts) {
    EXPECT_TRUE(library->AddInterview(oid, text).ok());
  }
  EXPECT_TRUE(library->FinalizeText().ok());
  return library;
}

CombinedQuery TextQuery(const std::string& text) {
  CombinedQuery query;
  query.text = text;
  query.text_top_k = 20;
  return query;
}

TEST(NormalizedKeyTest, PredicateOrderDoesNotMatter) {
  CombinedQuery a, b;
  a.player_predicates = {Predicate{"hand", CompareOp::kEq, std::string("left")},
                         Predicate{"ranking", CompareOp::kLe, int64_t{5}}};
  b.player_predicates = {Predicate{"ranking", CompareOp::kLe, int64_t{5}},
                         Predicate{"hand", CompareOp::kEq, std::string("left")}};
  EXPECT_EQ(QueryEngine::NormalizedKey(a), QueryEngine::NormalizedKey(b));
}

TEST(NormalizedKeyTest, DistinguishesEveryField) {
  CombinedQuery base = TextQuery("net play");
  std::string key = QueryEngine::NormalizedKey(base);

  CombinedQuery changed = base;
  changed.text_top_k = 21;
  EXPECT_NE(QueryEngine::NormalizedKey(changed), key);
  changed = base;
  changed.event = "serve";
  EXPECT_NE(QueryEngine::NormalizedKey(changed), key);
  changed = base;
  changed.text = "net  play";  // different string, even if same tokens
  EXPECT_NE(QueryEngine::NormalizedKey(changed), key);
  changed = base;
  changed.require_champion = true;
  EXPECT_NE(QueryEngine::NormalizedKey(changed), key);
  changed = base;
  changed.won_year = 1999;
  EXPECT_NE(QueryEngine::NormalizedKey(changed), key);
  changed = base;
  changed.player_predicates = {
      Predicate{"hand", CompareOp::kEq, std::string("left")}};
  EXPECT_NE(QueryEngine::NormalizedKey(changed), key);
}

TEST(NormalizedKeyTest, LengthDelimitingPreventsCollisions) {
  // "ab" + "c" must not collide with "a" + "bc" however fields adjoin.
  CombinedQuery a = TextQuery("ab");
  a.event = "c";
  CombinedQuery b = TextQuery("a");
  b.event = "bc";
  EXPECT_NE(QueryEngine::NormalizedKey(a), QueryEngine::NormalizedKey(b));
}

TEST(QueryEngineTest, CacheHitReturnsIdenticalResults) {
  auto library = MakeLibrary();
  QueryEngine engine(library.get(), QueryEngineConfig{});
  CombinedQuery query = TextQuery("champion title");

  auto first = engine.Search(query).TakeValue();
  auto second = engine.Search(query).TakeValue();
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].player_oid, second[i].player_oid);
    EXPECT_EQ(first[i].text_score, second[i].text_score);
  }
  QueryEngineStats stats = engine.stats();
  EXPECT_EQ(stats.queries, 2);
  EXPECT_EQ(stats.cache_misses, 1);
  EXPECT_EQ(stats.cache_hits, 1);
  EXPECT_DOUBLE_EQ(stats.CacheHitRate(), 0.5);
  EXPECT_GT(stats.postings_scanned, 0) << "miss should record index work";
}

TEST(QueryEngineTest, EntriesForDifferentTopNNeverAlias) {
  auto library = MakeLibrary();
  QueryEngine engine(library.get(), QueryEngineConfig{});
  const CombinedQuery query;  // every player: a 10-hit answer
  const auto full = library->Search(query).TakeValue();
  ASSERT_GT(full.size(), 3u);
  auto expect_prefix = [&](const std::vector<SceneHit>& hits, size_t n) {
    ASSERT_EQ(hits.size(), std::min(n == 0 ? full.size() : n, full.size()));
    for (size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].player_oid, full[i].player_oid) << "n=" << n;
      EXPECT_EQ(hits[i].player_name, full[i].player_name) << "n=" << n;
    }
  };
  expect_prefix(engine.Search({query, 3}).TakeValue(), 3);   // miss
  expect_prefix(engine.Search(query).TakeValue(), 0);        // miss
  expect_prefix(engine.Search({query, 1}).TakeValue(), 1);   // miss
  expect_prefix(engine.Search({query, 3}).TakeValue(), 3);   // hit
  expect_prefix(engine.Search({query, 0}).TakeValue(), 0);   // hit
  expect_prefix(engine.Search({query, 1}).TakeValue(), 1);   // hit
  const QueryEngineStats stats = engine.stats();
  EXPECT_EQ(stats.cache_misses, 3);
  EXPECT_EQ(stats.cache_hits, 3);
}

TEST(QueryEngineTest, EpochBumpInvalidatesCache) {
  auto library = MakeLibrary();
  QueryEngine engine(library.get(), QueryEngineConfig{});
  CombinedQuery query = TextQuery("champion title");

  auto before = engine.Search(query).TakeValue();
  EXPECT_EQ(engine.stats().cache_misses, 1);
  // A mutation that can change results bumps the epoch; the cached entry
  // must be treated as stale on the next lookup.
  int64_t epoch = library->index_epoch();
  ASSERT_TRUE(
      library->AddVideoDescription(core::VideoDescription(999, "t", 25.0, 10))
          .ok());
  EXPECT_GT(library->index_epoch(), epoch);

  auto after = engine.Search(query).TakeValue();
  QueryEngineStats stats = engine.stats();
  EXPECT_EQ(stats.cache_misses, 2) << "stale entry must not be served";
  EXPECT_EQ(stats.cache_hits, 0);
  // This particular mutation does not change text-only results.
  ASSERT_EQ(after.size(), before.size());
  for (size_t i = 0; i < after.size(); ++i) {
    EXPECT_EQ(after[i].player_oid, before[i].player_oid);
  }
  // And the re-computed entry serves hits again at the new epoch.
  engine.Search(query).TakeValue();
  EXPECT_EQ(engine.stats().cache_hits, 1);
}

TEST(QueryEngineTest, DisabledCacheAlwaysEvaluates) {
  auto library = MakeLibrary();
  QueryEngineConfig config;
  config.enable_cache = false;
  QueryEngine engine(library.get(), config);
  CombinedQuery query = TextQuery("champion title");
  engine.Search(query).TakeValue();
  engine.Search(query).TakeValue();
  QueryEngineStats stats = engine.stats();
  EXPECT_EQ(stats.queries, 2);
  EXPECT_EQ(stats.cache_hits, 0);
  EXPECT_EQ(stats.cache_misses, 0) << "disabled cache records no lookups";
}

TEST(QueryEngineTest, ErrorsAreNeverCached) {
  // Text search against a library whose text index was never finalized
  // fails; the failure must be recomputed (and counted), not cached.
  webspace::SiteConfig config;
  config.num_players = 4;
  config.num_past_years = 1;
  auto site = webspace::SiteSynthesizer::Generate(config).TakeValue();
  auto library = DigitalLibrary::Create(std::move(site.store)).TakeValue();
  QueryEngine engine(library.get(), QueryEngineConfig{});
  CombinedQuery query = TextQuery("anything");
  EXPECT_FALSE(engine.Search(query).ok());
  EXPECT_FALSE(engine.Search(query).ok());
  QueryEngineStats stats = engine.stats();
  EXPECT_EQ(stats.errors, 2);
  EXPECT_EQ(stats.cache_hits, 0);
  EXPECT_EQ(stats.cache_misses, 2);
}

TEST(QueryEngineTest, LruEvictsAtCapacity) {
  auto library = MakeLibrary();
  QueryEngineConfig config;
  config.cache_shards = 1;
  config.cache_capacity_per_shard = 1;
  QueryEngine engine(library.get(), config);
  CombinedQuery a = TextQuery("champion title");
  CombinedQuery b = TextQuery("net volley");

  engine.Search(a).TakeValue();  // miss, cached
  engine.Search(b).TakeValue();  // miss, evicts a
  engine.Search(a).TakeValue();  // miss again (evicted), evicts b
  engine.Search(a).TakeValue();  // hit
  QueryEngineStats stats = engine.stats();
  EXPECT_EQ(stats.cache_misses, 3);
  EXPECT_EQ(stats.cache_hits, 1);
}

TEST(QueryEngineTest, KeywordOnlyGoesThroughCache) {
  auto library = MakeLibrary();
  QueryEngine engine(library.get(), QueryEngineConfig{});
  auto first = engine.SearchKeywordOnly("champion title", 10).TakeValue();
  auto second = engine.SearchKeywordOnly("champion title", 10).TakeValue();
  ASSERT_EQ(first.size(), second.size());
  EXPECT_EQ(engine.stats().cache_hits, 1);
  // Different top_k is a different key.
  engine.SearchKeywordOnly("champion title", 5).TakeValue();
  EXPECT_EQ(engine.stats().cache_misses, 2);
}

// ---------- Concurrency (tsan-labeled binary) ----------

std::vector<CombinedQuery> MixedQueries() {
  std::vector<CombinedQuery> queries;
  const char* texts[] = {"champion title", "net volley",   "final match",
                         "tournament win", "great serve",  "champion title",
                         "net volley",     "champion title"};
  for (const char* text : texts) queries.push_back(TextQuery(text));
  CombinedQuery concept_only;
  concept_only.require_champion = true;
  queries.push_back(concept_only);
  concept_only.player_predicates = {
      Predicate{"hand", CompareOp::kEq, std::string("left")}};
  queries.push_back(concept_only);
  return queries;
}

TEST(QueryEngineConcurrencyTest, BatchResultsIndependentOfThreadCount) {
  auto library = MakeLibrary();
  std::vector<CombinedQuery> queries = MixedQueries();

  QueryEngineConfig serial_config;
  serial_config.num_threads = 1;
  QueryEngine serial(library.get(), serial_config);
  auto expected = serial.SearchBatch(queries);

  QueryEngineConfig parallel_config;
  parallel_config.num_threads = 8;
  QueryEngine parallel(library.get(), parallel_config);
  auto got = parallel.SearchBatch(queries);

  ASSERT_EQ(got.size(), expected.size());
  for (size_t q = 0; q < got.size(); ++q) {
    ASSERT_TRUE(got[q].ok());
    ASSERT_TRUE(expected[q].ok());
    const auto& a = expected[q].value();
    const auto& b = got[q].value();
    ASSERT_EQ(a.size(), b.size()) << "query " << q;
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].player_oid, b[i].player_oid) << "query " << q;
      EXPECT_EQ(a[i].video_oid, b[i].video_oid) << "query " << q;
      EXPECT_EQ(a[i].text_score, b[i].text_score) << "query " << q;
    }
  }
  // The batch contains repeats: with a shared cache some must hit.
  EXPECT_GT(parallel.stats().cache_hits, 0);
}

TEST(QueryEngineDeadlineTest, ExpiredDeadlineShedsEveryBatchTask) {
  auto library = MakeLibrary();
  QueryEngineConfig config;
  config.num_threads = 2;
  config.deadline_ms = 1e-6;  // expires before any task can start
  QueryEngine engine(library.get(), config);
  std::vector<CombinedQuery> queries = MixedQueries();
  auto results = engine.SearchBatch(queries);
  ASSERT_EQ(results.size(), queries.size());
  for (const auto& r : results) {
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(r.status().IsDeadlineExceeded()) << r.status().ToString();
  }
  EXPECT_EQ(engine.stats().deadline_exceeded,
            static_cast<int64_t>(queries.size()));
}

TEST(QueryEngineDeadlineTest, GenerousDeadlineChangesNothing) {
  auto library = MakeLibrary();
  QueryEngineConfig config;
  config.num_threads = 2;
  QueryEngine engine(library.get(), config);
  std::vector<CombinedQuery> queries = MixedQueries();
  auto expected = engine.SearchBatch(queries);
  auto got = engine.SearchBatch(queries, /*deadline_ms=*/1e9);
  ASSERT_EQ(got.size(), expected.size());
  for (size_t q = 0; q < got.size(); ++q) {
    ASSERT_TRUE(got[q].ok()) << got[q].status().ToString();
    EXPECT_EQ(got[q].value().size(), expected[q].value().size());
  }
  EXPECT_EQ(engine.stats().deadline_exceeded, 0);
}

TEST(QueryEngineConcurrencyTest, ManyClientThreadsShareOneEngine) {
  auto library = MakeLibrary();
  QueryEngineConfig config;
  config.num_threads = 4;
  config.cache_shards = 2;
  QueryEngine engine(library.get(), config);
  std::vector<CombinedQuery> queries = MixedQueries();

  auto baseline = engine.Search(queries[0]).TakeValue();
  std::vector<std::thread> clients;
  for (int c = 0; c < 8; ++c) {
    clients.emplace_back([&engine, &queries, &baseline, c] {
      for (int round = 0; round < 10; ++round) {
        const CombinedQuery& query = queries[(c + round) % queries.size()];
        auto result = engine.Search(query);
        ASSERT_TRUE(result.ok());
        if (QueryEngine::NormalizedKey(query) ==
            QueryEngine::NormalizedKey(queries[0])) {
          const auto& hits = result.value();
          ASSERT_EQ(hits.size(), baseline.size());
          for (size_t i = 0; i < hits.size(); ++i) {
            EXPECT_EQ(hits[i].player_oid, baseline[i].player_oid);
          }
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  QueryEngineStats stats = engine.stats();
  EXPECT_EQ(stats.queries, 1 + 8 * 10);
  EXPECT_GT(stats.cache_hits, 0);
  EXPECT_EQ(stats.errors, 0);
}

}  // namespace
}  // namespace cobra::engine
