/// \file bench_e7_combined_query.cc
/// E7 — the motivating query of paper §2: "video scenes of left-handed
/// female players who have won the Australian Open in the past, in which
/// they approach the net". Compares the conceptual (webspace + COBRA)
/// engine against the keyword-only baseline on player precision/recall,
/// and reports the engine's latency breakdown. Expected shape: conceptual
/// query precision 1.0 (exact semantics); keyword search poisoned by the
/// hidden-semantics trap.

#include <benchmark/benchmark.h>

#include <chrono>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/tennis_fde.h"
#include "engine/digital_library.h"
#include "engine/query_engine.h"
#include "engine/query_language.h"
#include "media/tennis_synthesizer.h"
#include "oracles/fixed_order.h"
#include "oracles/reference_ops.h"
#include "storage/ops.h"
#include "util/rng.h"
#include "util/simd.h"
#include "util/stats.h"
#include "webspace/query.h"
#include "webspace/site_synthesizer.h"

namespace {

using namespace cobra;  // NOLINT

struct Library {
  std::unique_ptr<engine::DigitalLibrary> library;
  std::vector<int64_t> answer;     ///< left-handed female champions
  std::vector<int64_t> champions;
  size_t num_players = 0;
};

const Library& SharedLibrary() {
  static const Library* lib = [] {
    webspace::SiteConfig site_config;
    site_config.num_players = 24;
    site_config.num_past_years = 6;
    site_config.videos_per_year = 1;
    site_config.seed = 2002;
    site_config.ensure_answer = true;
    auto site = webspace::SiteSynthesizer::Generate(site_config).TakeValue();
    auto* out = new Library();
    out->answer = site.left_handed_female_champions;
    out->champions = site.champions;
    out->num_players = site.player_oids.size();
    auto interview_texts = site.interview_texts;
    auto video_seeds = site.video_seeds;
    out->library =
        engine::DigitalLibrary::Create(std::move(site.store)).TakeValue();
    for (const auto& [oid, text] : interview_texts) {
      (void)out->library->AddInterview(oid, text);
    }
    (void)out->library->FinalizeText();
    auto indexer = core::TennisVideoIndexer::Create().TakeValue();
    for (const auto& [video_oid, seed] : video_seeds) {
      media::TennisSynthConfig config;
      config.width = 128;
      config.height = 96;
      config.num_points = 2;
      config.min_court_frames = 100;
      config.max_court_frames = 130;
      config.min_cutaway_frames = 12;
      config.max_cutaway_frames = 18;
      config.noise_sigma = 3.0;
      config.net_approach_prob = 1.0;
      config.seed = seed;
      auto broadcast =
          media::TennisBroadcastSynthesizer(config).Synthesize().TakeValue();
      auto desc = indexer->Index(*broadcast.video, video_oid, "match");
      if (desc.ok()) (void)out->library->AddVideoDescription(*desc);
    }
    return out;
  }();
  return *lib;
}

PrecisionRecall ScorePlayers(const std::vector<int64_t>& truth,
                             const std::set<int64_t>& found) {
  PrecisionRecall pr;
  std::set<int64_t> truth_set(truth.begin(), truth.end());
  for (int64_t p : found) {
    if (truth_set.count(p)) {
      pr.true_positives++;
    } else {
      pr.false_positives++;
    }
  }
  for (int64_t p : truth) {
    if (!found.count(p)) pr.false_negatives++;
  }
  return pr;
}

void RunComparison() {
  bench::PrintHeader("E7", "combined concept+content query vs keyword search");
  const Library& lib = SharedLibrary();
  std::printf("site: %zu players, %zu champions, truth answer size %zu\n\n",
              lib.num_players, lib.champions.size(), lib.answer.size());

  // --- conceptual combined query (typed in the demo query language) ---
  auto query = engine::ParseQuery(
                   "player.hand = left AND player.gender = female AND "
                   "won = any AND event = net_play")
                   .TakeValue();
  constexpr int kLatencyReps = 30;
  std::vector<double> latency_ms;
  std::vector<engine::SceneHit> hits;
  for (int rep = 0; rep < kLatencyReps; ++rep) {
    bench::WallTimer timer;
    hits = lib.library->Search(query).TakeValue();
    latency_ms.push_back(timer.Millis());
  }
  std::set<int64_t> concept_players;
  for (const auto& hit : hits) concept_players.insert(hit.player_oid);
  PrecisionRecall concept_pr = ScorePlayers(lib.answer, concept_players);

  // --- keyword baselines at several cutoffs ---
  std::printf("%-34s %8s %8s %8s %8s\n", "method", "P", "R", "F1", "scenes");
  std::printf("%-34s %8.3f %8.3f %8.3f %8zu\n",
              "conceptual (webspace+COBRA)", concept_pr.Precision(),
              concept_pr.Recall(), concept_pr.F1(), hits.size());
  for (size_t k : {5, 10, 20}) {
    auto keyword = lib.library
                       ->SearchKeywordOnly(
                           "left handed female champion won title "
                           "approaching the net",
                           k)
                       .TakeValue();
    std::set<int64_t> keyword_players;
    for (const auto& hit : keyword) keyword_players.insert(hit.player_oid);
    PrecisionRecall pr = ScorePlayers(lib.answer, keyword_players);
    std::printf("keyword top-%-22zu %8.3f %8.3f %8.3f %8s\n", k, pr.Precision(),
                pr.Recall(), pr.F1(), "-");
  }

  const double p50 = bench::Percentile(latency_ms, 0.5);
  const double p99 = bench::Percentile(latency_ms, 0.99);
  std::printf(
      "\ncombined query latency: p50 %.3f ms, p99 %.3f ms "
      "(%d reps over pre-built indexes)\n",
      p50, p99, kLatencyReps);
  bench::PrintJsonMetric("e7_combined_query", "combined_p50_ms", p50);
  bench::PrintJsonMetric("e7_combined_query", "combined_p99_ms", p99);
  std::printf("answer scenes:\n");
  for (const auto& hit : hits) {
    std::printf("  %-24s video %lld frames %s\n", hit.player_name.c_str(),
                static_cast<long long>(hit.video_oid),
                hit.range.ToString().c_str());
  }
  bench::PrintRule();
}

/// The QueryEngine front end: cold vs warm cache and batch throughput at
/// 1 vs 8 worker threads over a repeating workload.
void RunQueryEngine() {
  bench::PrintHeader("E7b", "query engine: result cache + concurrent batches");
  const Library& lib = SharedLibrary();

  std::vector<engine::CombinedQuery> workload;
  const char* texts[] = {"champion title", "approaching the net",
                         "great serve",    "tournament win",
                         "champion title", "approaching the net"};
  for (const char* text : texts) {
    engine::CombinedQuery query;
    query.text = text;
    workload.push_back(query);
  }
  {
    auto query = engine::ParseQuery(
                     "player.hand = left AND player.gender = female AND "
                     "won = any AND event = net_play")
                     .TakeValue();
    workload.push_back(query);
    workload.push_back(query);  // repeat: cacheable
  }
  // 4 rounds of the workload: round 1 is cold, the rest warm.
  std::vector<engine::CombinedQuery> batch;
  for (int round = 0; round < 4; ++round) {
    batch.insert(batch.end(), workload.begin(), workload.end());
  }

  std::printf("%-28s %10s %10s %10s\n", "configuration", "total_ms",
              "hit_rate", "errors");
  double serial_ms = 0;
  for (int threads : {1, 8}) {
    engine::QueryEngineConfig config;
    config.num_threads = threads;
    engine::QueryEngine eng(lib.library.get(), config);
    auto t0 = std::chrono::steady_clock::now();
    auto results = eng.SearchBatch(batch);
    auto t1 = std::chrono::steady_clock::now();
    int64_t errors = 0;
    for (const auto& r : results) {
      if (!r.ok()) ++errors;
    }
    double ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (threads == 1) serial_ms = ms;
    engine::QueryEngineStats stats = eng.stats();
    char label[64];
    std::snprintf(label, sizeof(label), "batch %zu, %d thread(s)",
                  batch.size(), threads);
    std::printf("%-28s %10.3f %10.3f %10lld\n", label, ms,
                stats.CacheHitRate(), static_cast<long long>(errors));
    char metric[64];
    std::snprintf(metric, sizeof(metric), "batch_ms_threads%d", threads);
    bench::PrintJsonMetric("e7_combined_query", metric, ms);
    std::snprintf(metric, sizeof(metric), "cache_hit_rate_threads%d", threads);
    bench::PrintJsonMetric("e7_combined_query", metric, stats.CacheHitRate());
  }
  (void)serial_ms;

  // Cold vs warm single-query latency through the cache.
  engine::QueryEngine eng(lib.library.get(), engine::QueryEngineConfig{});
  auto query = workload.front();
  auto t0 = std::chrono::steady_clock::now();
  (void)eng.Search(query);
  auto t1 = std::chrono::steady_clock::now();
  (void)eng.Search(query);
  auto t2 = std::chrono::steady_clock::now();
  double cold_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  double warm_ms = std::chrono::duration<double, std::milli>(t2 - t1).count();
  std::printf("cold query %.3f ms, cached %.3f ms (%.0fx)\n", cold_ms, warm_ms,
              cold_ms / std::max(warm_ms, 1e-9));
  bench::PrintJsonMetric("e7_combined_query", "cold_query_ms", cold_ms);
  bench::PrintJsonMetric("e7_combined_query", "cached_query_ms", warm_ms);
  bench::PrintRule();
}

// ---------------------------------------------------------------------------
// E7c — columnar execution at 100k-row class tables: the vectorized
// Select/Refine/HashJoin/OrderBy operators and the indexed webspace path
// query against the pre-PR row-at-a-time path (storage::reference plus a
// faithful reproduction of the old full-scan traversal).

/// Pre-PR SelectObjects: reference scan + per-row GetInt + sort.
std::vector<int64_t> OldSelectObjects(const webspace::WebspaceStore& store,
                                      const webspace::ClassSelection& sel) {
  const storage::Table* table = store.ClassTable(sel.class_name).TakeValue();
  auto rows = storage::reference::SelectAll(*table, sel.predicates).TakeValue();
  std::vector<int64_t> oids;
  oids.reserve(rows.size());
  for (int64_t r : rows) oids.push_back(table->GetInt(r, 0).TakeValue());
  std::sort(oids.begin(), oids.end());
  return oids;
}

/// Pre-PR Traverse: full association-table scan against a key set.
std::vector<int64_t> OldTraverse(const webspace::WebspaceStore& store,
                                 const std::string& assoc,
                                 const std::vector<int64_t>& keys) {
  const storage::Table* table = store.AssociationTable(assoc).TakeValue();
  std::set<int64_t> key_set(keys.begin(), keys.end());
  std::set<int64_t> out;
  const auto& from = table->IntColumn(0);
  const auto& to = table->IntColumn(1);
  for (size_t r = 0; r < from.size(); ++r) {
    if (key_set.count(from[r])) out.insert(to[r]);
  }
  return std::vector<int64_t>(out.begin(), out.end());
}

/// Pre-PR ExecuteQuery: old SelectObjects per hop + set intersection.
std::vector<int64_t> OldExecuteQuery(const webspace::WebspaceStore& store,
                                     const webspace::WebspaceQuery& query) {
  std::vector<int64_t> current = OldSelectObjects(store, query.source);
  for (const webspace::PathStep& step : query.path) {
    if (current.empty()) return current;
    std::vector<int64_t> reached =
        OldTraverse(store, step.association, current);
    std::vector<int64_t> allowed = OldSelectObjects(store, step.target);
    std::set<int64_t> allowed_set(allowed.begin(), allowed.end());
    std::vector<int64_t> filtered;
    for (int64_t oid : reached) {
      if (allowed_set.count(oid)) filtered.push_back(oid);
    }
    current = std::move(filtered);
  }
  return current;
}

void RunColumnarScale() {
  bench::PrintHeader("E7c", "vectorized columnar execution at 100k rows");
  constexpr int64_t kPlayers = 100000;
  constexpr int64_t kVideos = 2000;
  constexpr int kReps = 5;

  auto schema = webspace::ConceptSchema::Create(
                    {webspace::ClassDef{
                         "Player",
                         {{"name", storage::DataType::kString},
                          {"hand", storage::DataType::kString},
                          {"gender", storage::DataType::kString},
                          {"rank", storage::DataType::kInt64},
                          {"rating", storage::DataType::kDouble}}},
                     webspace::ClassDef{"Video",
                                        {{"year", storage::DataType::kInt64}}}},
                    {webspace::AssociationDef{"plays_in", "Player", "Video"}})
                    .TakeValue();
  auto store = webspace::WebspaceStore::Create(std::move(schema)).TakeValue();
  Rng rng(424242);
  std::vector<int64_t> video_oids;
  for (int64_t v = 0; v < kVideos; ++v) {
    video_oids.push_back(
        store.Insert("Video", {rng.NextInt(1990, 2002)}).TakeValue());
  }
  std::vector<int64_t> player_oids;
  for (int64_t p = 0; p < kPlayers; ++p) {
    const char* hand = rng.NextBounded(10) < 2 ? "left" : "right";
    const char* gender = rng.NextBounded(2) ? "female" : "male";
    player_oids.push_back(
        store
            .Insert("Player", {"player_" + std::to_string(p),
                               std::string(hand), std::string(gender),
                               rng.NextInt(1, 100000), rng.NextDouble()})
            .TakeValue());
    for (int64_t links = rng.NextInt(1, 2); links > 0; --links) {
      (void)store.Link("plays_in", player_oids.back(),
                       video_oids[rng.NextBounded(video_oids.size())]);
    }
  }
  const storage::Table& players = *store.ClassTable("Player").TakeValue();

  std::printf("store: %lld players, %lld videos (simd tier: %s)\n\n",
              static_cast<long long>(kPlayers),
              static_cast<long long>(kVideos),
              storage::kernels::SimdLevelName(storage::kernels::ActiveLevel()));
  std::printf("%-26s %10s %10s %9s %8s\n", "operator (100k rows)", "ref_ms",
              "new_ms", "speedup", "rows");

  auto report = [](const char* name, const char* metric, double ref_ms,
                   double new_ms, size_t rows) {
    std::printf("%-26s %10.3f %10.3f %8.1fx %8zu\n", name, ref_ms, new_ms,
                ref_ms / std::max(new_ms, 1e-9), rows);
    std::string key(metric);
    bench::PrintJsonMetric("e7_combined_query", (key + "_ref_ms").c_str(),
                           ref_ms);
    bench::PrintJsonMetric("e7_combined_query", (key + "_new_ms").c_str(),
                           new_ms);
    bench::PrintJsonMetric("e7_combined_query", (key + "_speedup").c_str(),
                           ref_ms / std::max(new_ms, 1e-9));
  };

  // --- conjunctive selection over the class table ---
  const std::vector<storage::Predicate> preds = {
      {"hand", storage::CompareOp::kEq, std::string("left")},
      {"gender", storage::CompareOp::kEq, std::string("female")},
      {"rank", storage::CompareOp::kLt, int64_t{20000}}};
  std::vector<int64_t> sel_ref, sel_new;
  const double select_ref_ms = bench::MedianMs(kReps, [&] {
    sel_ref = storage::reference::SelectAll(players, preds).TakeValue();
  });
  const double select_new_ms = bench::MedianMs(kReps, [&] {
    sel_new = storage::SelectAll(players, preds).TakeValue();
  });
  report("select (3 predicates)", "select", select_ref_ms, select_new_ms,
         sel_new.size());

  // --- webspace path query: selection + association walk + hop filter ---
  webspace::WebspaceQuery path_query;
  path_query.source = {"Player",
                       {{"hand", storage::CompareOp::kEq, std::string("left")}}};
  path_query.path.push_back(webspace::PathStep{
      "plays_in", false, -1,
      {"Video", {{"year", storage::CompareOp::kGe, int64_t{1998}}}}});
  std::vector<int64_t> path_ref, path_new;
  const double path_ref_ms = bench::MedianMs(
      kReps, [&] { path_ref = OldExecuteQuery(store, path_query); });
  const double path_new_ms = bench::MedianMs(kReps, [&] {
    path_new = webspace::ExecuteQuery(store, path_query).TakeValue();
  });
  report("path query (1 hop)", "path_query", path_ref_ms, path_new_ms,
         path_new.size());
  if (path_ref != path_new) {
    std::printf("ERROR: path query results diverge from the scalar path\n");
  }

  // --- hash join: 100k probe rows into a 20k-row build side ---
  auto make_side = [&](int64_t rows, uint64_t seed) {
    storage::Table t =
        storage::Table::Create({{"key", storage::DataType::kInt64},
                                {"payload", storage::DataType::kDouble}})
            .TakeValue();
    Rng r2(seed);
    for (int64_t i = 0; i < rows; ++i) {
      (void)t.AppendRow({r2.NextInt(0, 20000), r2.NextDouble()});
    }
    return t;
  };
  storage::Table join_left = make_side(kPlayers, 7);
  storage::Table join_right = make_side(20000, 8);
  storage::Table join_out_ref =
      storage::reference::HashJoin(join_left, join_right, "key", "key")
          .TakeValue();
  const double join_ref_ms = bench::MedianMs(kReps, [&] {
    auto out = storage::reference::HashJoin(join_left, join_right, "key", "key");
    benchmark::DoNotOptimize(out);
  });
  storage::Table join_out_new =
      storage::HashJoin(join_left, join_right, "key", "key",
                        storage::JoinOptions{4})
          .TakeValue();
  const double join_new_ms = bench::MedianMs(kReps, [&] {
    auto out = storage::HashJoin(join_left, join_right, "key", "key",
                                 storage::JoinOptions{4});
    benchmark::DoNotOptimize(out);
  });
  report("hash join (4 threads)", "hash_join", join_ref_ms, join_new_ms,
         static_cast<size_t>(join_out_new.num_rows()));
  if (join_out_ref.num_rows() != join_out_new.num_rows()) {
    std::printf("ERROR: join cardinality diverges from the scalar path\n");
  }

  // --- order-by/limit top-10 ---
  std::vector<int64_t> top_ref, top_new;
  const double orderby_ref_ms = bench::MedianMs(kReps, [&] {
    top_ref =
        storage::reference::OrderBy(players, "rating", true, 10).TakeValue();
  });
  const double orderby_new_ms = bench::MedianMs(kReps, [&] {
    top_new = storage::OrderBy(players, "rating", true, 10).TakeValue();
  });
  report("order-by top-10", "orderby", orderby_ref_ms, orderby_new_ms,
         top_new.size());
  if (top_ref != top_new) {
    std::printf("ERROR: order-by results diverge from the scalar path\n");
  }

  // --- bit-identity across forced SIMD tiers ---
  bool identical = sel_ref == sel_new;
  for (int level : {0, 1, 2}) {
    util::simd::SetForcedLevel(level);
    identical = identical &&
                storage::SelectAll(players, preds).TakeValue() == sel_ref &&
                webspace::ExecuteQuery(store, path_query).TakeValue() == path_ref;
  }
  util::simd::SetForcedLevel(-1);
  std::printf("\nforced tiers scalar/sse4.1/avx2 bit-identical: %s\n",
              identical ? "yes" : "NO");
  bench::PrintJsonMetric("e7_combined_query", "tiers_identical",
                         identical ? 1.0 : 0.0);
  bench::PrintRule();
}

// ---------------------------------------------------------------------------
// E7d — the cost-based multi-modal planner against the fixed-order pipeline
// (same DigitalLibrary; the off-leg runs the test-only SearchFixedOrder
// oracle). The corpus is large enough that predicate order, the filtered
// DAAT, and short-circuits dominate; results must stay bit-identical.

/// A 50k-player tournament site with 20k interviews and no videos: big
/// class tables, skewed predicate selectivities, and text postings long
/// enough that cross-modal pruning pays.
std::unique_ptr<engine::DigitalLibrary> BuildPlannerCorpus() {
  constexpr int64_t kPlayers = 50000;
  constexpr int64_t kInterviews = 20000;
  auto schema = webspace::SiteSynthesizer::TournamentSchema().TakeValue();
  auto store = webspace::WebspaceStore::Create(std::move(schema)).TakeValue();
  Rng rng(77);
  const char* countries[] = {"usa",     "france", "spain",
                             "germany", "japan",  "brazil"};
  std::vector<int64_t> player_oids;
  player_oids.reserve(kPlayers);
  for (int64_t p = 0; p < kPlayers; ++p) {
    const char* gender = rng.NextBounded(2) ? "female" : "male";
    const char* hand = rng.NextBounded(10) < 2 ? "left" : "right";
    player_oids.push_back(
        store
            .Insert("Player",
                    {"player_" + std::to_string(p), std::string(gender),
                     std::string(hand),
                     std::string(countries[rng.NextBounded(6)]),
                     int64_t{p + 1}})
            .TakeValue());
  }
  for (int year = 1995; year <= 2002; ++year) {
    int64_t tournament =
        store
            .Insert("Tournament",
                    {"open_" + std::to_string(year), int64_t{year}})
            .TakeValue();
    for (int w = 0; w < 12; ++w) {
      (void)store.Link("won", player_oids[rng.NextBounded(512)], tournament);
    }
  }
  // Interviews for the first 20k players: filler vocabulary everywhere, the
  // query terms ("playoff", "decider") on a minority of documents so their
  // postings stay short relative to text_top_k (the filter-eligibility
  // bound) while still covering thousands of documents.
  static const char* kFiller[] = {"match", "game",     "set",      "court",
                                  "coach", "season",   "training", "crowd",
                                  "serve", "baseline", "volley",   "return"};
  std::vector<std::pair<int64_t, std::string>> interviews;
  interviews.reserve(kInterviews);
  for (int64_t i = 0; i < kInterviews; ++i) {
    std::string text;
    for (int w = 0; w < 20; ++w) {
      text += kFiller[rng.NextBounded(12)];
      text += ' ';
    }
    if (rng.NextBounded(100) < 8) text += " playoff";
    if (rng.NextBounded(100) < 3) text += " decider";
    int64_t interview_oid =
        store.Insert("Interview", {"interview_" + std::to_string(i), text})
            .TakeValue();
    (void)store.Link("interviewed_in", player_oids[static_cast<size_t>(i)],
                     interview_oid);
    interviews.emplace_back(interview_oid, std::move(text));
  }
  auto library = engine::DigitalLibrary::Create(std::move(store)).TakeValue();
  for (const auto& [oid, text] : interviews) {
    (void)library->AddInterview(oid, text);
  }
  (void)library->FinalizeText();
  return library;
}

void RunPlannerVariants() {
  bench::PrintHeader("E7d", "cost-based planner vs fixed-order pipeline");
  auto library = BuildPlannerCorpus();
  constexpr int kReps = 15;

  struct Variant {
    const char* key;
    const char* label;
    engine::CombinedQuery query;
  };
  std::vector<Variant> variants;
  {
    // Predicates deliberately listed least-selective first; the planner
    // reorders ranking<=10 to the front and refines 10 rows, the fixed
    // order drags ~25k rows through three string refines.
    engine::CombinedQuery q;
    q.player_predicates = {
        {"gender", storage::CompareOp::kEq, std::string("female")},
        {"hand", storage::CompareOp::kEq, std::string("right")},
        {"country", storage::CompareOp::kEq, std::string("france")},
        {"ranking", storage::CompareOp::kLe, int64_t{10}}};
    variants.push_back({"selective_preds", "V1 selective predicates", q});
  }
  {
    // Text-heavy: the concept side pins ~100 players, so the planner pushes
    // their interview set into the DAAT as an accept filter; the fixed
    // order ranks every matching document globally and walks each hit back.
    engine::CombinedQuery q;
    q.player_predicates = {
        {"country", storage::CompareOp::kEq, std::string("japan")},
        {"ranking", storage::CompareOp::kLe, int64_t{600}}};
    q.text = "playoff decider";
    q.text_top_k = 4000;  // >= sum of document frequencies: filter-eligible
    variants.push_back({"text_filtered", "V2 text with pushed filter", q});
  }
  {
    // Provably-empty modality: "ambidextrous" misses the hand dictionary,
    // so the planner answers from statistics alone while the fixed order
    // still runs the full text search before intersecting with nothing.
    engine::CombinedQuery q;
    q.player_predicates = {
        {"hand", storage::CompareOp::kEq, std::string("ambidextrous")}};
    q.text = "playoff decider";
    q.text_top_k = 4000;
    variants.push_back({"short_circuit", "V3 provably-empty short-circuit", q});
  }

  auto same_hits = [](const std::vector<engine::SceneHit>& a,
                      const std::vector<engine::SceneHit>& b) {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i].player_oid != b[i].player_oid ||
          a[i].player_name != b[i].player_name ||
          a[i].video_oid != b[i].video_oid ||
          a[i].range.begin != b[i].range.begin ||
          a[i].range.end != b[i].range.end || a[i].event != b[i].event ||
          a[i].text_score != b[i].text_score) {
        return false;
      }
    }
    return true;
  };

  std::printf("corpus: 50000 players, 20000 interviews (planner on vs off)\n\n");
  std::printf("%-32s %10s %10s %10s %9s %6s %5s\n", "variant", "off_p50",
              "on_p50", "on_p99", "speedup", "hits", "same");
  for (const Variant& variant : variants) {
    auto run = [&](bool planner_on) {
      std::vector<double> ms;
      ms.reserve(kReps);
      std::vector<engine::SceneHit> hits;
      for (int rep = 0; rep < kReps; ++rep) {
        bench::WallTimer timer;
        hits = (planner_on ? library->Search(variant.query)
                           : engine::SearchFixedOrder(*library, variant.query))
                   .TakeValue();
        ms.push_back(timer.Millis());
      }
      return std::make_pair(std::move(hits), std::move(ms));
    };
    auto [off_hits, off_ms] = run(false);
    auto [on_hits, on_ms] = run(true);
    const bool identical = same_hits(off_hits, on_hits);
    const double off_p50 = bench::Percentile(off_ms, 0.5);
    const double on_p50 = bench::Percentile(on_ms, 0.5);
    const double speedup = off_p50 / std::max(on_p50, 1e-9);
    std::printf("%-32s %10.3f %10.3f %10.3f %8.1fx %6zu %5s\n", variant.label,
                off_p50, on_p50, bench::Percentile(on_ms, 0.99), speedup,
                on_hits.size(), identical ? "yes" : "NO");
    std::string key(variant.key);
    bench::PrintJsonMetric("e7_combined_query",
                           ("planner_" + key + "_off_p50_ms").c_str(), off_p50);
    bench::PrintJsonMetric("e7_combined_query",
                           ("planner_" + key + "_off_p99_ms").c_str(),
                           bench::Percentile(off_ms, 0.99));
    bench::PrintJsonMetric("e7_combined_query",
                           ("planner_" + key + "_on_p50_ms").c_str(), on_p50);
    bench::PrintJsonMetric("e7_combined_query",
                           ("planner_" + key + "_on_p99_ms").c_str(),
                           bench::Percentile(on_ms, 0.99));
    bench::PrintJsonMetric("e7_combined_query",
                           ("planner_" + key + "_speedup_p50").c_str(),
                           speedup);
    bench::PrintJsonMetric("e7_combined_query",
                           ("planner_" + key + "_identical").c_str(),
                           identical ? 1.0 : 0.0);
  }

  auto explain = library->ExplainSearch(variants[0].query);
  if (explain.ok()) {
    std::printf("\nexplain (V1):\n%s\n", explain.value().ToString().c_str());
  }
  bench::PrintRule();
}

void BM_CombinedQuery(benchmark::State& state) {
  const Library& lib = SharedLibrary();
  auto query = engine::ParseQuery(
                   "player.hand = left AND player.gender = female AND "
                   "won = any AND event = net_play")
                   .TakeValue();
  for (auto _ : state) {
    auto hits = lib.library->Search(query);
    benchmark::DoNotOptimize(hits);
  }
}
BENCHMARK(BM_CombinedQuery)->Unit(benchmark::kMicrosecond);

void BM_ConceptOnlyQuery(benchmark::State& state) {
  const Library& lib = SharedLibrary();
  auto query =
      engine::ParseQuery("player.hand = left AND won = any").TakeValue();
  for (auto _ : state) {
    auto hits = lib.library->Search(query);
    benchmark::DoNotOptimize(hits);
  }
}
BENCHMARK(BM_ConceptOnlyQuery)->Unit(benchmark::kMicrosecond);

void BM_KeywordBaseline(benchmark::State& state) {
  const Library& lib = SharedLibrary();
  for (auto _ : state) {
    auto hits = lib.library->SearchKeywordOnly("champion title net", 10);
    benchmark::DoNotOptimize(hits);
  }
}
BENCHMARK(BM_KeywordBaseline)->Unit(benchmark::kMicrosecond);

void BM_QueryParse(benchmark::State& state) {
  for (auto _ : state) {
    auto query = engine::ParseQuery(
        "player.hand = left AND player.gender = female AND won = any AND "
        "event = net_play AND text ~ \"approaching the net\"");
    benchmark::DoNotOptimize(query);
  }
}
BENCHMARK(BM_QueryParse)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  cobra::bench::OpenJsonArtifact("BENCH_E7.json");
  RunComparison();
  RunQueryEngine();
  RunColumnarScale();
  RunPlannerVariants();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
