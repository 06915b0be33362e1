/// \file planner_test.cc
/// The cost-based planner test suite (DESIGN.md §4g):
///   * Table statistics (Stats/Ndv/CodeCount) against brute-force counts,
///     including post-append staleness and the bulk-gather path;
///   * selectivity estimation invariants (provably_empty is certain);
///   * traversal-strategy and hash-join build-side equivalence;
///   * the accept-filtered DAAT evaluator against brute force;
///   * the planner-vs-SearchFixedOrder equivalence property sweep over all
///     2^4 modality combinations, randomized selectivities, and degenerate
///     corpora — results and errors must be identical;
///   * a top-N request returns exactly the full answer's prefix, and the
///     rank-ordered content stage stops early on some of them;
///   * errors depend on the query alone: a malformed predicate fails the
///     same way alone, after a provably-empty predicate and after a
///     matching one, through Search, ExplainSearch, QueryEngine and the
///     query language;
///   * a concurrent QueryEngine variant (tsan-labeled in CMake).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "engine/digital_library.h"
#include "engine/planner/planner.h"
#include "engine/query_engine.h"
#include "engine/query_language.h"
#include "oracles/fixed_order.h"
#include "oracles/malformed_queries.h"
#include "oracles/reference_ops.h"
#include "storage/ops.h"
#include "storage/stats.h"
#include "storage/table.h"
#include "util/rng.h"
#include "webspace/site_synthesizer.h"

namespace cobra::engine {
namespace {

using storage::ColumnDef;
using storage::CompareOp;
using storage::DataType;
using storage::Predicate;
using storage::Table;
using storage::Value;
using webspace::TraversalStrategy;

// ---------------------------------------------------------------------------
// Fixture: synthesized tournament site + interviews + synthetic video
// descriptions (no video rendering — the meta-index is populated directly).

struct PlannerFixture {
  std::unique_ptr<DigitalLibrary> library;
  webspace::SynthesizedSite truth;  // store moved out
};

std::unique_ptr<DigitalLibrary> BuildLibrary(webspace::SynthesizedSite* site,
                                             bool finalize_text,
                                             bool add_videos) {
  auto library = DigitalLibrary::Create(std::move(site->store)).TakeValue();
  for (const auto& [oid, text] : site->interview_texts) {
    EXPECT_TRUE(library->AddInterview(oid, text).ok());
  }
  if (finalize_text) {
    EXPECT_TRUE(library->FinalizeText().ok());
  }
  if (add_videos) {
    const char* names[] = {"net_play", "rally", "service", "smash"};
    Rng rng(4242);
    for (int64_t video_oid : site->video_oids) {
      core::VideoDescription desc(video_oid, "synthetic", 25.0, 40000);
      for (int e = 0; e < 30; ++e) {
        const int64_t begin = rng.NextInt(0, 39000);
        desc.Add(core::CobraLayer::kEvent,
                 grammar::Annotation(names[rng.NextBounded(4)],
                                     {begin, begin + rng.NextInt(10, 900)})
                     .Set("player", rng.NextInt(-1, 1)));
      }
      EXPECT_TRUE(library->AddVideoDescription(desc).ok());
    }
  }
  return library;
}

const PlannerFixture& SharedFixture() {
  static const PlannerFixture* fixture = [] {
    webspace::SiteConfig config;
    config.num_players = 40;
    config.num_past_years = 4;
    config.videos_per_year = 2;
    config.seed = 99;
    config.ensure_answer = true;
    auto site = webspace::SiteSynthesizer::Generate(config).TakeValue();
    auto* out = new PlannerFixture();
    out->truth.player_oids = site.player_oids;
    out->truth.tournament_oids = site.tournament_oids;
    out->truth.video_oids = site.video_oids;
    out->truth.interview_texts = site.interview_texts;
    out->truth.champions = site.champions;
    out->library = BuildLibrary(&site, /*finalize_text=*/true,
                                /*add_videos=*/true);
    return out;
  }();
  return *fixture;
}

// ---------------------------------------------------------------------------
// Table statistics vs brute force.

void CheckStatsAgainstBruteForce(const Table& table) {
  for (size_t c = 0; c < table.num_columns(); ++c) {
    auto stats = table.Stats(c).TakeValue();
    EXPECT_EQ(stats.rows, table.num_rows());
    EXPECT_EQ(stats.ndv, table.Ndv(c).TakeValue());
    switch (table.schema()[c].type) {
      case DataType::kInt64: {
        std::set<int64_t> distinct;
        int64_t lo = std::numeric_limits<int64_t>::max();
        int64_t hi = std::numeric_limits<int64_t>::min();
        for (int64_t v : table.IntColumn(c)) {
          distinct.insert(v);
          lo = std::min(lo, v);
          hi = std::max(hi, v);
        }
        EXPECT_EQ(stats.ndv, static_cast<int64_t>(distinct.size()));
        if (!distinct.empty()) {
          EXPECT_EQ(stats.range.imin, lo);
          EXPECT_EQ(stats.range.imax, hi);
        }
        break;
      }
      case DataType::kDouble: {
        // NDV counts distinct bit patterns (0.0 vs -0.0, NaN payloads).
        std::set<uint64_t> distinct;
        double lo = std::numeric_limits<double>::infinity();
        double hi = -lo;
        bool has_nan = false;
        for (double v : table.DoubleColumn(c)) {
          uint64_t bits;
          static_assert(sizeof(bits) == sizeof(v), "layout");
          std::memcpy(&bits, &v, sizeof(bits));
          distinct.insert(bits);
          if (std::isnan(v)) {
            has_nan = true;
          } else {
            lo = std::min(lo, v);
            hi = std::max(hi, v);
          }
        }
        EXPECT_EQ(stats.ndv, static_cast<int64_t>(distinct.size()));
        EXPECT_EQ(stats.range.has_nan, has_nan);
        if (lo <= hi) {
          EXPECT_EQ(stats.range.dmin, lo);
          EXPECT_EQ(stats.range.dmax, hi);
        }
        break;
      }
      case DataType::kString: {
        std::map<std::string, int64_t> counts;
        for (const std::string& s : table.StringColumn(c)) ++counts[s];
        EXPECT_EQ(stats.ndv, static_cast<int64_t>(counts.size()));
        for (const auto& [s, n] : counts) {
          const int32_t code = table.DictCode(c, s);
          ASSERT_GE(code, 0);
          EXPECT_EQ(table.CodeCount(c, code).TakeValue(), n);
        }
        EXPECT_EQ(table.CodeCount(c, -1).TakeValue(), 0);
        EXPECT_EQ(table.CodeCount(c, 1 << 20).TakeValue(), 0);
        break;
      }
    }
  }
}

Table RandomTable(Rng* rng, int64_t rows) {
  auto table = Table::Create({ColumnDef{"i", DataType::kInt64},
                              ColumnDef{"d", DataType::kDouble},
                              ColumnDef{"s", DataType::kString}})
                   .TakeValue();
  const char* words[] = {"alpha", "beta", "gamma", "delta", "epsilon"};
  for (int64_t r = 0; r < rows; ++r) {
    double d = rng->NextDouble(-5.0, 5.0);
    const uint64_t roll = rng->NextBounded(20);
    if (roll == 0) d = std::numeric_limits<double>::quiet_NaN();
    if (roll == 1) d = -0.0;
    if (roll == 2) d = 0.0;
    table
        .AppendRow({Value{rng->NextInt(-50, 50)}, Value{d},
                    Value{std::string(words[rng->NextBounded(5)])}})
        .ok();
  }
  return table;
}

TEST(TableStatsTest, MatchesBruteForceAndStaysFreshAcrossAppends) {
  Rng rng(1);
  Table table = RandomTable(&rng, 0);
  CheckStatsAgainstBruteForce(table);  // empty table
  for (int round = 0; round < 3; ++round) {
    for (int64_t r = 0; r < 700; ++r) {
      double d = rng.NextDouble(-5.0, 5.0);
      table
          .AppendRow({Value{rng.NextInt(-50, 50)}, Value{d},
                      Value{std::string(round == 2 ? "late" : "early")}})
          .ok();
    }
    // Stats must reflect every append immediately (no lazy invalidation).
    CheckStatsAgainstBruteForce(table);
  }
}

TEST(TableStatsTest, BulkGatherPathMaintainsStats) {
  Rng rng(2);
  Table table = RandomTable(&rng, 1500);
  std::vector<int64_t> rows;
  for (int64_t r = 0; r < table.num_rows(); r += 3) rows.push_back(r);
  auto gathered = storage::Materialize(table, rows, {}).TakeValue();
  CheckStatsAgainstBruteForce(gathered);
}

TEST(TableStatsTest, ErrorsOnBadColumn) {
  Rng rng(3);
  Table table = RandomTable(&rng, 5);
  EXPECT_FALSE(table.Stats(99).ok());
  EXPECT_FALSE(table.Ndv(99).ok());
  EXPECT_FALSE(table.CodeCount(0, 0).ok()) << "int column has no codes";
}

// ---------------------------------------------------------------------------
// Selectivity estimation: provably_empty must be certain; fractions sane.

TEST(SelectivityTest, ProvablyEmptyIsCertain) {
  Rng rng(7);
  for (int trial = 0; trial < 40; ++trial) {
    Table table = RandomTable(&rng, static_cast<int64_t>(rng.NextBounded(3000)));
    const char* cols[] = {"i", "d", "s"};
    const CompareOp ops[] = {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                             CompareOp::kLe, CompareOp::kGt, CompareOp::kGe};
    for (int q = 0; q < 30; ++q) {
      Predicate pred;
      pred.column = cols[rng.NextBounded(3)];
      pred.op = ops[rng.NextBounded(6)];
      if (pred.column == "i") {
        pred.literal = rng.NextInt(-80, 80);
      } else if (pred.column == "d") {
        pred.literal = rng.NextDouble(-8.0, 8.0);
      } else {
        const char* words[] = {"alpha", "beta", "zeta", "omega"};
        pred.literal = std::string(words[rng.NextBounded(4)]);
      }
      auto est = storage::EstimateSelectivity(table, pred).TakeValue();
      EXPECT_GE(est.fraction, 0.0);
      EXPECT_LE(est.fraction, 1.0);
      auto rows = storage::Select(table, pred).TakeValue();
      if (est.provably_empty) {
        EXPECT_TRUE(rows.empty())
            << "provably_empty lied for " << pred.column << " op "
            << static_cast<int>(pred.op);
      }
      if (est.exact) {
        EXPECT_DOUBLE_EQ(est.fraction,
                         table.num_rows() == 0
                             ? 0.0
                             : static_cast<double>(rows.size()) /
                                   static_cast<double>(table.num_rows()));
      }
    }
  }
}

TEST(SelectivityTest, DictionaryMissAndOutOfRangeAreEmpty) {
  Rng rng(8);
  Table table = RandomTable(&rng, 500);
  auto miss = storage::EstimateSelectivity(
                  table, {"s", CompareOp::kEq, std::string("no_such_word")})
                  .TakeValue();
  EXPECT_TRUE(miss.provably_empty);
  auto out_of_range =
      storage::EstimateSelectivity(table, {"i", CompareOp::kGt, int64_t{999}})
          .TakeValue();
  EXPECT_TRUE(out_of_range.provably_empty);
  EXPECT_FALSE(
      storage::EstimateSelectivity(table, {"nope", CompareOp::kEq, int64_t{1}})
          .ok());
}

// ---------------------------------------------------------------------------
// Costed traversal and join build sides: every strategy bit-identical.

TEST(TraversalTest, AllStrategiesAgree) {
  const PlannerFixture& fixture = SharedFixture();
  const webspace::WebspaceStore& store = fixture.library->store();
  Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<int64_t> keys;
    for (int64_t oid : fixture.truth.player_oids) {
      if (rng.NextBernoulli(trial / 20.0)) keys.push_back(oid);
    }
    for (const char* assoc : {"plays_in", "won", "interviewed_in"}) {
      const int64_t role = rng.NextBounded(3) == 0 ? 0 : -1;
      TraversalStrategy walk_chosen, scan_chosen, auto_chosen;
      auto walk = store.Traverse(assoc, keys, role, TraversalStrategy::kWalk,
                                 &walk_chosen);
      auto scan = store.Traverse(assoc, keys, role, TraversalStrategy::kScan,
                                 &scan_chosen);
      auto autod = store.Traverse(assoc, keys, role, TraversalStrategy::kAuto,
                                  &auto_chosen);
      ASSERT_TRUE(walk.ok() && scan.ok() && autod.ok());
      EXPECT_EQ(walk.value(), scan.value());
      EXPECT_EQ(walk.value(), autod.value());
      EXPECT_EQ(walk_chosen, TraversalStrategy::kWalk);
    }
  }
  // Reverse direction too.
  TraversalStrategy chosen;
  auto walk = store.TraverseReverse("won", fixture.truth.tournament_oids, -1,
                                    TraversalStrategy::kWalk, &chosen);
  auto scan = store.TraverseReverse("won", fixture.truth.tournament_oids, -1,
                                    TraversalStrategy::kScan, &chosen);
  ASSERT_TRUE(walk.ok() && scan.ok());
  EXPECT_EQ(walk.value(), scan.value());
}

void ExpectTablesEqual(const Table& a, const Table& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_EQ(a.num_columns(), b.num_columns());
  for (size_t c = 0; c < a.num_columns(); ++c) {
    EXPECT_EQ(a.schema()[c].name, b.schema()[c].name);
    ASSERT_EQ(a.schema()[c].type, b.schema()[c].type);
    for (int64_t r = 0; r < a.num_rows(); ++r) {
      EXPECT_EQ(a.GetValue(r, c).TakeValue(), b.GetValue(r, c).TakeValue())
          << "cell (" << r << ", " << c << ")";
    }
  }
}

TEST(JoinBuildSideTest, AllBuildSidesMatchReference) {
  Rng rng(13);
  for (int trial = 0; trial < 12; ++trial) {
    const int64_t lrows = static_cast<int64_t>(rng.NextBounded(400));
    const int64_t rrows = static_cast<int64_t>(rng.NextBounded(400));
    auto left = Table::Create({ColumnDef{"k", DataType::kInt64},
                               ColumnDef{"lv", DataType::kString}})
                    .TakeValue();
    auto right = Table::Create({ColumnDef{"k", DataType::kInt64},
                                ColumnDef{"rv", DataType::kInt64}})
                     .TakeValue();
    const int64_t key_space = 1 + static_cast<int64_t>(rng.NextBounded(40));
    const char* words[] = {"x", "y", "z"};
    for (int64_t r = 0; r < lrows; ++r) {
      left.AppendRow({Value{rng.NextInt(0, key_space)},
                      Value{std::string(words[rng.NextBounded(3)])}})
          .ok();
    }
    for (int64_t r = 0; r < rrows; ++r) {
      right
          .AppendRow({Value{rng.NextInt(0, key_space)},
                      Value{rng.NextInt(0, 1000)}})
          .ok();
    }
    auto ref = storage::reference::HashJoin(left, right, "k", "k").TakeValue();
    for (auto side : {storage::JoinBuildSide::kAuto,
                      storage::JoinBuildSide::kLeft,
                      storage::JoinBuildSide::kRight}) {
      storage::JoinOptions options;
      options.build_side = side;
      auto joined =
          storage::HashJoin(left, right, "k", "k", options).TakeValue();
      ExpectTablesEqual(ref, joined);
    }
  }
}

TEST(JoinBuildSideTest, StringKeysMatchReference) {
  Rng rng(14);
  auto left = Table::Create({ColumnDef{"k", DataType::kString},
                             ColumnDef{"lv", DataType::kInt64}})
                  .TakeValue();
  auto right = Table::Create({ColumnDef{"k", DataType::kString},
                              ColumnDef{"rv", DataType::kInt64}})
                   .TakeValue();
  const char* keys[] = {"ace", "fault", "let", "rally", "smash"};
  for (int64_t r = 0; r < 300; ++r) {
    left.AppendRow({Value{std::string(keys[rng.NextBounded(5)])},
                    Value{r}})
        .ok();
  }
  for (int64_t r = 0; r < 37; ++r) {
    right
        .AppendRow({Value{std::string(keys[rng.NextBounded(3)])}, Value{-r}})
        .ok();
  }
  auto ref = storage::reference::HashJoin(left, right, "k", "k").TakeValue();
  for (auto side : {storage::JoinBuildSide::kAuto,
                    storage::JoinBuildSide::kLeft,
                    storage::JoinBuildSide::kRight}) {
    storage::JoinOptions options;
    options.build_side = side;
    auto joined = storage::HashJoin(left, right, "k", "k", options).TakeValue();
    ExpectTablesEqual(ref, joined);
  }
}

// ---------------------------------------------------------------------------
// Accept-filtered DAAT vs brute force.

TEST(FilteredTopNTest, ExactTopNOfAcceptedSubset) {
  text::InvertedIndex index;
  Rng rng(17);
  const char* vocab[] = {"net",   "serve",  "volley", "champion", "rally",
                         "match", "winner", "court",  "tennis",   "title"};
  constexpr int64_t kDocs = 200;
  for (int64_t d = 0; d < kDocs; ++d) {
    std::string doc;
    const int len = 5 + static_cast<int>(rng.NextBounded(30));
    for (int w = 0; w < len; ++w) {
      doc += vocab[rng.NextBounded(10)];
      doc += ' ';
    }
    ASSERT_TRUE(index.AddText(d * 3, doc).ok());  // sparse non-contiguous ids
  }
  ASSERT_TRUE(index.Finalize().ok());

  const std::string queries[] = {"champion title", "net volley serve",
                                 "tennis", "winner rally champion match"};
  for (const std::string& query : queries) {
    // Global exhaustive ranking as ground truth.
    auto global = index.SearchExhaustive(query, kDocs + 1).TakeValue();
    for (int trial = 0; trial < 10; ++trial) {
      std::vector<int64_t> accept;
      for (int64_t d = 0; d < kDocs; ++d) {
        if (rng.NextBernoulli(0.3)) accept.push_back(d * 3);
      }
      for (size_t n : {size_t{3}, size_t{10}, size_t{500}}) {
        std::vector<text::SearchHit> expected;
        const std::set<int64_t> accept_set(accept.begin(), accept.end());
        for (const text::SearchHit& hit : global) {
          if (accept_set.count(hit.doc_id)) expected.push_back(hit);
          if (expected.size() == n) break;
        }
        auto filtered = index.SearchTopNFiltered(query, n, accept).TakeValue();
        ASSERT_EQ(filtered.size(), expected.size()) << query << " n=" << n;
        for (size_t i = 0; i < filtered.size(); ++i) {
          EXPECT_EQ(filtered[i].doc_id, expected[i].doc_id);
          EXPECT_DOUBLE_EQ(filtered[i].score, expected[i].score);
        }
      }
    }
    // Empty accept set: no hits, no error.
    EXPECT_TRUE(index.SearchTopNFiltered(query, 10, {}).TakeValue().empty());
  }
}

// ---------------------------------------------------------------------------
// Planner vs fixed-order equivalence.

void ExpectSameAnswer(const DigitalLibrary& library, const CombinedQuery& query,
                      const char* label) {
  auto fixed = SearchFixedOrder(library, query);
  planner::PlanExplain explain;
  auto planned = library.Search(query, nullptr, &explain);
  ASSERT_EQ(fixed.ok(), planned.ok())
      << label << ": fixed "
      << (fixed.ok() ? "ok" : fixed.status().ToString()) << " vs planned "
      << (planned.ok() ? "ok" : planned.status().ToString());
  if (!fixed.ok()) {
    EXPECT_EQ(fixed.status().ToString(), planned.status().ToString()) << label;
    return;
  }
  const auto& a = fixed.value();
  const auto& b = planned.value();
  ASSERT_EQ(a.size(), b.size()) << label << "\n" << explain.ToString();
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].player_oid, b[i].player_oid) << label << " hit " << i;
    EXPECT_EQ(a[i].player_name, b[i].player_name) << label << " hit " << i;
    EXPECT_EQ(a[i].video_oid, b[i].video_oid) << label << " hit " << i;
    EXPECT_EQ(a[i].range.begin, b[i].range.begin) << label << " hit " << i;
    EXPECT_EQ(a[i].range.end, b[i].range.end) << label << " hit " << i;
    EXPECT_EQ(a[i].event, b[i].event) << label << " hit " << i;
    // Bit-identical, not approximately equal.
    EXPECT_EQ(a[i].text_score, b[i].text_score) << label << " hit " << i;
  }
}

CombinedQuery RandomQuery(Rng* rng, int combo) {
  const bool with_preds = combo & 1;
  const bool with_champ = combo & 2;
  const bool with_text = combo & 4;
  const bool with_event = combo & 8;
  CombinedQuery query;
  if (with_preds) {
    const int n = 1 + static_cast<int>(rng->NextBounded(3));
    for (int i = 0; i < n; ++i) {
      switch (rng->NextBounded(6)) {
        case 0:
          query.player_predicates.push_back(
              {"gender", CompareOp::kEq, std::string("female")});
          break;
        case 1:
          query.player_predicates.push_back(
              {"hand", CompareOp::kEq, std::string("left")});
          break;
        case 2:
          query.player_predicates.push_back(
              {"ranking", CompareOp::kLe, rng->NextInt(1, 40)});
          break;
        case 3:
          query.player_predicates.push_back(
              {"ranking", CompareOp::kGe, rng->NextInt(1, 45)});
          break;
        case 4:  // provably empty: no such dictionary entry
          query.player_predicates.push_back(
              {"hand", CompareOp::kEq, std::string("ambidextrous")});
          break;
        case 5:  // provably empty: outside the zone range
          query.player_predicates.push_back(
              {"ranking", CompareOp::kGt, int64_t{100000}});
          break;
      }
    }
  }
  if (with_champ) {
    query.require_champion = true;
    switch (rng->NextBounded(3)) {
      case 0:
        break;  // any year
      case 1:
        query.won_year = 1996 + rng->NextInt(0, 3);
        break;
      case 2:
        query.won_year = 1800;  // provably empty year
        break;
    }
  }
  if (with_text) {
    const char* texts[] = {"champion", "tournament", "champion winner title",
                           "net approach volley"};
    query.text = texts[rng->NextBounded(4)];
    const size_t topks[] = {0, 3, 10, 100000};
    query.text_top_k = topks[rng->NextBounded(4)];
  }
  if (with_event) {
    const char* events[] = {"net_play", "rally", "no_such_event"};
    query.event = events[rng->NextBounded(3)];
  }
  return query;
}

TEST(PlannerEquivalenceTest, AllModalityCombosMatchFixedOrder) {
  const PlannerFixture& fixture = SharedFixture();
  Rng rng(21);
  for (int combo = 0; combo < 16; ++combo) {
    for (int variant = 0; variant < 12; ++variant) {
      CombinedQuery query = RandomQuery(&rng, combo);
      const std::string label =
          "combo=" + std::to_string(combo) + " variant=" +
          std::to_string(variant);
      ExpectSameAnswer(*fixture.library, query, label.c_str());
    }
  }
}

TEST(PlannerEquivalenceTest, InvalidPredicatesErrorIdentically) {
  const PlannerFixture& fixture = SharedFixture();
  const DigitalLibrary& library = *fixture.library;
  QueryEngineConfig config;
  config.enable_cache = false;
  QueryEngine engine(&library, config);
  for (const char* kind : {"unknown column", "type mismatch"}) {
    // Every placement of one malformed predicate fails with one status.
    std::string first_status;
    for (const MalformedQuery& m : MalformedQueries()) {
      if (m.kind != kind) continue;
      auto parsed = ParseQuery(m.text);
      ASSERT_TRUE(parsed.ok()) << m.label << ": " << parsed.status().ToString();
      ASSERT_EQ(FormatQuery(*parsed), FormatQuery(m.query)) << m.label;
      for (const CombinedQuery& query : {m.query, *parsed}) {
        ExpectSameAnswer(library, query, m.label.c_str());
        auto searched = library.Search(query);
        ASSERT_FALSE(searched.ok()) << m.label << " must error";
        const std::string status = searched.status().ToString();
        EXPECT_EQ(library.ExplainSearch(query).status().ToString(), status)
            << m.label;
        EXPECT_EQ(engine.Search(query).status().ToString(), status)
            << m.label;
        if (first_status.empty()) first_status = status;
        EXPECT_EQ(status, first_status) << m.label;
      }
    }
    EXPECT_FALSE(first_status.empty()) << kind;
  }

  CombinedQuery bad_type;
  bad_type.player_predicates = {{"ranking", CompareOp::kEq,
                                 std::string("left")}};
  bad_type.text = "champion";
  ExpectSameAnswer(library, bad_type, "type mismatch with text");

  CombinedQuery stop_words_only;
  stop_words_only.text = "the of and";
  stop_words_only.player_predicates = {
      {"hand", CompareOp::kEq, std::string("ambidextrous")}};
  ExpectSameAnswer(library, stop_words_only,
                   "stop-word text must error despite empty concept stage");
  EXPECT_FALSE(library.Search(stop_words_only).ok());
}

TEST(PlannerEquivalenceTest, DegenerateCorpora) {
  // Empty store: every combo must agree (empty results or identical errors).
  {
    auto schema = webspace::SiteSynthesizer::TournamentSchema().TakeValue();
    auto store = webspace::WebspaceStore::Create(std::move(schema)).TakeValue();
    auto library = DigitalLibrary::Create(std::move(store)).TakeValue();
    Rng rng(31);
    for (int combo = 0; combo < 16; ++combo) {
      CombinedQuery query = RandomQuery(&rng, combo);
      ExpectSameAnswer(*library, query,
                       ("empty store combo=" + std::to_string(combo)).c_str());
    }
  }
  // Text never finalized: text queries must error identically.
  {
    webspace::SiteConfig config;
    config.num_players = 8;
    config.num_past_years = 2;
    config.seed = 5;
    auto site = webspace::SiteSynthesizer::Generate(config).TakeValue();
    auto library =
        BuildLibrary(&site, /*finalize_text=*/false, /*add_videos=*/false);
    Rng rng(32);
    for (int combo = 0; combo < 16; ++combo) {
      CombinedQuery query = RandomQuery(&rng, combo);
      ExpectSameAnswer(
          *library, query,
          ("unfinalized combo=" + std::to_string(combo)).c_str());
    }
  }
  // No indexed videos: event queries short-circuit to the same empties.
  {
    webspace::SiteConfig config;
    config.num_players = 8;
    config.num_past_years = 2;
    config.seed = 6;
    auto site = webspace::SiteSynthesizer::Generate(config).TakeValue();
    auto library =
        BuildLibrary(&site, /*finalize_text=*/true, /*add_videos=*/false);
    Rng rng(33);
    for (int combo = 0; combo < 16; ++combo) {
      CombinedQuery query = RandomQuery(&rng, combo);
      ExpectSameAnswer(
          *library, query,
          ("no videos combo=" + std::to_string(combo)).c_str());
    }
  }
}

// ---------------------------------------------------------------------------
// Top-N pushdown: the rank-ordered content stage returns the full answer's
// prefix and stops early.

/// Pairs the content stage visited and built, from its explain step
/// ("events:pairs(visited=V)" / "similar:pairs(visited=V)", est = built);
/// {-1, -1} when no content stage ran.
std::pair<int64_t, int64_t> PairsVisitedAndBuilt(
    const planner::PlanExplain& explain) {
  for (const planner::PlanStep& step : explain.steps) {
    const size_t at = step.name.find(":pairs(visited=");
    if (at == std::string::npos) continue;
    const int64_t visited =
        std::stoll(step.name.substr(at + std::strlen(":pairs(visited=")));
    return {visited, step.actual_rows};
  }
  return {-1, -1};
}

TEST(PlannerTopNTest, SearchPlannedTopNIsTheFullAnswersPrefix) {
  const PlannerFixture& fixture = SharedFixture();
  const DigitalLibrary& library = *fixture.library;
  Rng rng(77);
  size_t stopped_early = 0;
  for (int combo = 0; combo < 16; ++combo) {
    for (int variant = 0; variant < 8; ++variant) {
      const CombinedQuery query = RandomQuery(&rng, combo);
      auto full = planner::SearchPlanned(library, query, nullptr, nullptr);
      for (size_t top_n : {size_t{1}, size_t{2}, size_t{3}, size_t{10},
                           size_t{37}}) {
        const std::string label = "combo=" + std::to_string(combo) +
                                  " variant=" + std::to_string(variant) +
                                  " n=" + std::to_string(top_n);
        planner::PlanExplain explain;
        auto top = planner::SearchPlanned(library, {query, top_n}, nullptr,
                                          &explain);
        ASSERT_EQ(full.ok(), top.ok()) << label;
        if (!full.ok()) {
          EXPECT_EQ(full.status().ToString(), top.status().ToString())
              << label;
          continue;
        }
        const size_t want = std::min(top_n, full->size());
        ASSERT_EQ(top->size(), want) << label;
        for (size_t i = 0; i < want; ++i) {
          const SceneHit& a = (*full)[i];
          const SceneHit& b = (*top)[i];
          EXPECT_EQ(a.player_oid, b.player_oid) << label << " hit " << i;
          EXPECT_EQ(a.player_name, b.player_name) << label << " hit " << i;
          EXPECT_EQ(a.video_oid, b.video_oid) << label << " hit " << i;
          EXPECT_EQ(a.range.begin, b.range.begin) << label << " hit " << i;
          EXPECT_EQ(a.range.end, b.range.end) << label << " hit " << i;
          EXPECT_EQ(a.event, b.event) << label << " hit " << i;
          EXPECT_EQ(a.text_score, b.text_score) << label << " hit " << i;
          EXPECT_EQ(a.similarity, b.similarity) << label << " hit " << i;
        }
        const auto [visited, built] = PairsVisitedAndBuilt(explain);
        EXPECT_LE(visited, built) << label;
        if (visited >= 0 && visited < built) ++stopped_early;
      }
    }
  }
  EXPECT_GT(stopped_early, 0u);  // the early stop actually fired
}

TEST(PlannerTest, ExplainReportsShortCircuitAndSteps) {
  const PlannerFixture& fixture = SharedFixture();
  CombinedQuery query;
  query.player_predicates = {
      {"hand", CompareOp::kEq, std::string("ambidextrous")}};
  auto explain = fixture.library->ExplainSearch(query).TakeValue();
  EXPECT_TRUE(explain.short_circuited);
  EXPECT_FALSE(explain.steps.empty());
  EXPECT_NE(explain.ToString().find("short_circuit"), std::string::npos);

  CombinedQuery full;
  full.player_predicates = {
      {"gender", CompareOp::kEq, std::string("female")},
      {"hand", CompareOp::kEq, std::string("left")}};
  full.require_champion = true;
  full.event = "net_play";
  auto full_explain = fixture.library->ExplainSearch(full).TakeValue();
  EXPECT_FALSE(full_explain.steps.empty());
  // Estimated and actual cardinalities are both recorded per step.
  bool executed_step = false;
  for (const auto& step : full_explain.steps) {
    executed_step = executed_step || step.actual_rows >= 0;
  }
  EXPECT_TRUE(executed_step) << full_explain.ToString();
}

// ---------------------------------------------------------------------------
// Concurrent QueryEngine variant (tsan-labeled via CMake).

TEST(PlannerConcurrencyTest, BatchMatchesFixedOrderUnderThreads) {
  const PlannerFixture& fixture = SharedFixture();
  Rng rng(41);
  std::vector<CombinedQuery> queries;
  for (int combo = 0; combo < 16; ++combo) {
    queries.push_back(RandomQuery(&rng, combo));
    queries.push_back(RandomQuery(&rng, combo));
  }
  std::vector<Result<std::vector<SceneHit>>> expected;
  for (const CombinedQuery& q : queries) {
    expected.push_back(SearchFixedOrder(*fixture.library, q));
  }

  QueryEngineConfig config;
  config.num_threads = 4;
  config.enable_cache = false;  // force every query through the planner
  QueryEngine engine(fixture.library.get(), config);
  auto results = engine.SearchBatch(queries);
  ASSERT_EQ(results.size(), expected.size());
  for (size_t i = 0; i < results.size(); ++i) {
    ASSERT_EQ(results[i].ok(), expected[i].ok()) << "query " << i;
    if (!expected[i].ok()) {
      EXPECT_EQ(results[i].status().ToString(), expected[i].status().ToString());
      continue;
    }
    const auto& a = expected[i].value();
    const auto& b = results[i].value();
    ASSERT_EQ(a.size(), b.size()) << "query " << i;
    for (size_t j = 0; j < a.size(); ++j) {
      EXPECT_EQ(a[j].player_oid, b[j].player_oid);
      EXPECT_EQ(a[j].video_oid, b[j].video_oid);
      EXPECT_EQ(a[j].range.begin, b[j].range.begin);
      EXPECT_EQ(a[j].range.end, b[j].range.end);
      EXPECT_EQ(a[j].event, b[j].event);
      EXPECT_EQ(a[j].text_score, b[j].text_score);
    }
  }
  auto stats = engine.stats();
  EXPECT_GT(stats.planner_plans, 0);
  EXPECT_GT(stats.planner_short_circuits, 0);

  auto explain = engine.Explain(queries[0]);
  ASSERT_TRUE(explain.ok());
  EXPECT_NE(explain.value().find("plan:"), std::string::npos);
}

}  // namespace
}  // namespace cobra::engine
