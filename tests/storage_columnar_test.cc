// Property tests for the vectorized columnar execution layer (DESIGN.md
// §4f): the block-at-a-time Select/Refine/SelectAll, the dictionary-encoded
// string predicates, the partitioned HashJoin and the top-k OrderBy must be
// bit-identical to the row-at-a-time `storage::reference` oracle — across
// every forced SIMD tier, every comparison op, selectivities from empty to
// all-match, NaN doubles, dictionary misses and empty tables.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "oracles/reference_ops.h"
#include "storage/ops.h"
#include "storage/table.h"
#include "util/rng.h"
#include "util/simd.h"

namespace cobra::storage {
namespace {

using util::simd::SetForcedLevel;

// Forced dispatch caps exercised by every property: auto, scalar, SSE4.1,
// AVX2. Unavailable tiers clamp to the best compiled+supported one, so each
// run is a valid (possibly duplicate) equivalence check on any machine.
const int kForcedLevels[] = {-1, 0, 1, 2};

class ForcedTierGuard {
 public:
  explicit ForcedTierGuard(int level) { SetForcedLevel(level); }
  ~ForcedTierGuard() { SetForcedLevel(-1); }
};

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// A table wide enough to exercise every typed path, and (at `rows` >
// Table::kBlockRows) several zone-map blocks: `id` ascending (zones
// actually skip range predicates), `val` low-cardinality, `score` doubles
// with optional NaN stripes, `name`/`tag` dictionary-encoded strings.
Table MakeTable(int64_t rows, uint64_t seed, bool with_nan) {
  Table t = Table::Create({{"id", DataType::kInt64},
                           {"val", DataType::kInt64},
                           {"score", DataType::kDouble},
                           {"name", DataType::kString},
                           {"tag", DataType::kString}})
                .TakeValue();
  Rng rng(seed);
  const char* tags[] = {"net_play", "rally", "service", "smash_net", "lob"};
  for (int64_t r = 0; r < rows; ++r) {
    double score = rng.NextDouble(-1.0, 1.0);
    if (with_nan && rng.NextBounded(7) == 0) score = kNaN;
    std::string name = "player_" + std::to_string(rng.NextBounded(17));
    std::string tag = tags[rng.NextBounded(5)];
    EXPECT_TRUE(t.AppendRow({r, rng.NextInt(-50, 50), score, std::move(name),
                             std::move(tag)})
                    .ok());
  }
  return t;
}

std::vector<Predicate> AllPredicates(const Table& t, Rng& rng) {
  const CompareOp ops[] = {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                           CompareOp::kLe, CompareOp::kGt, CompareOp::kGe};
  std::vector<Predicate> preds;
  const int64_t n = t.num_rows();
  for (CompareOp op : ops) {
    // id: literals inside, below and above the domain (empty / all-match
    // selectivities included).
    for (int64_t lit : {int64_t{0}, n / 2, n - 1, int64_t{-5}, n + 5}) {
      preds.push_back({"id", op, lit});
    }
    for (int64_t lit : {int64_t{-50}, int64_t{0}, int64_t{7}, int64_t{999}}) {
      preds.push_back({"val", op, lit});
    }
    for (double lit : {-2.0, -0.25, 0.0, 0.5, 2.0, kNaN}) {
      preds.push_back({"score", op, lit});
    }
    // Strings: present values, a dictionary miss, and ordering literals
    // that split the vocabulary.
    for (const char* lit : {"player_3", "player_999", "player_", "zzz"}) {
      preds.push_back({"name", op, std::string(lit)});
    }
    preds.push_back({"tag", op, std::string("rally")});
  }
  for (const char* needle : {"net", "rally", "xyz", ""}) {
    preds.push_back({"tag", CompareOp::kContains, std::string(needle)});
    preds.push_back({"name", CompareOp::kContains, std::string(needle)});
  }
  // A few random literals for coverage beyond the hand-picked ones.
  for (int i = 0; i < 10; ++i) {
    preds.push_back({"val", ops[rng.NextBounded(6)], rng.NextInt(-60, 60)});
    preds.push_back({"score", ops[rng.NextBounded(6)],
                     rng.NextDouble(-1.2, 1.2)});
  }
  return preds;
}

std::string PredName(const Predicate& p) {
  return p.column + "/op" + std::to_string(static_cast<int>(p.op)) + "/" +
         ValueToString(p.literal);
}

void ExpectTablesEqual(const Table& a, const Table& b) {
  ASSERT_EQ(a.num_columns(), b.num_columns());
  ASSERT_EQ(a.num_rows(), b.num_rows());
  for (size_t c = 0; c < a.num_columns(); ++c) {
    EXPECT_EQ(a.schema()[c].name, b.schema()[c].name);
    ASSERT_EQ(a.schema()[c].type, b.schema()[c].type);
    for (int64_t r = 0; r < a.num_rows(); ++r) {
      Value va = a.GetValue(r, c).TakeValue();
      Value vb = b.GetValue(r, c).TakeValue();
      if (a.schema()[c].type == DataType::kDouble) {
        double da = std::get<double>(va), db = std::get<double>(vb);
        if (std::isnan(da) && std::isnan(db)) continue;
        EXPECT_EQ(da, db) << "row " << r << " col " << c;
      } else {
        EXPECT_EQ(CompareValues(va, vb), 0) << "row " << r << " col " << c;
      }
    }
  }
}

TEST(ColumnarSelectTest, MatchesReferenceOnEveryTierAndPredicate) {
  for (int64_t rows : {int64_t{0}, int64_t{1}, int64_t{100}, int64_t{5000}}) {
    Table t = MakeTable(rows, 7 + static_cast<uint64_t>(rows), true);
    Rng rng(11);
    const std::vector<Predicate> preds = AllPredicates(t, rng);
    for (const Predicate& pred : preds) {
      const auto expected = reference::Select(t, pred);
      ASSERT_TRUE(expected.ok()) << PredName(pred);
      for (int level : kForcedLevels) {
        ForcedTierGuard guard(level);
        const auto got = Select(t, pred);
        ASSERT_TRUE(got.ok()) << PredName(pred);
        EXPECT_EQ(got.value(), expected.value())
            << PredName(pred) << " rows=" << rows << " tier=" << level;
      }
    }
  }
}

TEST(ColumnarSelectTest, AllMatchConstantColumn) {
  Table t = Table::Create({{"k", DataType::kInt64}, {"s", DataType::kString}})
                .TakeValue();
  for (int64_t r = 0; r < 4000; ++r) {
    ASSERT_TRUE(t.AppendRow({int64_t{42}, std::string("same")}).ok());
  }
  for (int level : kForcedLevels) {
    ForcedTierGuard guard(level);
    for (const Predicate& pred :
         {Predicate{"k", CompareOp::kEq, int64_t{42}},
          Predicate{"k", CompareOp::kLe, int64_t{42}},
          Predicate{"s", CompareOp::kEq, std::string("same")},
          Predicate{"s", CompareOp::kContains, std::string("am")}}) {
      const auto got = Select(t, pred);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(got.value().size(), 4000u) << PredName(pred);
    }
    // Dictionary miss: kEq empty, kNe everything.
    EXPECT_TRUE(
        Select(t, {"s", CompareOp::kEq, std::string("absent")})->empty());
    EXPECT_EQ(
        Select(t, {"s", CompareOp::kNe, std::string("absent")})->size(), 4000u);
  }
}

TEST(ColumnarRefineTest, MatchesReferenceOnRandomCandidateSets) {
  Table t = MakeTable(5000, 23, true);
  Rng rng(31);
  const std::vector<Predicate> preds = AllPredicates(t, rng);
  // Candidate sets of varied density, always ascending (the Select output
  // contract), including empty and all-rows.
  std::vector<std::vector<int64_t>> candidate_sets;
  candidate_sets.emplace_back();
  for (int density : {1, 7, 64}) {
    std::vector<int64_t> cands;
    for (int64_t r = 0; r < t.num_rows(); ++r) {
      if (rng.NextBounded(static_cast<uint64_t>(density)) == 0) {
        cands.push_back(r);
      }
    }
    candidate_sets.push_back(std::move(cands));
  }
  for (const Predicate& pred : preds) {
    for (const auto& cands : candidate_sets) {
      const auto expected = reference::Refine(t, pred, cands);
      ASSERT_TRUE(expected.ok());
      for (int level : kForcedLevels) {
        ForcedTierGuard guard(level);
        const auto got = Refine(t, pred, cands);
        ASSERT_TRUE(got.ok());
        EXPECT_EQ(got.value(), expected.value())
            << PredName(pred) << " cands=" << cands.size();
      }
    }
  }
}

TEST(ColumnarSelectAllTest, ConjunctionsMatchReference) {
  Table t = MakeTable(5000, 41, true);
  const std::vector<std::vector<Predicate>> conjunctions = {
      {},
      {{"val", CompareOp::kGe, int64_t{0}}},
      {{"val", CompareOp::kGe, int64_t{0}},
       {"name", CompareOp::kEq, std::string("player_3")}},
      {{"tag", CompareOp::kContains, std::string("net")},
       {"score", CompareOp::kGt, 0.0},
       {"id", CompareOp::kLt, int64_t{2500}}},
      {{"name", CompareOp::kEq, std::string("nobody")},
       {"val", CompareOp::kEq, int64_t{1}}},
  };
  for (const auto& preds : conjunctions) {
    const auto expected = reference::SelectAll(t, preds);
    ASSERT_TRUE(expected.ok());
    for (int level : kForcedLevels) {
      ForcedTierGuard guard(level);
      const auto got = SelectAll(t, preds);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(got.value(), expected.value());
    }
  }
}

Table MakeJoinSide(int64_t rows, uint64_t seed, int64_t key_range,
                   bool string_key) {
  Table t = Table::Create({{"key_i", DataType::kInt64},
                           {"key_s", DataType::kString},
                           {"payload", DataType::kDouble}})
                .TakeValue();
  Rng rng(seed);
  for (int64_t r = 0; r < rows; ++r) {
    const int64_t k = rng.NextInt(0, key_range);
    EXPECT_TRUE(t.AppendRow({k, "k" + std::to_string(string_key
                                                         ? rng.NextInt(0, key_range)
                                                         : k),
                             rng.NextDouble()})
                    .ok());
  }
  return t;
}

TEST(ColumnarHashJoinTest, IntAndStringKeysMatchReferenceAtAnyThreadCount) {
  for (int64_t rows : {int64_t{0}, int64_t{37}, int64_t{9000}}) {
    Table left = MakeJoinSide(rows, 5, 200, true);
    Table right = MakeJoinSide(rows / 2 + 3, 6, 200, true);
    for (const char* key : {"key_i", "key_s"}) {
      const auto expected = reference::HashJoin(left, right, key, key);
      ASSERT_TRUE(expected.ok());
      for (int threads : {1, 4}) {
        for (int level : kForcedLevels) {
          ForcedTierGuard guard(level);
          auto got = HashJoin(left, right, key, key, JoinOptions{threads});
          ASSERT_TRUE(got.ok());
          ExpectTablesEqual(got.value(), expected.value());
        }
      }
    }
  }
}

TEST(ColumnarHashJoinTest, DoubleKeysKeepReferenceSemantics) {
  Table left = MakeJoinSide(50, 7, 10, false);
  Table right = MakeJoinSide(60, 7, 10, false);  // same seed: shared payloads
  const auto expected = reference::HashJoin(left, right, "payload", "payload");
  ASSERT_TRUE(expected.ok());
  auto got = HashJoin(left, right, "payload", "payload", JoinOptions{4});
  ASSERT_TRUE(got.ok());
  ExpectTablesEqual(got.value(), expected.value());
}

TEST(ColumnarOrderByTest, TopKMatchesReferenceFullSort) {
  // NaN-free scores: the OrderBy comparator (like the reference's) is only
  // a strict weak ordering over non-NaN keys.
  Table t = MakeTable(5000, 57, false);
  for (const char* column : {"id", "val", "score", "name"}) {
    for (bool desc : {false, true}) {
      for (size_t limit : {size_t{0}, size_t{1}, size_t{10}, size_t{4999},
                           size_t{5000}, size_t{8000}}) {
        const auto expected = reference::OrderBy(t, column, desc, limit);
        ASSERT_TRUE(expected.ok());
        const auto got = OrderBy(t, column, desc, limit);
        ASSERT_TRUE(got.ok());
        EXPECT_EQ(got.value(), expected.value())
            << column << " desc=" << desc << " limit=" << limit;
      }
    }
  }
}

TEST(ColumnarMaterializeTest, GatheredTablesKeepZoneMapsConsistent) {
  Table t = MakeTable(5000, 71, true);
  Rng rng(73);
  std::vector<int64_t> rows;
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    if (rng.NextBounded(3) != 0) rows.push_back(r);
  }
  auto sub = Materialize(t, rows, {"id", "score", "name"});
  ASSERT_TRUE(sub.ok());
  ASSERT_EQ(sub->num_rows(), static_cast<int64_t>(rows.size()));
  // The gathered table must behave exactly like one built row-at-a-time:
  // every predicate over it agrees with the reference scan (this exercises
  // the rebuilt dictionaries and the zone maps extended by FinishGather).
  Rng rng2(79);
  for (const Predicate& pred : AllPredicates(sub.value(), rng2)) {
    if (sub->ColumnIndex(pred.column).ok()) {
      const auto expected = reference::Select(sub.value(), pred);
      ASSERT_TRUE(expected.ok());
      for (int level : kForcedLevels) {
        ForcedTierGuard guard(level);
        const auto got = Select(sub.value(), pred);
        ASSERT_TRUE(got.ok());
        EXPECT_EQ(got.value(), expected.value()) << PredName(pred);
      }
    }
  }
  // Round-trip: materializing every row reproduces the table.
  std::vector<int64_t> all;
  for (int64_t r = 0; r < t.num_rows(); ++r) all.push_back(r);
  auto copy = Materialize(t, all);
  ASSERT_TRUE(copy.ok());
  ExpectTablesEqual(copy.value(), t);
}

TEST(ColumnarKernelsTest, DictionaryTracksAppendOrder) {
  Table t = Table::Create({{"s", DataType::kString}}).TakeValue();
  for (const char* v : {"b", "a", "b", "c", "a"}) {
    ASSERT_TRUE(t.AppendRow({std::string(v)}).ok());
  }
  EXPECT_EQ(t.Dictionary(0), (std::vector<std::string>{"b", "a", "c"}));
  EXPECT_EQ(t.StringCodes(0), (std::vector<int32_t>{0, 1, 0, 2, 1}));
  EXPECT_EQ(t.DictCode(0, "c"), 2);
  EXPECT_EQ(t.DictCode(0, "missing"), -1);
}

TEST(ColumnarKernelsTest, ZoneMapsCoverEveryBlock) {
  Table t = MakeTable(Table::kBlockRows * 2 + 100, 91, true);
  const size_t id_col = t.ColumnIndex("id").TakeValue();
  const auto& zones = t.Zones(id_col);
  ASSERT_EQ(zones.size(), 3u);
  EXPECT_EQ(zones[0].imin, 0);
  EXPECT_EQ(zones[0].imax, Table::kBlockRows - 1);
  EXPECT_EQ(zones[2].imin, Table::kBlockRows * 2);
  EXPECT_EQ(zones[2].imax, Table::kBlockRows * 2 + 99);
}

}  // namespace
}  // namespace cobra::storage
