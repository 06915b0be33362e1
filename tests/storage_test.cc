#include <gtest/gtest.h>

#include "storage/ops.h"
#include "storage/table.h"

namespace cobra::storage {
namespace {

Table PlayersTable() {
  auto t = Table::Create({{"id", DataType::kInt64},
                          {"name", DataType::kString},
                          {"hand", DataType::kString},
                          {"rank", DataType::kInt64},
                          {"win_pct", DataType::kDouble}})
               .TakeValue();
  EXPECT_TRUE(t.AppendRow({int64_t{1}, std::string("Serena"), std::string("right"),
                           int64_t{1}, 0.86})
                  .ok());
  EXPECT_TRUE(t.AppendRow({int64_t{2}, std::string("Monica"), std::string("left"),
                           int64_t{3}, 0.79})
                  .ok());
  EXPECT_TRUE(t.AppendRow({int64_t{3}, std::string("Martina"), std::string("left"),
                           int64_t{2}, 0.81})
                  .ok());
  EXPECT_TRUE(t.AppendRow({int64_t{4}, std::string("Justine"), std::string("right"),
                           int64_t{5}, 0.74})
                  .ok());
  return t;
}

// ---------- Table ----------

TEST(TableTest, SchemaValidation) {
  EXPECT_FALSE(Table::Create({{"", DataType::kInt64}}).ok());
  EXPECT_FALSE(
      Table::Create({{"a", DataType::kInt64}, {"a", DataType::kDouble}}).ok());
  EXPECT_TRUE(Table::Create({}).ok());
}

TEST(TableTest, AppendAndGet) {
  Table t = PlayersTable();
  EXPECT_EQ(t.num_rows(), 4);
  EXPECT_EQ(t.num_columns(), 5u);
  EXPECT_EQ(t.GetString(0, 1).TakeValue(), "Serena");
  EXPECT_EQ(t.GetInt(2, 3).TakeValue(), 2);
  EXPECT_DOUBLE_EQ(t.GetDouble(3, 4).TakeValue(), 0.74);
  EXPECT_EQ(ValueToString(t.GetValue(1, 2).TakeValue()), "left");
}

TEST(TableTest, AppendErrors) {
  Table t = PlayersTable();
  EXPECT_TRUE(t.AppendRow({int64_t{9}}).IsInvalidArgument());  // arity
  EXPECT_TRUE(t.AppendRow({std::string("x"), std::string("y"), std::string("z"),
                           int64_t{0}, 0.0})
                  .IsInvalidArgument());  // type
}

TEST(TableTest, AccessErrors) {
  Table t = PlayersTable();
  EXPECT_FALSE(t.GetInt(99, 0).ok());
  EXPECT_FALSE(t.GetInt(0, 99).ok());
  EXPECT_FALSE(t.GetInt(0, 1).ok());  // wrong type
  EXPECT_TRUE(t.ColumnIndex("ghost").status().IsNotFound());
}

TEST(TableTest, ValueHelpers) {
  EXPECT_EQ(TypeOf(Value{int64_t{1}}), DataType::kInt64);
  EXPECT_EQ(TypeOf(Value{1.5}), DataType::kDouble);
  EXPECT_EQ(TypeOf(Value{std::string("x")}), DataType::kString);
  EXPECT_EQ(CompareValues(Value{int64_t{1}}, Value{int64_t{2}}), -1);
  EXPECT_EQ(CompareValues(Value{2.0}, Value{2.0}), 0);
  EXPECT_EQ(CompareValues(Value{std::string("b")}, Value{std::string("a")}), 1);
  EXPECT_STREQ(DataTypeToString(DataType::kDouble), "double");
}

// ---------- Select / Refine ----------

TEST(SelectTest, EqualsOnString) {
  Table t = PlayersTable();
  auto rows = Select(t, {"hand", CompareOp::kEq, std::string("left")}).TakeValue();
  EXPECT_EQ(rows, (std::vector<int64_t>{1, 2}));
}

TEST(SelectTest, NumericComparisons) {
  Table t = PlayersTable();
  EXPECT_EQ(Select(t, {"rank", CompareOp::kLe, int64_t{2}}).TakeValue(),
            (std::vector<int64_t>{0, 2}));
  EXPECT_EQ(Select(t, {"win_pct", CompareOp::kGt, 0.80}).TakeValue(),
            (std::vector<int64_t>{0, 2}));
  EXPECT_EQ(Select(t, {"rank", CompareOp::kNe, int64_t{1}}).TakeValue().size(), 3u);
}

TEST(SelectTest, Contains) {
  Table t = PlayersTable();
  EXPECT_EQ(Select(t, {"name", CompareOp::kContains, std::string("ina")})
                .TakeValue(),
            (std::vector<int64_t>{2}));
  // Contains on a non-string column is an error.
  EXPECT_FALSE(Select(t, {"rank", CompareOp::kContains, std::string("1")}).ok());
}

TEST(SelectTest, TypeMismatchRejected) {
  Table t = PlayersTable();
  EXPECT_FALSE(Select(t, {"rank", CompareOp::kEq, std::string("1")}).ok());
  EXPECT_FALSE(Select(t, {"ghost", CompareOp::kEq, int64_t{1}}).ok());
}

TEST(RefineTest, ConjunctionPipeline) {
  Table t = PlayersTable();
  auto rows = SelectAll(t, {{"hand", CompareOp::kEq, std::string("left")},
                            {"win_pct", CompareOp::kGt, 0.80}})
                  .TakeValue();
  EXPECT_EQ(rows, (std::vector<int64_t>{2}));
}

TEST(RefineTest, MalformedPredicateAfterEmptySelectionFails) {
  // "nobody" empties the selection before the malformed predicate is
  // reached; SelectAll must still reject it, exactly as it would after a
  // matching predicate.
  Table t = PlayersTable();
  const Predicate bad_type{"rank", CompareOp::kEq, std::string("1")};
  const Predicate bad_column{"ghost", CompareOp::kEq, int64_t{1}};
  for (const Predicate& bad : {bad_type, bad_column}) {
    auto after_empty =
        SelectAll(t, {{"name", CompareOp::kEq, std::string("nobody")}, bad});
    auto after_match =
        SelectAll(t, {{"hand", CompareOp::kEq, std::string("left")}, bad});
    ASSERT_FALSE(after_empty.ok()) << bad.column;
    ASSERT_FALSE(after_match.ok()) << bad.column;
    EXPECT_EQ(after_empty.status().ToString(), after_match.status().ToString());
  }
}

TEST(RefineTest, EmptyPredicatesSelectAll) {
  Table t = PlayersTable();
  EXPECT_EQ(SelectAll(t, {}).TakeValue().size(), 4u);
}

TEST(RefineTest, BadCandidateRejected) {
  Table t = PlayersTable();
  EXPECT_FALSE(Refine(t, {"rank", CompareOp::kEq, int64_t{1}}, {99}).ok());
}

// ---------- Materialize ----------

TEST(MaterializeTest, ProjectsAndReorders) {
  Table t = PlayersTable();
  Table out = Materialize(t, {2, 0}, {"name", "rank"}).TakeValue();
  EXPECT_EQ(out.num_rows(), 2);
  EXPECT_EQ(out.num_columns(), 2u);
  EXPECT_EQ(out.GetString(0, 0).TakeValue(), "Martina");
  EXPECT_EQ(out.GetInt(1, 1).TakeValue(), 1);
}

TEST(MaterializeTest, AllColumnsByDefault) {
  Table t = PlayersTable();
  Table out = Materialize(t, {1}).TakeValue();
  EXPECT_EQ(out.num_columns(), 5u);
  EXPECT_EQ(out.GetString(0, 1).TakeValue(), "Monica");
}

// ---------- HashJoin ----------

TEST(HashJoinTest, JoinsMatchesToPlayers) {
  Table players = PlayersTable();
  auto matches = Table::Create({{"match_id", DataType::kInt64},
                                {"winner_id", DataType::kInt64},
                                {"year", DataType::kInt64}})
                     .TakeValue();
  ASSERT_TRUE(matches.AppendRow({int64_t{100}, int64_t{2}, int64_t{1998}}).ok());
  ASSERT_TRUE(matches.AppendRow({int64_t{101}, int64_t{3}, int64_t{1999}}).ok());
  ASSERT_TRUE(matches.AppendRow({int64_t{102}, int64_t{2}, int64_t{2000}}).ok());
  ASSERT_TRUE(matches.AppendRow({int64_t{103}, int64_t{9}, int64_t{2001}}).ok());

  Table joined = HashJoin(matches, players, "winner_id", "id").TakeValue();
  EXPECT_EQ(joined.num_rows(), 3);  // winner 9 has no player row
  size_t name_col = joined.ColumnIndex("name").TakeValue();
  EXPECT_EQ(joined.GetString(0, name_col).TakeValue(), "Monica");
  EXPECT_EQ(joined.GetString(1, name_col).TakeValue(), "Martina");
}

TEST(HashJoinTest, CollidingColumnNamesPrefixed) {
  auto a = Table::Create({{"id", DataType::kInt64}, {"x", DataType::kInt64}})
               .TakeValue();
  auto b = Table::Create({{"id", DataType::kInt64}, {"x", DataType::kInt64}})
               .TakeValue();
  ASSERT_TRUE(a.AppendRow({int64_t{1}, int64_t{10}}).ok());
  ASSERT_TRUE(b.AppendRow({int64_t{1}, int64_t{20}}).ok());
  Table joined = HashJoin(a, b, "id", "id").TakeValue();
  EXPECT_TRUE(joined.ColumnIndex("right_x").ok());
  EXPECT_EQ(joined.GetInt(0, joined.ColumnIndex("x").TakeValue()).TakeValue(), 10);
  EXPECT_EQ(
      joined.GetInt(0, joined.ColumnIndex("right_x").TakeValue()).TakeValue(),
      20);
}

TEST(HashJoinTest, KeyTypeMismatchRejected) {
  Table players = PlayersTable();
  EXPECT_FALSE(HashJoin(players, players, "name", "id").ok());
}

// ---------- OrderBy ----------

TEST(OrderByTest, AscendingDescendingLimit) {
  Table t = PlayersTable();
  EXPECT_EQ(OrderBy(t, "rank", false).TakeValue(),
            (std::vector<int64_t>{0, 2, 1, 3}));
  EXPECT_EQ(OrderBy(t, "win_pct", true, 2).TakeValue(),
            (std::vector<int64_t>{0, 2}));
  EXPECT_EQ(OrderBy(t, "name", false, 1).TakeValue(),
            (std::vector<int64_t>{3}));  // Justine first alphabetically
}

// ---------- GroupBy ----------

TEST(GroupByTest, CountByStringKey) {
  Table t = PlayersTable();
  auto groups = GroupBy(t, "hand", AggregateOp::kCount).TakeValue();
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(std::get<std::string>(groups[0].key), "left");
  EXPECT_EQ(groups[0].count, 2);
  EXPECT_DOUBLE_EQ(groups[0].aggregate, 2.0);
  EXPECT_EQ(std::get<std::string>(groups[1].key), "right");
  EXPECT_EQ(groups[1].count, 2);
}

TEST(GroupByTest, NumericAggregates) {
  Table t = PlayersTable();
  auto sums = GroupBy(t, "hand", AggregateOp::kSum, "win_pct").TakeValue();
  ASSERT_EQ(sums.size(), 2u);
  EXPECT_NEAR(sums[0].aggregate, 0.79 + 0.81, 1e-9);  // left
  auto avgs = GroupBy(t, "hand", AggregateOp::kAvg, "win_pct").TakeValue();
  EXPECT_NEAR(avgs[0].aggregate, (0.79 + 0.81) / 2, 1e-9);
  auto mins = GroupBy(t, "hand", AggregateOp::kMin, "rank").TakeValue();
  EXPECT_DOUBLE_EQ(mins[0].aggregate, 2.0);  // left: ranks 3, 2
  auto maxs = GroupBy(t, "hand", AggregateOp::kMax, "rank").TakeValue();
  EXPECT_DOUBLE_EQ(maxs[1].aggregate, 5.0);  // right: ranks 1, 5
}

TEST(GroupByTest, Validation) {
  Table t = PlayersTable();
  EXPECT_FALSE(GroupBy(t, "ghost", AggregateOp::kCount).ok());
  EXPECT_FALSE(GroupBy(t, "hand", AggregateOp::kSum, "name").ok());
  EXPECT_FALSE(GroupBy(t, "hand", AggregateOp::kSum, "ghost").ok());
}

TEST(GroupByTest, EmptyTable) {
  auto t = Table::Create({{"k", DataType::kInt64}}).TakeValue();
  EXPECT_TRUE(GroupBy(t, "k", AggregateOp::kCount).TakeValue().empty());
}

TEST(OrderByTest, TiesBreakByRowId) {
  auto t = Table::Create({{"v", DataType::kInt64}}).TakeValue();
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(t.AppendRow({int64_t{7}}).ok());
  EXPECT_EQ(OrderBy(t, "v", true).TakeValue(), (std::vector<int64_t>{0, 1, 2, 3}));
}

}  // namespace
}  // namespace cobra::storage
