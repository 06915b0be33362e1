#pragma once

/// \file ops.h
/// Column-at-a-time relational operators over `Table`: selection vectors,
/// refinement, materialization, hash join, order-by/limit. Enough algebra
/// to run the meta-index and webspace query plans.
///
/// Selection (`Select`/`Refine`/`SelectAll`) is vectorized (DESIGN.md §4f):
/// predicates run block-at-a-time through the `column_kernels` SIMD tiers
/// over typed arrays — string predicates over int32 dictionary codes — and
/// per-block zone maps skip blocks that cannot contain a match. `HashJoin`
/// on int64/string keys builds an integer-keyed hash table and can probe in
/// parallel. The pre-vectorization row-at-a-time implementations live in
/// the test-only oracle library (`tests/oracles/reference_ops.h`); property
/// tests hold both paths bit-identical on every input and every SIMD tier.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "storage/column_kernels.h"
#include "storage/table.h"

namespace cobra::storage {

/// `column op literal`. kContains applies to string columns only
/// (substring match, the webspace "about" predicate).
struct Predicate {
  std::string column;
  CompareOp op = CompareOp::kEq;
  Value literal;
};

/// Checks `pred` against `table`'s schema (column exists, literal type
/// matches, kContains needs a string column and literal) without touching
/// any row. Select, Refine and SelectAll run exactly this check first.
Status ValidatePredicate(const Table& table, const Predicate& pred);

/// Full-column selection: row ids (ascending) satisfying the predicate.
Result<std::vector<int64_t>> Select(const Table& table, const Predicate& pred);

/// Refines an existing selection vector (logical AND), column-at-a-time.
Result<std::vector<int64_t>> Refine(const Table& table, const Predicate& pred,
                                    const std::vector<int64_t>& candidates);

/// Applies a conjunction of predicates. Every predicate is checked before
/// any row is selected, so whether the call fails depends on the
/// predicates alone, never on a selection coming up empty early.
Result<std::vector<int64_t>> SelectAll(const Table& table,
                                       const std::vector<Predicate>& preds);

/// Materializes `rows` of `table` into a new table, optionally projecting
/// to `columns` (all columns when empty).
Result<Table> Materialize(const Table& table, const std::vector<int64_t>& rows,
                          const std::vector<std::string>& columns = {});

/// Which side the `HashJoin` hash table is built on (DESIGN.md §4g). The
/// output is bit-identical for every choice: the right-build probe emits
/// match pairs already in (left row, right row) order, and the left-build
/// path re-sorts its pairs into that same order. kAuto costs both sides
/// from the tables' exact statistics — build on the smaller side, unless
/// the left-build pair re-sort (sized by the estimated match count,
/// |L|·|R| / max NDV of the key columns) eats the gain.
enum class JoinBuildSide { kAuto, kLeft, kRight };

/// Tuning knobs for `HashJoin`.
struct JoinOptions {
  /// Probe-side parallelism (README "join threads"). <= 1 probes inline on
  /// the calling thread; output row order is identical either way (the
  /// probe is chunked and chunk results are concatenated in chunk order).
  int num_threads = 1;
  /// Build/probe side choice; kAuto is the costed decision.
  JoinBuildSide build_side = JoinBuildSide::kAuto;
};

/// Equi-join on `left_col` = `right_col`. Output schema: left columns then
/// right columns; a right column whose name collides gets a "right_"
/// prefix. Output rows follow left row order; equal-key right matches
/// follow right row order. Double keys match when their `ValueToString`
/// renderings are equal.
Result<Table> HashJoin(const Table& left, const Table& right,
                       const std::string& left_col,
                       const std::string& right_col,
                       const JoinOptions& options);
Result<Table> HashJoin(const Table& left, const Table& right,
                       const std::string& left_col,
                       const std::string& right_col);

/// Row ids of `table` ordered by `column` (descending when `desc`),
/// truncated to `limit` (no truncation when limit == 0). Ties break by
/// row id, ascending. With a limit the sort is a top-k `partial_sort`,
/// not a full sort.
Result<std::vector<int64_t>> OrderBy(const Table& table,
                                     const std::string& column, bool desc,
                                     size_t limit = 0);

/// Aggregate function over a numeric (or, for kCount, any) column.
enum class AggregateOp { kCount, kSum, kMin, kMax, kAvg };

/// One group of a GroupBy result.
struct GroupRow {
  Value key;
  double aggregate = 0.0;
  int64_t count = 0;
};

/// Groups `table` rows by `key_column` and aggregates `value_column`
/// (ignored and may be empty for kCount). Numeric aggregates require an
/// int64 or double value column. Groups are returned in ascending key
/// order.
Result<std::vector<GroupRow>> GroupBy(const Table& table,
                                      const std::string& key_column,
                                      AggregateOp op,
                                      const std::string& value_column = "");

}  // namespace cobra::storage
