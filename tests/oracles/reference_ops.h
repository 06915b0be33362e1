#pragma once

/// \file reference_ops.h
/// The pre-vectorization row-at-a-time column operators, kept as the
/// equivalence oracle for `storage/ops.h` (DESIGN.md §4f): property tests
/// assert the vectorized operators return bit-identical results, and the
/// E7/E8 benches report before/after against them. Test-only code — no
/// query path links it.

#include <cstdint>
#include <string>
#include <vector>

#include "storage/ops.h"
#include "storage/table.h"

namespace cobra::storage::reference {

Result<std::vector<int64_t>> Select(const Table& table, const Predicate& pred);
Result<std::vector<int64_t>> Refine(const Table& table, const Predicate& pred,
                                    const std::vector<int64_t>& candidates);
/// Validates lazily: stops refining at an empty selection, so a malformed
/// predicate after it goes unchecked (the production `SelectAll` checks
/// every predicate first).
Result<std::vector<int64_t>> SelectAll(const Table& table,
                                       const std::vector<Predicate>& preds);
Result<Table> HashJoin(const Table& left, const Table& right,
                       const std::string& left_col,
                       const std::string& right_col);
Result<std::vector<int64_t>> OrderBy(const Table& table,
                                     const std::string& column, bool desc,
                                     size_t limit = 0);

}  // namespace cobra::storage::reference
