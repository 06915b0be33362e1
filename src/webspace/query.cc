#include "webspace/query.h"

#include <algorithm>

namespace cobra::webspace {

Result<std::vector<int64_t>> SelectObjects(const WebspaceStore& store,
                                           const ClassSelection& selection) {
  COBRA_ASSIGN_OR_RETURN(const storage::Table* table,
                         store.ClassTable(selection.class_name));
  COBRA_ASSIGN_OR_RETURN(std::vector<int64_t> rows,
                         storage::SelectAll(*table, selection.predicates));
  // Oids are assigned monotonically at insert, so ascending rows are
  // ascending oids — no sort needed.
  const auto& oid_col = table->IntColumn(0);
  std::vector<int64_t> oids;
  oids.reserve(rows.size());
  for (int64_t r : rows) oids.push_back(oid_col[static_cast<size_t>(r)]);
  return oids;
}

namespace {

/// Filters `reached` oids down to those satisfying `selection`, preserving
/// order. Instead of re-selecting the whole class and intersecting, the
/// reached set is mapped to rows through the oid→row index (dropping oids
/// of other classes, which the intersection also excluded) and the
/// predicates run as a `Refine` chain over just those rows.
Result<std::vector<int64_t>> FilterReached(const WebspaceStore& store,
                                           const std::vector<int64_t>& reached,
                                           const ClassSelection& selection) {
  COBRA_ASSIGN_OR_RETURN(const storage::Table* table,
                         store.ClassTable(selection.class_name));
  std::vector<int64_t> rows;
  rows.reserve(reached.size());
  for (int64_t oid : reached) {
    const int64_t row = store.RowOf(selection.class_name, oid);
    if (row >= 0) rows.push_back(row);
  }
  for (const storage::Predicate& pred : selection.predicates) {
    COBRA_ASSIGN_OR_RETURN(rows, storage::Refine(*table, pred, rows));
  }
  const auto& oid_col = table->IntColumn(0);
  std::vector<int64_t> oids;
  oids.reserve(rows.size());
  for (int64_t r : rows) oids.push_back(oid_col[static_cast<size_t>(r)]);
  return oids;
}

}  // namespace

Result<std::vector<int64_t>> ExecuteQuery(const WebspaceStore& store,
                                          const WebspaceQuery& query) {
  COBRA_ASSIGN_OR_RETURN(std::vector<int64_t> current,
                         SelectObjects(store, query.source));
  // Every step is checked before the walk, which stops at the first empty
  // set: a malformed later step must fail whatever the data reaches.
  for (const PathStep& step : query.path) {
    COBRA_RETURN_NOT_OK(store.AssociationTable(step.association).status());
    COBRA_ASSIGN_OR_RETURN(const storage::Table* table,
                           store.ClassTable(step.target.class_name));
    for (const storage::Predicate& pred : step.target.predicates) {
      COBRA_RETURN_NOT_OK(storage::ValidatePredicate(*table, pred));
    }
  }
  for (const PathStep& step : query.path) {
    if (current.empty()) return current;
    COBRA_ASSIGN_OR_RETURN(
        std::vector<int64_t> reached,
        step.reverse ? store.TraverseReverse(step.association, current, step.role)
                     : store.Traverse(step.association, current, step.role));
    COBRA_ASSIGN_OR_RETURN(current, FilterReached(store, reached, step.target));
  }
  return current;
}

}  // namespace cobra::webspace
