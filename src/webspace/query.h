#pragma once

/// \file query.h
/// Concept-level conjunctive queries over a webspace: select objects of a
/// class by attribute predicates, then walk associations, filtering at each
/// step. This is the "more precise query formulation" of paper §2 — the
/// semantics that keyword search over the rendered HTML loses.

#include <cstdint>
#include <string>
#include <vector>

#include "storage/ops.h"
#include "webspace/store.h"

namespace cobra::webspace {

/// Objects of one class satisfying a conjunction of attribute predicates.
struct ClassSelection {
  std::string class_name;
  std::vector<storage::Predicate> predicates;
};

/// One association hop. `reverse` walks to->from; `role` filters edge
/// payloads when >= 0.
struct PathStep {
  std::string association;
  bool reverse = false;
  int64_t role = -1;
  ClassSelection target;
};

/// source -[step]-> ... -[step]-> result. The query returns the oids of the
/// final selection (the source selection when the path is empty).
struct WebspaceQuery {
  ClassSelection source;
  std::vector<PathStep> path;
};

/// Oids (ascending) of the objects satisfying `selection`.
Result<std::vector<int64_t>> SelectObjects(const WebspaceStore& store,
                                           const ClassSelection& selection);

/// Executes the path query. The source selection and every step's
/// association, target class and predicates are checked before the walk
/// starts, so whether the query fails never depends on the rows it reaches.
Result<std::vector<int64_t>> ExecuteQuery(const WebspaceStore& store,
                                          const WebspaceQuery& query);

}  // namespace cobra::webspace
