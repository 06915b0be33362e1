#pragma once

/// \file malformed_queries.h
/// Shared test inputs for the rule that whether a combined query errors
/// depends on the query alone: one malformed player predicate (unknown
/// column, or literal type mismatch) placed alone, after a provably-empty
/// predicate and after a matching one, each also written in the query
/// language. Every placement of one malformed predicate must fail with one
/// status, whichever rows the selection reaches.

#include <string>
#include <vector>

#include "engine/digital_library.h"

namespace cobra::engine {

struct MalformedQuery {
  std::string kind;   ///< "unknown column" or "type mismatch"
  std::string label;  ///< kind plus placement
  std::string text;   ///< the same query in the query language
  CombinedQuery query;
};

/// The six variants (two kinds × three placements), against the tournament
/// schema's Player class.
std::vector<MalformedQuery> MalformedQueries();

}  // namespace cobra::engine
