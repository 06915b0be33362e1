#pragma once

/// \file fixed_order.h
/// The original fixed-order combined-query pipeline (concept scan -> text
/// -> similar -> events), kept as the reference oracle the cost-based
/// planner behind `DigitalLibrary::Search` is validated against, and as the
/// planner-off leg of the E7d/E8c benches. Free functions over the
/// library's public accessors; test-only code that no query path links.

#include <cstdint>
#include <map>
#include <vector>

#include "engine/digital_library.h"

namespace cobra::engine {

/// Players satisfying the query's attribute predicates and champion
/// condition, ascending by oid.
Result<std::vector<int64_t>> ConceptPlayers(const DigitalLibrary& library,
                                            const CombinedQuery& query);

/// The fixed-order pipeline. Same contract as `DigitalLibrary::Search`,
/// including the `text_seed` / `similar_seed` hooks and the error status of
/// an invalid query.
Result<std::vector<SceneHit>> SearchFixedOrder(
    const DigitalLibrary& library, const CombinedQuery& query,
    text::SearchStats* stats = nullptr,
    const std::map<int64_t, double>* text_seed = nullptr,
    const SimilarSeed* similar_seed = nullptr);

}  // namespace cobra::engine
