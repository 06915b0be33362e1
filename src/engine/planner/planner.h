#pragma once

/// \file planner.h
/// The cost-based combined-query planner (DESIGN.md §4g) — the only
/// evaluator behind `DigitalLibrary::Search`. `SearchPlanned` orders the
/// stages and picks physical operators from exact table statistics
/// (`storage::Table::Stats`, `storage::EstimateSelectivity`):
///   * attribute predicates run cheapest-and-most-selective first;
///   * the champion join runs before the attribute scan when the winners
///     set is estimated smaller than the player table;
///   * the text stage either seeds the candidate set (text-first), runs
///     globally, or — when the top-N bound provably cannot truncate — takes
///     the concept candidates as a DAAT accept filter
///     (`InvertedIndex::SearchTopNFiltered`) so postings of non-candidates
///     are skipped block-wise;
///   * the event stage visits (player, indexed video) pairs in the order
///     of a bound that ranks at or before every hit of the pair, reads the
///     video's events through `core::MetaIndex::EventRows`, keeps the
///     request's top-N in a bounded heap and stops at the first pair whose
///     bound ranks strictly after the current N-th hit;
///   * provably-empty modalities (dictionary miss, empty zone range, no
///     indexed videos) short-circuit the whole plan.
/// Every error is raised up front, before any stage runs
/// (`DigitalLibrary::ValidateQuery`, then the similar_to probe), so a
/// short-circuit can never hide one. Results are bit-identical to the
/// fixed concept -> text -> event pipeline kept as a test oracle
/// (tests/oracles/fixed_order.h).

#include <vector>

#include "engine/digital_library.h"
#include "engine/planner/plan.h"

namespace cobra::engine::planner {

/// Plans and executes `request` over `library`'s public accessors and
/// returns the first `request.top_n` hits under SceneHitLess (every hit
/// when 0) — exactly the full answer's prefix. `stats` (optional) receives
/// the text-index work counters; `explain` (optional) receives the executed
/// plan.
///
/// `request.text_seed` (optional) is a precomputed player→score text stage
/// (see DigitalLibrary::TextStage); when the query has a text condition it
/// replaces the local DAAT run. The seed must come from an identical
/// interview index + store, which the serving tier guarantees by
/// replicating the text modality per shard.
///
/// `request.similar_seed` (optional) is the frontend-resolved similar stage
/// (see SimilarSeed); when present and the query has a similar_to
/// condition, the neighbor set is taken verbatim instead of probing the
/// local (partition-scoped) ANN index.
Result<std::vector<SceneHit>> SearchPlanned(const DigitalLibrary& library,
                                            const SearchRequest& request,
                                            text::SearchStats* stats,
                                            PlanExplain* explain);

}  // namespace cobra::engine::planner
