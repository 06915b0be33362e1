#pragma once

/// \file taat.h
/// The original term-at-a-time top-N evaluator of ref [1] with the
/// candidate-set restriction, kept as a reference: the DAAT
/// `InvertedIndex::SearchTopN` is checked against it, and E6 times it as
/// the "before" arm. Test-only code built on the index's public term views;
/// no query path links it.

#include <string>
#include <vector>

#include "text/inverted_index.h"

namespace cobra::text {

/// Term-at-a-time evaluation in decreasing max-contribution order over
/// `ranges` (an index's `TermRanges()`, term order); stops admitting new
/// candidates once the remaining terms (precomputed suffix sums) cannot
/// lift any unseen document into the top N. Same answers as
/// `SearchExhaustive` truncated to n; InvalidArgument when the query has
/// no indexable term.
Result<std::vector<SearchHit>> SearchTopNTaat(
    const std::vector<InvertedIndex::TermRange>& ranges,
    const std::string& query, size_t n, SearchStats* stats = nullptr);

/// Same, over a finalized index (FailedPrecondition otherwise).
Result<std::vector<SearchHit>> SearchTopNTaat(const InvertedIndex& index,
                                              const std::string& query,
                                              size_t n,
                                              SearchStats* stats = nullptr);

}  // namespace cobra::text
