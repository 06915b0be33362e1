#include "oracles/taat.h"

#include <algorithm>
#include <functional>
#include <unordered_map>

#include "text/tokenizer.h"

namespace cobra::text {

namespace {

struct QueryTerm {
  const InvertedIndex::TermRange* range;
  double qtf;
  double max_contribution;
};

/// Deduplicates analyzed query terms into (term, query tf) pairs, ordered
/// by first occurrence in the analyzed query.
std::vector<QueryTerm> CollectQueryTerms(
    const std::vector<InvertedIndex::TermRange>& ranges,
    const std::vector<std::string>& terms) {
  std::vector<QueryTerm> query_terms;
  for (const std::string& term : terms) {
    auto it = std::lower_bound(
        ranges.begin(), ranges.end(), term,
        [](const InvertedIndex::TermRange& r, const std::string& t) {
          return *r.term < t;
        });
    if (it == ranges.end() || *it->term != term) continue;
    auto seen = std::find_if(
        query_terms.begin(), query_terms.end(),
        [&](const QueryTerm& qt) { return qt.range == &*it; });
    if (seen == query_terms.end()) {
      query_terms.push_back(QueryTerm{&*it, 1.0, 0.0});
    } else {
      seen->qtf += 1.0;
    }
  }
  for (QueryTerm& qt : query_terms) {
    qt.max_contribution = qt.qtf * qt.range->idf * qt.range->max_weight;
  }
  return query_terms;
}

}  // namespace

Result<std::vector<SearchHit>> SearchTopNTaat(
    const std::vector<InvertedIndex::TermRange>& ranges,
    const std::string& query, size_t n, SearchStats* stats) {
  std::vector<std::string> terms = Analyze(query);
  if (terms.empty()) {
    return Status::InvalidArgument("query has no indexable terms");
  }
  if (n == 0) return std::vector<SearchHit>{};
  SearchStats local;

  std::vector<QueryTerm> query_terms = CollectQueryTerms(ranges, terms);
  std::sort(query_terms.begin(), query_terms.end(),
            [](const QueryTerm& a, const QueryTerm& b) {
              return a.max_contribution > b.max_contribution;
            });
  // Suffix sums of max contributions: remaining[i] is the most the terms
  // from i on can add to any document.
  std::vector<double> remaining(query_terms.size() + 1, 0.0);
  for (size_t i = query_terms.size(); i-- > 0;) {
    remaining[i] = remaining[i + 1] + query_terms[i].max_contribution;
  }

  std::unordered_map<int64_t, double> acc;
  bool restricted = false;  // true once new docs can no longer reach top N
  for (size_t i = 0; i < query_terms.size(); ++i) {
    const QueryTerm& qt = query_terms[i];
    ++local.terms_evaluated;
    for (const InvertedIndex::Posting& p : qt.range->postings) {
      if (restricted) {
        auto it = acc.find(p.doc_id);
        if (it == acc.end()) continue;  // semijoin against candidate set
        it->second += qt.qtf * qt.range->idf * p.weight;
      } else {
        acc[p.doc_id] += qt.qtf * qt.range->idf * p.weight;
      }
      ++local.postings_scanned;
    }
    if (!restricted && acc.size() >= n) {
      // N-th best current partial score.
      std::vector<double> scores;
      scores.reserve(acc.size());
      for (const auto& [doc, score] : acc) scores.push_back(score);
      std::nth_element(scores.begin(), scores.begin() + (n - 1), scores.end(),
                       std::greater<double>());
      if (scores[n - 1] >= remaining[i + 1]) {
        // Candidates keep accumulating (their final scores must be exact),
        // but no new document can enter the top N anymore.
        restricted = true;
        local.early_terminated = true;
      }
    }
  }

  std::vector<SearchHit> hits;
  hits.reserve(acc.size());
  for (const auto& [doc_id, score] : acc) {
    hits.push_back(SearchHit{doc_id, score});
  }
  std::sort(hits.begin(), hits.end(),
            [](const SearchHit& a, const SearchHit& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.doc_id < b.doc_id;
            });
  if (hits.size() > n) hits.resize(n);
  if (stats) *stats = local;
  return hits;
}

Result<std::vector<SearchHit>> SearchTopNTaat(const InvertedIndex& index,
                                              const std::string& query,
                                              size_t n, SearchStats* stats) {
  COBRA_ASSIGN_OR_RETURN(std::vector<InvertedIndex::TermRange> ranges,
                         index.TermRanges());
  return SearchTopNTaat(ranges, query, n, stats);
}

}  // namespace cobra::text
