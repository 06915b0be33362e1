#include "text/inverted_index.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "text/daat.h"
#include "text/tokenizer.h"
#include "util/strings.h"

namespace cobra::text {

namespace {

/// Sorts hits by score descending, doc id ascending (deterministic ties).
void SortHits(std::vector<SearchHit>* hits) {
  std::sort(hits->begin(), hits->end(),
            [](const SearchHit& a, const SearchHit& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.doc_id < b.doc_id;
            });
}

}  // namespace

InvertedIndex::InvertedIndex(const InvertedIndex& other)
    : postings_(other.postings_),
      doc_norm_(other.doc_norm_),
      finalized_(other.finalized_) {
  // Re-point spans that referenced the source's own storage; view spans
  // (zero-copy restores) keep referencing the external mapped memory.
  for (auto& [term, info] : postings_) {
    const TermInfo& src = other.postings_.at(term);
    if (src.postings.data() == src.postings_store.data()) {
      info.postings = {info.postings_store.data(), info.postings_store.size()};
    }
    if (src.blocks.data() == src.blocks_store.data()) {
      info.blocks = {info.blocks_store.data(), info.blocks_store.size()};
    }
  }
}

InvertedIndex& InvertedIndex::operator=(const InvertedIndex& other) {
  if (this != &other) *this = InvertedIndex(other);
  return *this;
}

Status InvertedIndex::AddDocument(int64_t doc_id,
                                  const std::vector<std::string>& tokens) {
  if (finalized_) {
    return Status::FailedPrecondition("index is finalized");
  }
  if (doc_id < 0) {
    return Status::InvalidArgument("doc ids must be non-negative");
  }
  if (doc_norm_.count(doc_id)) {
    return Status::AlreadyExists(
        StringFormat("doc %lld already indexed", static_cast<long long>(doc_id)));
  }
  std::unordered_map<std::string, int64_t> tf;
  for (const std::string& token : tokens) tf[token]++;
  // Stash raw tf in `weight`; Finalize() converts to normalized weights.
  for (const auto& [term, count] : tf) {
    postings_[term].postings_store.push_back(
        Posting{doc_id, static_cast<double>(count)});
  }
  doc_norm_[doc_id] =
      tokens.empty() ? 1.0 : 1.0 / std::sqrt(static_cast<double>(tokens.size()));
  return Status::OK();
}

Status InvertedIndex::AddText(int64_t doc_id, const std::string& text) {
  return AddDocument(doc_id, Analyze(text));
}

Status InvertedIndex::Finalize() {
  if (finalized_) return Status::FailedPrecondition("already finalized");
  const double num_docs = static_cast<double>(doc_norm_.size());
  for (auto& [term, info] : postings_) {
    std::vector<Posting>& postings = info.postings_store;
    info.idf = std::log(1.0 + num_docs / static_cast<double>(postings.size()));
    info.max_weight = 0.0;
    for (Posting& p : postings) {
      // Log-scaled tf, length-normalized.
      p.weight = (1.0 + std::log(p.weight)) * doc_norm_[p.doc_id];
      info.max_weight = std::max(info.max_weight, p.weight);
    }
    // Postings sorted by doc id: scans are cache-friendly and results
    // deterministic.
    std::sort(postings.begin(), postings.end(),
              [](const Posting& a, const Posting& b) {
                return a.doc_id < b.doc_id;
              });
    // Skip blocks over the sorted list: last doc id + max weight per block
    // of kSkipBlockSize postings, for the DAAT block-max evaluator.
    info.blocks_store.clear();
    info.blocks_store.reserve((postings.size() + kSkipBlockSize - 1) /
                              kSkipBlockSize);
    for (size_t i = 0; i < postings.size(); i += kSkipBlockSize) {
      size_t end = std::min(i + kSkipBlockSize, postings.size());
      BlockMeta block;
      block.last_doc = postings[end - 1].doc_id;
      for (size_t j = i; j < end; ++j) {
        block.max_weight = std::max(block.max_weight, postings[j].weight);
      }
      info.blocks_store.push_back(block);
    }
    info.postings = {postings.data(), postings.size()};
    info.blocks = {info.blocks_store.data(), info.blocks_store.size()};
  }
  finalized_ = true;
  return Status::OK();
}

int64_t InvertedIndex::TotalPostings() const {
  int64_t n = 0;
  for (const auto& [term, info] : postings_) {
    n += static_cast<int64_t>(finalized_ ? info.postings.size()
                                         : info.postings_store.size());
  }
  return n;
}

int64_t InvertedIndex::DocumentFrequency(const std::string& term) const {
  auto it = postings_.find(term);
  if (it == postings_.end()) return 0;
  const TermInfo& info = it->second;
  return static_cast<int64_t>(finalized_ ? info.postings.size()
                                         : info.postings_store.size());
}

Result<std::vector<InvertedIndex::TermRange>> InvertedIndex::TermRanges()
    const {
  if (!finalized_) {
    return Status::FailedPrecondition("index is not finalized");
  }
  std::vector<TermRange> out;
  out.reserve(postings_.size());
  for (const auto& [term, info] : postings_) {
    TermRange range;
    range.term = &term;
    range.idf = info.idf;
    range.max_weight = info.max_weight;
    range.postings = info.postings;
    range.blocks = info.blocks;
    out.push_back(range);
  }
  return out;
}

Result<InvertedIndex> InvertedIndex::FromTerms(
    std::vector<RestoredTerm> terms,
    std::vector<std::pair<int64_t, double>> doc_norms) {
  InvertedIndex index;
  for (auto& [doc_id, norm] : doc_norms) {
    if (!index.doc_norm_.emplace(doc_id, norm).second) {
      return Status::InvalidArgument(
          StringFormat("duplicate doc norm for doc %lld",
                       static_cast<long long>(doc_id)));
    }
  }
  for (RestoredTerm& t : terms) {
    auto [it, inserted] = index.postings_.try_emplace(std::move(t.term));
    if (!inserted) {
      return Status::InvalidArgument("duplicate term in restored index");
    }
    TermInfo& info = it->second;
    info.idf = t.idf;
    info.max_weight = t.max_weight;
    const size_t expect_blocks =
        (t.postings.size() + kSkipBlockSize - 1) / kSkipBlockSize;
    if (t.blocks.size() != expect_blocks) {
      return Status::InvalidArgument(
          StringFormat("term block count mismatch: %zu postings want %zu "
                       "blocks, got %zu",
                       t.postings.size(), expect_blocks, t.blocks.size()));
    }
    info.postings = t.postings;
    info.blocks = t.blocks;
  }
  index.finalized_ = true;
  return index;
}

Result<std::vector<std::string>> InvertedIndex::AnalyzeQuery(
    const std::string& query) const {
  if (!finalized_) {
    return Status::FailedPrecondition("index is not finalized");
  }
  std::vector<std::string> terms = Analyze(query);
  if (terms.empty()) {
    return Status::InvalidArgument("query has no indexable terms");
  }
  return terms;
}

std::vector<InvertedIndex::QueryTerm> InvertedIndex::CollectQueryTerms(
    const std::vector<std::string>& terms) const {
  std::vector<QueryTerm> query_terms;
  std::unordered_map<const TermInfo*, size_t> seen;
  for (const std::string& term : terms) {
    auto it = postings_.find(term);
    if (it == postings_.end()) continue;
    const TermInfo* info = &it->second;
    auto [slot, inserted] = seen.emplace(info, query_terms.size());
    if (inserted) {
      query_terms.push_back(QueryTerm{info, 1.0, 0.0});
    } else {
      query_terms[slot->second].qtf += 1.0;
    }
  }
  for (QueryTerm& qt : query_terms) {
    qt.max_contribution = qt.qtf * qt.info->idf * qt.info->max_weight;
  }
  return query_terms;
}

Result<std::vector<SearchHit>> InvertedIndex::SearchExhaustive(
    const std::string& query, size_t n, SearchStats* stats) const {
  COBRA_ASSIGN_OR_RETURN(std::vector<std::string> terms, AnalyzeQuery(query));
  SearchStats local;
  std::unordered_map<int64_t, double> acc;
  for (const std::string& term : terms) {
    auto it = postings_.find(term);
    if (it == postings_.end()) continue;
    ++local.terms_evaluated;
    for (const Posting& p : it->second.postings) {
      acc[p.doc_id] += it->second.idf * p.weight;
      ++local.postings_scanned;
    }
  }
  std::vector<SearchHit> hits;
  hits.reserve(acc.size());
  for (const auto& [doc_id, score] : acc) hits.push_back(SearchHit{doc_id, score});
  SortHits(&hits);
  if (hits.size() > n) hits.resize(n);
  if (stats) *stats = local;
  return hits;
}

Result<std::vector<SearchHit>> InvertedIndex::SearchTopN(
    const std::string& query, size_t n, SearchStats* stats) const {
  return SearchTopNImpl(query, n, /*accept=*/nullptr, stats);
}

Result<std::vector<SearchHit>> InvertedIndex::SearchTopNFiltered(
    const std::string& query, size_t n, const std::vector<int64_t>& accept_docs,
    SearchStats* stats) const {
  return SearchTopNImpl(query, n, &accept_docs, stats);
}

Result<std::vector<SearchHit>> InvertedIndex::SearchTopNImpl(
    const std::string& query, size_t n, const std::vector<int64_t>* accept,
    SearchStats* stats) const {
  COBRA_ASSIGN_OR_RETURN(std::vector<std::string> terms, AnalyzeQuery(query));
  if (n == 0) return std::vector<SearchHit>{};
  SearchStats local;
  std::vector<QueryTerm> query_terms = CollectQueryTerms(terms);
  local.terms_evaluated = static_cast<int64_t>(query_terms.size());

  /// DAAT cursor over one term's sorted postings vector, skipping via the
  /// finalized BlockMeta table. See daat.h for the cursor contract.
  struct VectorTermCursor {
    const Posting* postings;
    size_t size;
    const BlockMeta* block_meta;
    size_t num_blocks;
    double factor_;
    double max_contribution_;
    size_t ordinal_;
    size_t i = 0;
    int64_t scanned = 0;
    int64_t skipped_blocks = 0;

    double factor() const { return factor_; }
    double max_contribution() const { return max_contribution_; }
    size_t ordinal() const { return ordinal_; }
    bool valid() const { return i < size; }
    int64_t doc() const { return postings[i].doc_id; }
    double weight() const { return postings[i].weight; }
    void Advance() {
      ++i;
      if (i < size) ++scanned;
    }
    bool SeekBlock(int64_t d) {
      if (i >= size) return false;
      if (postings[i].doc_id >= d) return true;  // bound block = current
      size_t b = i / kSkipBlockSize;
      size_t target = b;
      while (target < num_blocks && block_meta[target].last_doc < d) ++target;
      if (target >= num_blocks) {
        i = size;
        return false;
      }
      if (target != b) {
        skipped_blocks += static_cast<int64_t>(target - b);
        i = target * kSkipBlockSize;
        ++scanned;  // landing posting will be examined
      }
      return true;
    }
    double block_bound() const { return block_meta[i / kSkipBlockSize].max_weight; }
    bool AdvanceTo(int64_t d) {
      if (!SeekBlock(d)) return false;
      while (i < size && postings[i].doc_id < d) {
        ++i;
        if (i < size) ++scanned;
      }
      return i < size;
    }
    int64_t postings_scanned() const { return scanned; }
    int64_t blocks_skipped() const { return skipped_blocks; }
  };

  std::vector<VectorTermCursor> cursors;
  cursors.reserve(query_terms.size());
  for (size_t t = 0; t < query_terms.size(); ++t) {
    const QueryTerm& qt = query_terms[t];
    VectorTermCursor cursor;
    cursor.postings = qt.info->postings.data();
    cursor.size = qt.info->postings.size();
    cursor.block_meta = qt.info->blocks.data();
    cursor.num_blocks = qt.info->blocks.size();
    cursor.factor_ = qt.qtf * qt.info->idf;
    cursor.max_contribution_ = qt.max_contribution;
    cursor.ordinal_ = t;
    cursor.scanned = cursor.size > 0 ? 1 : 0;  // first posting is examined
    cursors.push_back(cursor);
  }
  std::vector<SearchHit> hits =
      internal::DaatMaxScoreTopN(&cursors, n, &local, accept);
  if (stats) *stats = local;
  return hits;
}

}  // namespace cobra::text
