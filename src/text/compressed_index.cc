#include "text/compressed_index.h"

#include <algorithm>
#include <unordered_map>

#include "text/daat.h"
#include "text/tokenizer.h"

namespace cobra::text {

Result<CompressedInvertedIndex> CompressedInvertedIndex::FromIndex(
    const InvertedIndex& index) {
  COBRA_ASSIGN_OR_RETURN(std::vector<InvertedIndex::TermRange> ranges,
                         index.TermRanges());
  CompressedInvertedIndex out;
  std::vector<DecodedPosting> postings;
  for (const InvertedIndex::TermRange& range : ranges) {
    postings.clear();
    for (const InvertedIndex::Posting& p : range.postings) {
      postings.push_back(DecodedPosting{p.doc_id, p.weight});
    }
    COBRA_ASSIGN_OR_RETURN(CompressedPostings compressed,
                           CompressedPostings::Encode(postings));
    out.total_postings_ += postings.size();
    out.terms_.emplace(*range.term,
                       TermEntry{range.idf, std::move(compressed)});
  }
  return out;
}

size_t CompressedInvertedIndex::PostingsBytes() const {
  size_t total = 0;
  for (const auto& [term, entry] : terms_) total += entry.postings.SizeBytes();
  return total;
}

size_t CompressedInvertedIndex::UncompressedBytes() const {
  return total_postings_ * (sizeof(int64_t) + sizeof(double));
}

Result<std::vector<SearchHit>> CompressedInvertedIndex::Search(
    const std::string& query, size_t n, SearchStats* stats) const {
  std::vector<std::string> terms = Analyze(query);
  if (terms.empty()) {
    return Status::InvalidArgument("query has no indexable terms");
  }
  SearchStats local;
  std::unordered_map<int64_t, double> acc;
  for (const std::string& term : terms) {
    auto it = terms_.find(term);
    if (it == terms_.end()) continue;
    ++local.terms_evaluated;
    CompressedPostings::Cursor cursor(it->second.postings);
    DecodedPosting posting;
    while (cursor.Next(&posting)) {
      acc[posting.doc_id] += it->second.idf * posting.weight;
      ++local.postings_scanned;
    }
  }
  std::vector<SearchHit> hits;
  hits.reserve(acc.size());
  for (const auto& [doc_id, score] : acc) hits.push_back(SearchHit{doc_id, score});
  std::sort(hits.begin(), hits.end(), [](const SearchHit& a, const SearchHit& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.doc_id < b.doc_id;
  });
  if (hits.size() > n) hits.resize(n);
  if (stats) *stats = local;
  return hits;
}

Result<std::vector<SearchHit>> CompressedInvertedIndex::SearchTopN(
    const std::string& query, size_t n, SearchStats* stats) const {
  std::vector<std::string> terms = Analyze(query);
  if (terms.empty()) {
    return Status::InvalidArgument("query has no indexable terms");
  }
  SearchStats local;

  /// DAAT cursor over a streaming CompressedPostings::Cursor (see daat.h
  /// for the contract). Holds the last decoded posting; the underlying
  /// cursor position is one past it.
  struct StreamTermCursor {
    const CompressedPostings* postings;
    CompressedPostings::Cursor cursor;
    DecodedPosting cur;
    bool has_cur = false;
    size_t cur_block = 0;    ///< block of `cur`
    size_t bound_block = 0;  ///< block backing block_bound()
    double factor_ = 0.0;
    double max_contribution_ = 0.0;
    size_t ordinal_ = 0;

    explicit StreamTermCursor(const CompressedPostings& p)
        : postings(&p), cursor(p) {
      has_cur = cursor.Next(&cur);
      if (has_cur) cur_block = (cursor.index() - 1) / CompressedPostings::kBlockSize;
    }

    double factor() const { return factor_; }
    double max_contribution() const { return max_contribution_; }
    size_t ordinal() const { return ordinal_; }
    bool valid() const { return has_cur; }
    int64_t doc() const { return cur.doc_id; }
    double weight() const { return cur.weight; }
    void Advance() {
      has_cur = cursor.Next(&cur);
      if (has_cur) cur_block = (cursor.index() - 1) / CompressedPostings::kBlockSize;
    }
    bool SeekBlock(int64_t d) {
      if (!has_cur) return false;
      if (cur.doc_id >= d) {
        // The first posting >= d is `cur` itself; bound by its block.
        bound_block = cur_block;
        return true;
      }
      if (!cursor.SeekBlock(d)) {
        has_cur = false;
        return false;
      }
      bound_block = cursor.block();
      return true;
    }
    double block_bound() const {
      return postings->blocks()[bound_block].max_weight;
    }
    bool AdvanceTo(int64_t d) {
      if (!has_cur) return false;
      if (cur.doc_id >= d) return true;
      has_cur = cursor.SkipTo(d, &cur);
      if (has_cur) cur_block = (cursor.index() - 1) / CompressedPostings::kBlockSize;
      return has_cur;
    }
    int64_t postings_scanned() const { return cursor.postings_decoded(); }
    int64_t blocks_skipped() const { return cursor.blocks_skipped(); }
  };

  // Deduplicate analyzed terms into cursors (query tf folded into the
  // factor), ordered by first occurrence for a deterministic tie-break.
  std::vector<StreamTermCursor> cursors;
  std::unordered_map<const TermEntry*, size_t> seen;
  for (const std::string& term : terms) {
    auto it = terms_.find(term);
    if (it == terms_.end()) continue;
    const TermEntry* entry = &it->second;
    auto [slot, inserted] = seen.emplace(entry, cursors.size());
    if (inserted) {
      StreamTermCursor cursor(entry->postings);
      cursor.factor_ = entry->idf;
      cursor.ordinal_ = cursors.size();
      cursors.push_back(std::move(cursor));
    } else {
      cursors[slot->second].factor_ += entry->idf;  // qtf * idf
    }
  }
  for (StreamTermCursor& cursor : cursors) {
    cursor.max_contribution_ = cursor.factor_ * cursor.postings->max_weight();
  }
  local.terms_evaluated = static_cast<int64_t>(cursors.size());

  std::vector<SearchHit> hits = internal::DaatMaxScoreTopN(&cursors, n, &local);
  if (stats) *stats = local;
  return hits;
}

}  // namespace cobra::text
