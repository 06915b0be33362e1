#pragma once

/// \file inverted_index.h
/// In-memory inverted index with tf-idf ranking and the top-N query
/// optimization of ref [1] (Blok et al., "IR top-N optimization in a main
/// memory DBMS"). `SearchTopN` is document-at-a-time maxscore/block-max
/// evaluation: a min-heap holds the current top N, terms are partitioned
/// into essential/non-essential by suffix sums of their max contributions,
/// and per-term skip blocks (last doc id + max weight per block of
/// `kSkipBlockSize` postings) let the evaluator prove whole blocks
/// uncompetitive without touching them. Exact: identical results to
/// `SearchExhaustive`, ties included. The exhaustive evaluator remains the
/// baseline the paper compares against; the original term-at-a-time
/// evaluator is a test-only reference (tests/oracles/taat.h).

#include <cstdint>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/span.h"
#include "util/status.h"

namespace cobra::text {

/// One ranked search result.
struct SearchHit {
  int64_t doc_id = 0;
  double score = 0.0;
};

/// Work counters used by the E6/E10 benchmarks to show *why* top-N wins.
struct SearchStats {
  int64_t terms_evaluated = 0;
  int64_t postings_scanned = 0;
  /// Skip blocks jumped without examining any posting (block-jump skips
  /// plus block-max proofs). Zero for evaluators without skip data.
  int64_t blocks_skipped = 0;
  bool early_terminated = false;
};

/// Document-frequency postings index over analyzed token streams.
///
/// Usage: AddDocument() repeatedly, Finalize() once, then Search*().
class InvertedIndex {
 public:
  InvertedIndex() = default;
  /// Copies re-point spans that referenced the source's owned storage;
  /// spans into external (mapped) memory are shared — see TermInfo.
  InvertedIndex(const InvertedIndex& other);
  InvertedIndex& operator=(const InvertedIndex& other);
  /// Moves keep spans valid: vector buffers are stable across moves.
  InvertedIndex(InvertedIndex&&) = default;
  InvertedIndex& operator=(InvertedIndex&&) = default;

  /// Postings per skip block in the finalized per-term block metadata.
  static constexpr size_t kSkipBlockSize = 64;

  /// One posting of a term. Trivially copyable with a fixed 16-byte layout:
  /// the segment storage persists postings as raw arrays of this struct and
  /// maps them back zero-copy (DESIGN.md §4h).
  struct Posting {
    int64_t doc_id;
    double weight;  ///< normalized tf weight; final score adds idf * weight
  };
  /// Skip metadata for one block of up to kSkipBlockSize postings. Same
  /// fixed-layout contract as Posting.
  struct BlockMeta {
    int64_t last_doc = 0;
    double max_weight = 0.0;
  };
  static_assert(std::is_trivially_copyable_v<Posting> &&
                    sizeof(Posting) == 16,
                "Posting is persisted as raw bytes");
  static_assert(std::is_trivially_copyable_v<BlockMeta> &&
                    sizeof(BlockMeta) == 16,
                "BlockMeta is persisted as raw bytes");

  /// Adds a document's analyzed tokens. Doc ids must be unique and
  /// non-negative. Fails after Finalize().
  Status AddDocument(int64_t doc_id, const std::vector<std::string>& tokens);

  /// Convenience: analyzes raw text (tokenize + stop + stem) and adds it.
  Status AddText(int64_t doc_id, const std::string& text);

  /// Freezes the index: computes idf weights, document norms, the per-term
  /// maximum score contribution used for pruning, and the per-term skip
  /// blocks (last doc id + max weight per kSkipBlockSize postings).
  Status Finalize();

  bool finalized() const { return finalized_; }
  int64_t num_documents() const { return static_cast<int64_t>(doc_norm_.size()); }
  int64_t num_terms() const { return static_cast<int64_t>(postings_.size()); }
  int64_t TotalPostings() const;

  /// Documents containing `term` (post-analysis form), for diagnostics.
  int64_t DocumentFrequency(const std::string& term) const;

  /// The query-side analysis every Search* runs first: the query's terms
  /// under the document chain. FailedPrecondition before Finalize(),
  /// InvalidArgument when no indexable term remains. Callers use it to
  /// validate a text condition without evaluating it.
  Result<std::vector<std::string>> AnalyzeQuery(const std::string& query) const;

  /// Baseline: scores every document containing any query term, then sorts.
  /// Query text is analyzed with the same chain as documents.
  Result<std::vector<SearchHit>> SearchExhaustive(const std::string& query,
                                                  size_t n,
                                                  SearchStats* stats = nullptr) const;

  /// Zero-copy view of one finalized term: idf, the per-list maximum
  /// weight, and spans over the postings and skip-block arrays. The spans
  /// point at this index's storage (or at the mapped segment bytes it was
  /// restored from) — they are invalidated by destroying the index.
  struct TermRange {
    const std::string* term = nullptr;
    double idf = 0.0;
    double max_weight = 0.0;
    util::ConstSpan<Posting> postings;
    util::ConstSpan<BlockMeta> blocks;
  };

  /// Every term's view, in term order (requires a finalized index). The
  /// segment writer serializes these spans verbatim, and the compressed
  /// index encodes them.
  Result<std::vector<TermRange>> TermRanges() const;

  /// Document norms (doc id -> 1/sqrt(len)), persisted so a restored index
  /// reports the same num_documents() and survives re-export.
  const std::map<int64_t, double>& doc_norms() const { return doc_norm_; }

  /// One term of a restored index. The spans must outlive the index (they
  /// typically point into a memory-mapped segment).
  struct RestoredTerm {
    std::string term;
    double idf = 0.0;
    double max_weight = 0.0;
    util::ConstSpan<Posting> postings;
    util::ConstSpan<BlockMeta> blocks;
  };

  /// Reassembles a *finalized* index from persisted parts — the inverse of
  /// TermRanges()/doc_norms(). Performs only structural validation (term
  /// uniqueness, block count consistency); byte integrity is the segment
  /// checksums' job. The restored index reads postings zero-copy through
  /// the given spans.
  static Result<InvertedIndex> FromTerms(
      std::vector<RestoredTerm> terms,
      std::vector<std::pair<int64_t, double>> doc_norms);

  /// Top-N optimized evaluation: document-at-a-time maxscore with
  /// block-max skipping (see file comment). Returns exactly the same hits
  /// as SearchExhaustive truncated to n.
  Result<std::vector<SearchHit>> SearchTopN(const std::string& query, size_t n,
                                            SearchStats* stats = nullptr) const;

  /// Cross-modal accept filter (DESIGN.md §4g): the exact top `n` among
  /// the documents in `accept_docs` (sorted ascending, deduplicated) —
  /// SearchTopN restricted to that subset *before* ranking. The cursors
  /// jump over non-accepted gaps block-wise, so cost scales with the
  /// accepted postings rather than the full lists. Note this equals
  /// "SearchTopN, then drop non-accepted hits" only when no truncation can
  /// occur (n at least the number of scoring documents); the planner checks
  /// that bound before choosing this path.
  Result<std::vector<SearchHit>> SearchTopNFiltered(
      const std::string& query, size_t n,
      const std::vector<int64_t>& accept_docs,
      SearchStats* stats = nullptr) const;

 private:
  /// Per-term state. Before Finalize() the postings accumulate in
  /// `postings_store`; Finalize() (or FromTerms) freezes them and points
  /// the `postings`/`blocks` spans either at the owned stores or — for an
  /// index restored zero-copy from a segment — at external mapped memory.
  /// Copying an InvertedIndex therefore re-points owned spans but shares
  /// view spans (the mapped bytes must outlive every copy).
  struct TermInfo {
    std::vector<Posting> postings_store;
    std::vector<BlockMeta> blocks_store;  ///< built by Finalize()
    util::ConstSpan<Posting> postings;    ///< valid once finalized
    util::ConstSpan<BlockMeta> blocks;    ///< valid once finalized
    double idf = 0.0;
    double max_weight = 0.0;  ///< max normalized tf among postings
  };

  /// Shared DAAT evaluation behind SearchTopN (accept == nullptr) and
  /// SearchTopNFiltered.
  Result<std::vector<SearchHit>> SearchTopNImpl(
      const std::string& query, size_t n, const std::vector<int64_t>* accept,
      SearchStats* stats) const;

  /// Deduplicates analyzed query terms into (term info, query tf) pairs,
  /// ordered by first occurrence in the analyzed query.
  struct QueryTerm {
    const TermInfo* info;
    double qtf;
    double max_contribution;
  };
  std::vector<QueryTerm> CollectQueryTerms(
      const std::vector<std::string>& terms) const;

  std::map<std::string, TermInfo> postings_;
  std::map<int64_t, double> doc_norm_;  ///< doc id -> 1/sqrt(len)
  bool finalized_ = false;
};

}  // namespace cobra::text
