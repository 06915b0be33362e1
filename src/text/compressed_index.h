#pragma once

/// \file compressed_index.h
/// An immutable, compressed snapshot of an InvertedIndex: postings are
/// delta+varbyte encoded and decoded on the fly during evaluation. Trades
/// a little CPU per posting for a several-fold smaller memory footprint —
/// the main-memory DBMS trade-off of ref [1] (experiment E10). Top-N
/// queries (`SearchTopN`) run document-at-a-time over streaming cursors
/// and use the codec's skip blocks to answer without decoding full lists.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "text/inverted_index.h"
#include "text/postings_codec.h"
#include "util/status.h"

namespace cobra::text {

class CompressedInvertedIndex {
 public:
  /// Builds the compressed snapshot from a finalized index.
  static Result<CompressedInvertedIndex> FromIndex(const InvertedIndex& index);

  int64_t num_terms() const { return static_cast<int64_t>(terms_.size()); }

  /// Total compressed postings bytes.
  size_t PostingsBytes() const;
  /// What the same postings occupy uncompressed (doc id + weight per entry).
  size_t UncompressedBytes() const;

  /// Exhaustive tf-idf evaluation with streaming decompression. Weights are
  /// quantized to 1/1024 fixed point, so scores match the uncompressed
  /// index to ~1e-3 and rankings agree except for near-exact ties.
  Result<std::vector<SearchHit>> Search(const std::string& query, size_t n,
                                        SearchStats* stats = nullptr) const;

  /// Top-N evaluation: document-at-a-time maxscore/block-max over
  /// streaming `CompressedPostings::Cursor`s — whole skip blocks are
  /// jumped via `SkipTo` without decoding. Returns exactly what Search
  /// (the compressed exhaustive baseline) returns truncated to n.
  Result<std::vector<SearchHit>> SearchTopN(const std::string& query, size_t n,
                                            SearchStats* stats = nullptr) const;

 private:
  struct TermEntry {
    double idf = 0.0;
    CompressedPostings postings;
  };
  std::map<std::string, TermEntry> terms_;
  size_t total_postings_ = 0;
};

}  // namespace cobra::text
