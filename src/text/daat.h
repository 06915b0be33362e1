#pragma once

/// \file daat.h
/// Document-at-a-time maxscore/block-max top-N evaluation, shared between
/// the uncompressed (`InvertedIndex`) and compressed
/// (`CompressedInvertedIndex`) indexes. The evaluator is exact by
/// construction: a document is dropped only when a true upper bound on its
/// final score proves it cannot displace the current heap floor — ties
/// included, since the floor comparison resolves equal scores by doc id
/// exactly like the exhaustive evaluator's sort.
///
/// Term cursors supply the per-index mechanics. A `TermCursor` must
/// provide:
///   double factor()            query-tf * idf multiplier
///   double max_contribution()  factor() * max weight over the whole list
///   bool valid()               cursor points at a posting
///   int64_t doc()              current doc id (requires valid())
///   double weight()            current weight  (requires valid())
///   void Advance()             step to the next posting
///   bool SeekBlock(int64_t d)  position block-wise so block_bound() is an
///                              upper bound for this term's weight of any
///                              posting >= d; false if no posting >= d
///   double block_bound()       said bound (requires SeekBlock() == true)
///   bool AdvanceTo(int64_t d)  first posting with doc id >= d; false when
///                              exhausted
///   size_t ordinal()           term's position in the analyzed query (a
///                              deterministic sort tie-break)
///   int64_t postings_scanned() postings examined so far
///   int64_t blocks_skipped()   whole blocks jumped without examination

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "text/inverted_index.h"

namespace cobra::text::internal {

/// One fully-scored top-N candidate.
struct TopEntry {
  double score = 0.0;
  int64_t doc_id = 0;
};

/// The result order: higher score first, lower doc id on ties. `Better`
/// decides whether a candidate displaces a heap entry under that order.
inline bool Better(double score, int64_t doc_id, const TopEntry& entry) {
  if (score != entry.score) return score > entry.score;
  return doc_id < entry.doc_id;
}

/// Heap comparator putting the *worst* entry on top (std::push_heap keeps
/// the comparator-maximal element at the front; under "is better than",
/// the front is the entry nothing beats downward — the floor).
inline bool HeapWorstOnTop(const TopEntry& a, const TopEntry& b) {
  return Better(a.score, a.doc_id, b);
}

/// Runs maxscore/block-max DAAT over the given term cursors. `terms` is
/// reordered (descending max contribution). Fills `stats` counters
/// (postings_scanned, blocks_skipped, early_terminated) when non-null;
/// terms_evaluated is the caller's concern. Returns the exact top `n` of
/// the exhaustive union, ordered (score desc, doc id asc). `num_docs` is
/// the index's document count: the heap never holds more, so an `n`
/// beyond it (a legitimate "every match") reserves no more than that.
///
/// `accept`, when non-null, is a sorted ascending deduplicated doc-id list:
/// only those documents are scored, and the cursors jump over non-accepted
/// gaps block-wise (the cross-modal accept filter of DESIGN.md §4g — the
/// result is the exact top `n` of the accepted subset).
template <typename TermCursor>
std::vector<SearchHit> DaatMaxScoreTopN(std::vector<TermCursor>* terms_in,
                                        size_t n, size_t num_docs,
                                        SearchStats* stats,
                                        const std::vector<int64_t>* accept =
                                            nullptr) {
  std::vector<TermCursor>& terms = *terms_in;
  std::vector<SearchHit> hits;
  const auto finish = [&](bool pruned, int64_t block_max_skips,
                          std::vector<TopEntry>* heap) {
    if (stats) {
      for (const TermCursor& t : terms) {
        stats->postings_scanned += t.postings_scanned();
        stats->blocks_skipped += t.blocks_skipped();
      }
      stats->blocks_skipped += block_max_skips;
      stats->early_terminated = pruned;
    }
    if (!heap) return;
    std::sort(heap->begin(), heap->end(),
              [](const TopEntry& a, const TopEntry& b) {
                if (a.score != b.score) return a.score > b.score;
                return a.doc_id < b.doc_id;
              });
    hits.reserve(heap->size());
    for (const TopEntry& e : *heap) hits.push_back(SearchHit{e.doc_id, e.score});
  };
  if (n == 0 || terms.empty()) {
    finish(false, 0, nullptr);
    return hits;
  }

  // Descending by max contribution: the non-essential set is a suffix that
  // grows from the tail as the heap floor rises.
  std::sort(terms.begin(), terms.end(),
            [](const TermCursor& a, const TermCursor& b) {
              if (a.max_contribution() != b.max_contribution()) {
                return a.max_contribution() > b.max_contribution();
              }
              return a.ordinal() < b.ordinal();
            });
  const size_t num_terms = terms.size();
  // suffix_ub[j] = sum of max contributions of terms [j, T): the most the
  // tail starting at j can add to any document's score.
  std::vector<double> suffix_ub(num_terms + 1, 0.0);
  for (size_t j = num_terms; j-- > 0;) {
    suffix_ub[j] = suffix_ub[j + 1] + terms[j].max_contribution();
  }

  std::vector<TopEntry> heap;
  heap.reserve(std::min(n, num_docs));
  const auto heap_full = [&] { return heap.size() >= n; };
  // True when a candidate with final-score upper bound `ub` provably
  // cannot displace the heap floor. Exact on ties: a bound equal to the
  // floor still enters iff the candidate's doc id is lower.
  const auto cannot_enter = [&](double ub, int64_t doc_id) {
    if (!heap_full()) return false;
    const TopEntry& floor = heap.front();
    if (ub != floor.score) return ub < floor.score;
    return doc_id > floor.doc_id;
  };

  size_t essential = num_terms;  // terms [0, essential) are essential
  int64_t block_max_skips = 0;
  bool pruned = false;
  size_t accept_pos = 0;  // cursor into `accept` (both advance monotonically)

  while (true) {
    // Terms [essential, T) become non-essential once even their combined
    // max contributions cannot displace the floor (strict: an exact tie
    // could still win the doc-id tie-break, so those terms stay).
    while (essential > 0 && heap_full() &&
           suffix_ub[essential - 1] < heap.front().score) {
      --essential;
      pruned = true;
    }
    if (essential == 0) break;

    // Candidate: minimum current doc across the essential cursors. Every
    // document that can still enter the heap appears in at least one
    // essential list, so this enumeration is complete.
    int64_t d = std::numeric_limits<int64_t>::max();
    for (size_t j = 0; j < essential; ++j) {
      if (terms[j].valid() && terms[j].doc() < d) d = terms[j].doc();
    }
    if (d == std::numeric_limits<int64_t>::max()) break;

    if (accept != nullptr) {
      while (accept_pos < accept->size() && (*accept)[accept_pos] < d) {
        ++accept_pos;
      }
      // No accepted doc at or past d: nothing further can be scored.
      if (accept_pos == accept->size()) break;
      const int64_t next_accepted = (*accept)[accept_pos];
      if (next_accepted > d) {
        // d is filtered out; jump every essential cursor over the
        // non-accepted gap [d, next_accepted) in one block-wise seek.
        for (size_t j = 0; j < essential; ++j) {
          if (terms[j].valid() && terms[j].doc() < next_accepted) {
            terms[j].AdvanceTo(next_accepted);
          }
        }
        continue;
      }
    }

    double score = 0.0;
    for (size_t j = 0; j < essential; ++j) {
      if (terms[j].valid() && terms[j].doc() == d) {
        score += terms[j].factor() * terms[j].weight();
        terms[j].Advance();
      }
    }

    // Non-essential terms, largest contribution first, with early abandon:
    // stop as soon as the remaining upper bound cannot reach the floor.
    bool abandoned = false;
    for (size_t j = essential; j < num_terms; ++j) {
      if (cannot_enter(score + suffix_ub[j], d)) {
        abandoned = true;
        pruned = true;
        break;
      }
      if (!terms[j].valid() || !terms[j].SeekBlock(d)) continue;
      // Block-max refinement: bound term j by the max weight of the block
      // that would contain doc d, before decoding inside it.
      if (cannot_enter(
              score + terms[j].factor() * terms[j].block_bound() +
                  suffix_ub[j + 1],
              d)) {
        abandoned = true;
        pruned = true;
        ++block_max_skips;
        break;
      }
      if (terms[j].AdvanceTo(d) && terms[j].doc() == d) {
        score += terms[j].factor() * terms[j].weight();
      }
    }
    if (abandoned) continue;

    if (!heap_full()) {
      heap.push_back(TopEntry{score, d});
      std::push_heap(heap.begin(), heap.end(), HeapWorstOnTop);
    } else if (Better(score, d, heap.front())) {
      std::pop_heap(heap.begin(), heap.end(), HeapWorstOnTop);
      heap.back() = TopEntry{score, d};
      std::push_heap(heap.begin(), heap.end(), HeapWorstOnTop);
    }
  }

  finish(pruned, block_max_skips, &heap);
  return hits;
}

}  // namespace cobra::text::internal
