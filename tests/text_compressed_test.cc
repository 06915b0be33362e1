#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>

#include "text/compressed_index.h"
#include "text/corpus.h"
#include "text/inverted_index.h"
#include "text/postings_codec.h"

namespace cobra::text {
namespace {

// ---------- CompressedPostings ----------

TEST(CompressedPostingsTest, RoundTrip) {
  std::vector<DecodedPosting> postings = {
      {0, 0.5}, {1, 1.25}, {7, 0.0}, {1000, 3.75}, {1000000, 0.125}};
  auto compressed = CompressedPostings::Encode(postings).TakeValue();
  EXPECT_EQ(compressed.count(), 5u);
  auto back = compressed.Decode();
  ASSERT_EQ(back.size(), postings.size());
  for (size_t i = 0; i < postings.size(); ++i) {
    EXPECT_EQ(back[i].doc_id, postings[i].doc_id) << i;
    EXPECT_NEAR(back[i].weight, postings[i].weight, 1.0 / 1024) << i;
  }
}

TEST(CompressedPostingsTest, EmptyList) {
  auto compressed = CompressedPostings::Encode({}).TakeValue();
  EXPECT_EQ(compressed.count(), 0u);
  EXPECT_EQ(compressed.SizeBytes(), 0u);
  EXPECT_TRUE(compressed.Decode().empty());
}

TEST(CompressedPostingsTest, RejectsUnsortedAndNegative) {
  EXPECT_FALSE(CompressedPostings::Encode({{5, 1.0}, {5, 1.0}}).ok());
  EXPECT_FALSE(CompressedPostings::Encode({{5, 1.0}, {3, 1.0}}).ok());
  EXPECT_FALSE(CompressedPostings::Encode({{0, -1.0}}).ok());
}

TEST(CompressedPostingsTest, DenseListsCompressWell) {
  // Consecutive doc ids with small weights: ~2 bytes per posting vs 16 raw.
  std::vector<DecodedPosting> postings;
  for (int64_t d = 0; d < 1000; ++d) postings.push_back({d, 1.0});
  auto compressed = CompressedPostings::Encode(postings).TakeValue();
  EXPECT_LT(compressed.SizeBytes(), 3500u);
}

TEST(CompressedPostingsTest, CursorMatchesDecode) {
  std::vector<DecodedPosting> postings;
  for (int64_t d = 0; d < 100; d += 3) postings.push_back({d, d * 0.25});
  auto compressed = CompressedPostings::Encode(postings).TakeValue();
  CompressedPostings::Cursor cursor(compressed);
  auto decoded = compressed.Decode();
  DecodedPosting p;
  size_t i = 0;
  while (cursor.Next(&p)) {
    ASSERT_LT(i, decoded.size());
    EXPECT_EQ(p.doc_id, decoded[i].doc_id);
    ++i;
  }
  EXPECT_EQ(i, decoded.size());
}

TEST(CompressedPostingsTest, BlockMetadataCoversList) {
  std::vector<DecodedPosting> postings;
  for (int64_t d = 0; d < 1000; d += 7) postings.push_back({d, (d % 13) * 0.5});
  auto compressed = CompressedPostings::Encode(postings).TakeValue();
  size_t expected_blocks =
      (postings.size() + CompressedPostings::kBlockSize - 1) /
      CompressedPostings::kBlockSize;
  ASSERT_EQ(compressed.num_blocks(), expected_blocks);
  double global_max = 0.0;
  for (size_t b = 0; b < compressed.num_blocks(); ++b) {
    const auto& block = compressed.blocks()[b];
    size_t first = b * CompressedPostings::kBlockSize;
    size_t last = std::min(first + CompressedPostings::kBlockSize,
                           postings.size()) - 1;
    EXPECT_EQ(block.last_doc, postings[last].doc_id) << b;
    EXPECT_EQ(block.prev_doc, first == 0 ? -1 : postings[first - 1].doc_id) << b;
    double block_max = 0.0;
    for (size_t i = first; i <= last; ++i) {
      block_max = std::max(block_max, postings[i].weight);
    }
    EXPECT_NEAR(block.max_weight, block_max, 1.0 / 1024) << b;
    global_max = std::max(global_max, block_max);
  }
  EXPECT_NEAR(compressed.max_weight(), global_max, 1.0 / 1024);
}

TEST(CompressedPostingsTest, SkipToMatchesFullDecode) {
  // Property: for random gapped lists and random targets, SkipTo lands on
  // exactly the posting a full linear decode would find (lower bound), and
  // jumping blocks never changes what is returned.
  std::mt19937_64 rng(1234);
  for (int round = 0; round < 20; ++round) {
    std::vector<DecodedPosting> postings;
    int64_t doc = 0;
    size_t count = 50 + static_cast<size_t>(rng() % 900);
    for (size_t i = 0; i < count; ++i) {
      doc += 1 + static_cast<int64_t>(rng() % 50);
      postings.push_back({doc, static_cast<double>(rng() % 4096) / 1024.0});
    }
    auto compressed = CompressedPostings::Encode(postings).TakeValue();
    auto decoded = compressed.Decode();
    ASSERT_EQ(decoded.size(), postings.size());

    // Ascending random targets against one forward-only cursor.
    std::vector<int64_t> targets;
    for (int t = 0; t < 40; ++t) {
      targets.push_back(static_cast<int64_t>(rng() % (doc + 20)));
    }
    std::sort(targets.begin(), targets.end());

    // The raw cursor is a consuming stream: each returned posting is
    // consumed, so SkipTo answers from the postings *after* the last one
    // returned (the DAAT wrappers add current-posting semantics on top).
    CompressedPostings::Cursor cursor(compressed);
    DecodedPosting got;
    int64_t reached = -1;
    for (int64_t target : targets) {
      int64_t effective = std::max(target, reached + 1);
      auto it = std::lower_bound(
          decoded.begin(), decoded.end(), effective,
          [](const DecodedPosting& p, int64_t d) { return p.doc_id < d; });
      bool found = cursor.SkipTo(target, &got);
      ASSERT_TRUE(cursor.ok());
      if (it == decoded.end()) {
        EXPECT_FALSE(found) << "target " << target;
      } else {
        ASSERT_TRUE(found) << "target " << target;
        EXPECT_EQ(got.doc_id, it->doc_id) << "target " << target;
        EXPECT_EQ(got.weight, it->weight) << "target " << target;
        reached = got.doc_id;
      }
    }
    EXPECT_GT(cursor.blocks_skipped() + cursor.postings_decoded(), 0);
  }
}

TEST(CompressedPostingsTest, FromRawRoundTrips) {
  std::vector<DecodedPosting> postings;
  for (int64_t d = 0; d < 300; d += 3) postings.push_back({d, (d % 5) * 0.5});
  auto pristine = CompressedPostings::Encode(postings).TakeValue();
  auto rebuilt = CompressedPostings::FromRaw(
      std::vector<uint8_t>(pristine.data(),
                           pristine.data() + pristine.SizeBytes()),
      std::vector<CompressedPostings::SkipBlock>(pristine.blocks()),
      pristine.count(), pristine.max_weight());
  auto a = pristine.Decode();
  auto b = rebuilt.Decode();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].doc_id, b[i].doc_id);
    EXPECT_EQ(a[i].weight, b[i].weight);
  }
}

TEST(CompressedPostingsTest, CursorSurvivesMutatedBytes) {
  // Fuzz-style hardening check: however the raw bytes are truncated or
  // bit-flipped (as corrupt storage would hand to FromRaw), the cursor
  // must terminate, never yield a non-increasing doc id, never yield more
  // than count() postings, and stay exhausted once it bailed.
  std::vector<DecodedPosting> postings;
  for (int64_t d = 0; d < 500; d += 2) postings.push_back({d, (d % 7) * 0.25});
  auto pristine = CompressedPostings::Encode(postings).TakeValue();

  auto run_cursor = [&](const CompressedPostings& list) {
    CompressedPostings::Cursor cursor(list);
    DecodedPosting p;
    int64_t last = -1;
    size_t yielded = 0;
    while (cursor.Next(&p)) {
      ASSERT_GT(p.doc_id, last) << "doc ids must stay strictly increasing";
      last = p.doc_id;
      ++yielded;
      ASSERT_LE(yielded, list.count());
    }
    // Exhausted cursors stay exhausted, corrupt or not.
    EXPECT_FALSE(cursor.Next(&p));
    if (!cursor.ok()) {
      DecodedPosting q;
      EXPECT_FALSE(cursor.SkipTo(last + 1, &q));
    }
  };

  std::mt19937_64 rng(77);
  for (int round = 0; round < 300; ++round) {
    std::vector<uint8_t> bytes(pristine.data(),
                               pristine.data() + pristine.SizeBytes());
    switch (round % 3) {
      case 0:  // truncate to a random prefix, keep the declared count
        bytes.resize(rng() % (bytes.size() + 1));
        break;
      case 1: {  // flip a random bit
        size_t at = rng() % bytes.size();
        bytes[at] ^= static_cast<uint8_t>(1u << (rng() % 8));
        break;
      }
      default: {  // overwrite a random byte (can forge varint terminators)
        size_t at = rng() % bytes.size();
        bytes[at] = static_cast<uint8_t>(rng());
        break;
      }
    }
    auto mutated = CompressedPostings::FromRaw(
        std::move(bytes),
        std::vector<CompressedPostings::SkipBlock>(pristine.blocks()),
        pristine.count(), pristine.max_weight());
    run_cursor(mutated);
  }

  // All-0x80 bytes: an unterminated varint must be flagged, not looped on.
  auto unterminated = CompressedPostings::FromRaw(
      std::vector<uint8_t>(64, 0x80), {}, 10, 1.0);
  CompressedPostings::Cursor cursor(unterminated);
  DecodedPosting p;
  EXPECT_FALSE(cursor.Next(&p));
  EXPECT_FALSE(cursor.ok());
}

InvertedIndex BuildCorpusIndex(size_t docs, uint64_t seed) {
  CorpusConfig config;
  config.num_docs = docs;
  config.vocabulary_size = 2000;
  config.seed = seed;
  auto corpus = SyntheticCorpus::Generate(config).TakeValue();
  InvertedIndex index;
  for (size_t d = 0; d < corpus.size(); ++d) {
    EXPECT_TRUE(index.AddText(static_cast<int64_t>(d), corpus.document(d)).ok());
  }
  EXPECT_TRUE(index.Finalize().ok());
  return index;
}

TEST(TermRangesTest, RequiresFinalized) {
  InvertedIndex index;
  ASSERT_TRUE(index.AddText(0, "alpha beta").ok());
  EXPECT_FALSE(index.TermRanges().ok());
  ASSERT_TRUE(index.Finalize().ok());
  auto terms = index.TermRanges().TakeValue();
  EXPECT_EQ(terms.size(), 2u);
  EXPECT_EQ(terms[0].postings.size(), 1u);
}

TEST(CompressedIndexTest, SavesSpace) {
  InvertedIndex index = BuildCorpusIndex(2000, 5);
  auto compressed = CompressedInvertedIndex::FromIndex(index).TakeValue();
  EXPECT_EQ(compressed.num_terms(), index.num_terms());
  EXPECT_LT(compressed.PostingsBytes(), compressed.UncompressedBytes() / 3)
      << "expected at least 3x postings compression";
}

TEST(CompressedIndexTest, SearchAgreesWithUncompressed) {
  InvertedIndex index = BuildCorpusIndex(1500, 9);
  auto compressed = CompressedInvertedIndex::FromIndex(index).TakeValue();
  CorpusConfig config;
  config.vocabulary_size = 2000;
  auto corpus = SyntheticCorpus::Generate(config).TakeValue();

  for (uint64_t salt = 0; salt < 8; ++salt) {
    std::string query = corpus.MakeQuery(4, salt);
    auto expected = index.SearchExhaustive(query, 20).TakeValue();
    auto got = compressed.Search(query, 20).TakeValue();
    ASSERT_EQ(got.size(), expected.size()) << query;
    // Quantized weights can flip near-ties; compare as sets with score
    // tolerance.
    std::set<int64_t> expected_docs, got_docs;
    for (const auto& hit : expected) expected_docs.insert(hit.doc_id);
    for (const auto& hit : got) got_docs.insert(hit.doc_id);
    size_t overlap = 0;
    for (int64_t d : got_docs) overlap += expected_docs.count(d);
    EXPECT_GE(overlap + 2, got_docs.size()) << query;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_NEAR(got[i].score, expected[i].score, 0.02) << query << " @" << i;
    }
  }
}

TEST(CompressedIndexTest, ScansSamePostings) {
  InvertedIndex index = BuildCorpusIndex(800, 3);
  auto compressed = CompressedInvertedIndex::FromIndex(index).TakeValue();
  CorpusConfig config;
  config.vocabulary_size = 2000;
  auto corpus = SyntheticCorpus::Generate(config).TakeValue();
  std::string query = corpus.MakeQuery(3, 1);
  SearchStats a, b;
  ASSERT_TRUE(index.SearchExhaustive(query, 10, &a).ok());
  ASSERT_TRUE(compressed.Search(query, 10, &b).ok());
  EXPECT_EQ(a.postings_scanned, b.postings_scanned);
  EXPECT_EQ(a.terms_evaluated, b.terms_evaluated);
}

TEST(CompressedIndexTest, TopNMatchesExhaustiveCompressed) {
  // The DAAT block-max path over streaming cursors must return exactly the
  // compressed exhaustive baseline truncated to n — same quantized scores,
  // same tie-breaks — while decoding fewer postings.
  InvertedIndex index = BuildCorpusIndex(2000, 21);
  auto compressed = CompressedInvertedIndex::FromIndex(index).TakeValue();
  CorpusConfig config;
  config.vocabulary_size = 2000;
  auto corpus = SyntheticCorpus::Generate(config).TakeValue();

  int64_t total_scanned_topn = 0, total_scanned_full = 0;
  for (uint64_t salt = 0; salt < 10; ++salt) {
    std::string query =
        VocabularyWord(1 + salt % 3) + " " + corpus.MakeQuery(3, salt);
    for (size_t n : {1u, 10u, 100u}) {
      SearchStats full_stats, topn_stats;
      auto expected = compressed.Search(query, n, &full_stats).TakeValue();
      auto got = compressed.SearchTopN(query, n, &topn_stats).TakeValue();
      ASSERT_EQ(got.size(), expected.size()) << query << " n=" << n;
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].doc_id, expected[i].doc_id)
            << query << " n=" << n << " rank " << i;
        EXPECT_NEAR(got[i].score, expected[i].score, 1e-9);
      }
      total_scanned_topn += topn_stats.postings_scanned;
      total_scanned_full += full_stats.postings_scanned;
    }
  }
  EXPECT_LT(total_scanned_topn, total_scanned_full)
      << "top-N should answer without decoding full lists";
}

TEST(CompressedIndexTest, TopNSkipsBlocks) {
  InvertedIndex index = BuildCorpusIndex(5000, 33);
  auto compressed = CompressedInvertedIndex::FromIndex(index).TakeValue();
  CorpusConfig config;
  config.vocabulary_size = 2000;
  auto corpus = SyntheticCorpus::Generate(config).TakeValue();
  std::string query = VocabularyWord(1) + " " + corpus.MakeQuery(3, 4);
  SearchStats stats;
  ASSERT_TRUE(compressed.SearchTopN(query, 10, &stats).ok());
  EXPECT_GT(stats.blocks_skipped, 0) << "SkipTo never jumped a block";
}

TEST(CompressedIndexTest, EmptyQueryRejected) {
  InvertedIndex index = BuildCorpusIndex(50, 1);
  auto compressed = CompressedInvertedIndex::FromIndex(index).TakeValue();
  EXPECT_FALSE(compressed.Search("the of", 5).ok());
  EXPECT_FALSE(compressed.SearchTopN("the of", 5).ok());
}

TEST(CompressedIndexTest, FromUnfinalizedFails) {
  InvertedIndex index;
  ASSERT_TRUE(index.AddText(0, "x y z").ok());
  EXPECT_FALSE(CompressedInvertedIndex::FromIndex(index).ok());
}

}  // namespace
}  // namespace cobra::text
