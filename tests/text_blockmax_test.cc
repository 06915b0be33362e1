#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "oracles/taat.h"
#include "text/compressed_index.h"
#include "text/corpus.h"
#include "text/inverted_index.h"

namespace cobra::text {
namespace {

/// Property sweep for the DAAT maxscore/block-max evaluator: across corpus
/// sizes, result depths and query seeds, `SearchTopN` must return exactly
/// what `SearchExhaustive` returns (documents AND order, including
/// tie-breaks) while never scanning more postings. The evaluator is exact
/// by construction — this sweep is the empirical side of that argument.

struct SweepCase {
  size_t num_docs;
  uint64_t corpus_seed;
};

class BlockMaxSweepTest : public ::testing::TestWithParam<SweepCase> {};

InvertedIndex BuildIndex(const SyntheticCorpus& corpus) {
  InvertedIndex index;
  for (size_t d = 0; d < corpus.size(); ++d) {
    EXPECT_TRUE(
        index.AddText(static_cast<int64_t>(d), corpus.document(d)).ok());
  }
  EXPECT_TRUE(index.Finalize().ok());
  return index;
}

TEST_P(BlockMaxSweepTest, DaatEqualsExhaustive) {
  const SweepCase& param = GetParam();
  CorpusConfig config;
  config.num_docs = param.num_docs;
  config.vocabulary_size = 2000;
  config.seed = param.corpus_seed;
  auto corpus = SyntheticCorpus::Generate(config).TakeValue();
  InvertedIndex index = BuildIndex(corpus);

  for (uint64_t salt = 0; salt < 10; ++salt) {
    // Alternate between rare-ish query terms and queries anchored on the
    // most frequent vocabulary words (long postings, prunable tails).
    std::string query = corpus.MakeQuery(1 + salt % 4, salt);
    if (salt % 2 == 0) query = VocabularyWord(1 + salt / 2) + " " + query;

    for (size_t n : {1u, 3u, 10u, 100u}) {
      SearchStats exhaustive_stats, daat_stats;
      auto exhaustive =
          index.SearchExhaustive(query, n, &exhaustive_stats).TakeValue();
      auto daat = index.SearchTopN(query, n, &daat_stats).TakeValue();
      ASSERT_EQ(daat.size(), exhaustive.size())
          << "docs=" << param.num_docs << " query='" << query << "' n=" << n;
      for (size_t i = 0; i < daat.size(); ++i) {
        EXPECT_EQ(daat[i].doc_id, exhaustive[i].doc_id)
            << "docs=" << param.num_docs << " query='" << query << "' n=" << n
            << " rank " << i;
        EXPECT_NEAR(daat[i].score, exhaustive[i].score, 1e-9);
      }
      EXPECT_LE(daat_stats.postings_scanned, exhaustive_stats.postings_scanned)
          << "DAAT must never scan more than the exhaustive pass";
    }
  }
}

TEST_P(BlockMaxSweepTest, DaatEqualsTaatReference) {
  const SweepCase& param = GetParam();
  CorpusConfig config;
  config.num_docs = param.num_docs;
  config.vocabulary_size = 2000;
  config.seed = param.corpus_seed + 1000;
  auto corpus = SyntheticCorpus::Generate(config).TakeValue();
  InvertedIndex index = BuildIndex(corpus);

  for (uint64_t salt = 0; salt < 6; ++salt) {
    std::string query = corpus.MakeQuery(3, salt);
    for (size_t n : {1u, 10u, 50u}) {
      auto taat = SearchTopNTaat(index, query, n).TakeValue();
      auto daat = index.SearchTopN(query, n).TakeValue();
      ASSERT_EQ(daat.size(), taat.size()) << query << " n=" << n;
      for (size_t i = 0; i < daat.size(); ++i) {
        EXPECT_EQ(daat[i].doc_id, taat[i].doc_id) << query << " n=" << n;
        EXPECT_NEAR(daat[i].score, taat[i].score, 1e-9);
      }
    }
  }
}

TEST_P(BlockMaxSweepTest, CompressedDaatEqualsCompressedExhaustive) {
  const SweepCase& param = GetParam();
  CorpusConfig config;
  config.num_docs = param.num_docs;
  config.vocabulary_size = 2000;
  config.seed = param.corpus_seed + 2000;
  auto corpus = SyntheticCorpus::Generate(config).TakeValue();
  InvertedIndex index = BuildIndex(corpus);
  auto compressed = CompressedInvertedIndex::FromIndex(index).TakeValue();

  for (uint64_t salt = 0; salt < 6; ++salt) {
    std::string query = corpus.MakeQuery(2 + salt % 3, salt);
    for (size_t n : {1u, 10u, 100u}) {
      auto expected = compressed.Search(query, n).TakeValue();
      auto got = compressed.SearchTopN(query, n).TakeValue();
      ASSERT_EQ(got.size(), expected.size()) << query << " n=" << n;
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].doc_id, expected[i].doc_id)
            << query << " n=" << n << " rank " << i;
        EXPECT_NEAR(got[i].score, expected[i].score, 1e-9);
      }
    }
  }
}

TEST_P(BlockMaxSweepTest, DuplicateQueryTermsFoldIntoQtf) {
  const SweepCase& param = GetParam();
  CorpusConfig config;
  config.num_docs = param.num_docs;
  config.vocabulary_size = 2000;
  config.seed = param.corpus_seed + 3000;
  auto corpus = SyntheticCorpus::Generate(config).TakeValue();
  InvertedIndex index = BuildIndex(corpus);

  std::string base = corpus.MakeQuery(2, 1);
  std::string doubled = base + " " + base;  // qtf of every term doubles
  auto exhaustive = index.SearchExhaustive(doubled, 20).TakeValue();
  auto daat = index.SearchTopN(doubled, 20).TakeValue();
  ASSERT_EQ(daat.size(), exhaustive.size());
  for (size_t i = 0; i < daat.size(); ++i) {
    EXPECT_EQ(daat[i].doc_id, exhaustive[i].doc_id) << i;
    EXPECT_NEAR(daat[i].score, exhaustive[i].score, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Corpora, BlockMaxSweepTest,
    ::testing::Values(SweepCase{60, 1}, SweepCase{500, 2}, SweepCase{2000, 3},
                      SweepCase{2000, 4}, SweepCase{5000, 5}),
    [](const ::testing::TestParamInfo<SweepCase>& info) {
      return "docs" + std::to_string(info.param.num_docs) + "seed" +
             std::to_string(info.param.corpus_seed);
    });

}  // namespace
}  // namespace cobra::text
