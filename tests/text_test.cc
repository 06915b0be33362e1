#include <gtest/gtest.h>

#include <set>

#include "oracles/taat.h"
#include "text/corpus.h"
#include "text/inverted_index.h"
#include "text/tokenizer.h"

namespace cobra::text {
namespace {

// ---------- Tokenizer ----------

TEST(TokenizerTest, SplitsAndLowercases) {
  EXPECT_EQ(Tokenize("Hello, World! 42"),
            (std::vector<std::string>{"hello", "world", "42"}));
  EXPECT_EQ(Tokenize("a b I x"), (std::vector<std::string>{}));  // len < 2
  EXPECT_TRUE(Tokenize("").empty());
  EXPECT_TRUE(Tokenize("!!! ...").empty());
}

TEST(TokenizerTest, StopWords) {
  EXPECT_TRUE(IsStopWord("the"));
  EXPECT_TRUE(IsStopWord("and"));
  EXPECT_FALSE(IsStopWord("tennis"));
  EXPECT_FALSE(IsStopWord("net"));
}

TEST(StemTest, CommonSuffixes) {
  EXPECT_EQ(Stem("playing"), "play");
  EXPECT_EQ(Stem("played"), "play");
  EXPECT_EQ(Stem("players"), "player");
  EXPECT_EQ(Stem("matches"), "match");
  EXPECT_EQ(Stem("ladies"), "lady");
  EXPECT_EQ(Stem("quickly"), "quick");
  EXPECT_EQ(Stem("passes"), "pass");
  // Short words and non-suffix words pass through.
  EXPECT_EQ(Stem("net"), "net");
  EXPECT_EQ(Stem("is"), "is");
  EXPECT_EQ(Stem("glass"), "glass");
}

TEST(AnalyzeTest, FullChain) {
  auto tokens = Analyze("The players were playing at the net");
  EXPECT_EQ(tokens, (std::vector<std::string>{"player", "play", "net"}));
}

// ---------- Inverted index ----------

InvertedIndex SmallIndex() {
  InvertedIndex index;
  EXPECT_TRUE(index.AddText(0, "tennis match on the blue court").ok());
  EXPECT_TRUE(index.AddText(1, "tennis net play volley net").ok());
  EXPECT_TRUE(index.AddText(2, "interview about the final match").ok());
  EXPECT_TRUE(index.AddText(3, "court maintenance report").ok());
  EXPECT_TRUE(index.Finalize().ok());
  return index;
}

TEST(InvertedIndexTest, BasicCounts) {
  InvertedIndex index = SmallIndex();
  EXPECT_EQ(index.num_documents(), 4);
  EXPECT_EQ(index.DocumentFrequency("tenni"), 2);  // stem of "tennis"
  EXPECT_EQ(index.DocumentFrequency("match"), 2);
  EXPECT_EQ(index.DocumentFrequency("court"), 2);
  EXPECT_EQ(index.DocumentFrequency("absent"), 0);
  EXPECT_GT(index.TotalPostings(), 0);
}

TEST(InvertedIndexTest, LifecycleErrors) {
  InvertedIndex index;
  ASSERT_TRUE(index.AddText(0, "x y").ok());
  EXPECT_EQ(index.AddText(0, "dup").code(), StatusCode::kAlreadyExists);
  EXPECT_TRUE(index.AddText(-1, "neg").IsInvalidArgument());
  EXPECT_FALSE(index.SearchExhaustive("x", 5).ok()) << "search before finalize";
  ASSERT_TRUE(index.Finalize().ok());
  EXPECT_EQ(index.Finalize().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(index.AddText(1, "late").code(), StatusCode::kFailedPrecondition);
}

TEST(InvertedIndexTest, EmptyQueryRejected) {
  InvertedIndex index = SmallIndex();
  EXPECT_TRUE(index.SearchExhaustive("", 5).status().IsInvalidArgument());
  EXPECT_TRUE(index.SearchExhaustive("the of and", 5).status().IsInvalidArgument());
}

TEST(InvertedIndexTest, ExhaustiveRanksRelevantFirst) {
  InvertedIndex index = SmallIndex();
  auto hits = index.SearchExhaustive("tennis net", 4).TakeValue();
  ASSERT_FALSE(hits.empty());
  EXPECT_EQ(hits[0].doc_id, 1);  // contains both terms, "net" twice
  for (size_t i = 1; i < hits.size(); ++i) {
    EXPECT_LE(hits[i].score, hits[i - 1].score);
  }
}

TEST(InvertedIndexTest, UnknownTermsScoreNothing) {
  InvertedIndex index = SmallIndex();
  auto hits = index.SearchExhaustive("zebra", 4).TakeValue();
  EXPECT_TRUE(hits.empty());
}

TEST(InvertedIndexTest, TopNMatchesExhaustive) {
  // Property check on a sizable corpus: top-N set and order equal the
  // exhaustive baseline.
  CorpusConfig config;
  config.num_docs = 800;
  config.vocabulary_size = 2000;
  config.seed = 99;
  auto corpus = SyntheticCorpus::Generate(config).TakeValue();
  InvertedIndex index;
  for (size_t d = 0; d < corpus.size(); ++d) {
    ASSERT_TRUE(index.AddText(static_cast<int64_t>(d), corpus.document(d)).ok());
  }
  ASSERT_TRUE(index.Finalize().ok());

  for (uint64_t salt = 0; salt < 12; ++salt) {
    std::string query = corpus.MakeQuery(4, salt);
    for (size_t n : {1u, 10u, 50u}) {
      auto exhaustive = index.SearchExhaustive(query, n).TakeValue();
      auto topn = index.SearchTopN(query, n).TakeValue();
      ASSERT_EQ(topn.size(), exhaustive.size()) << query << " n=" << n;
      for (size_t i = 0; i < topn.size(); ++i) {
        EXPECT_EQ(topn[i].doc_id, exhaustive[i].doc_id)
            << query << " n=" << n << " rank " << i;
        EXPECT_NEAR(topn[i].score, exhaustive[i].score, 1e-9);
      }
    }
  }
}

TEST(InvertedIndexTest, TopNScansFewerPostings) {
  CorpusConfig config;
  config.num_docs = 2000;
  config.vocabulary_size = 3000;
  config.seed = 7;
  auto corpus = SyntheticCorpus::Generate(config).TakeValue();
  InvertedIndex index;
  for (size_t d = 0; d < corpus.size(); ++d) {
    ASSERT_TRUE(index.AddText(static_cast<int64_t>(d), corpus.document(d)).ok());
  }
  ASSERT_TRUE(index.Finalize().ok());

  // Mix one common word (rank 1: long postings) with rarer ones so the
  // optimizer has something to prune.
  std::string query = VocabularyWord(1) + " " + corpus.MakeQuery(3, 5);
  SearchStats exhaustive_stats, topn_stats;
  auto a = index.SearchExhaustive(query, 10, &exhaustive_stats);
  auto b = index.SearchTopN(query, 10, &topn_stats);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(topn_stats.early_terminated);
  EXPECT_LT(topn_stats.postings_scanned, exhaustive_stats.postings_scanned);
}

TEST(InvertedIndexTest, TopNZeroReturnsEmpty) {
  InvertedIndex index = SmallIndex();
  EXPECT_TRUE(index.SearchTopN("tennis", 0).TakeValue().empty());
  EXPECT_TRUE(SearchTopNTaat(index, "tennis", 0).TakeValue().empty());
}

TEST(InvertedIndexTest, TaatReferenceMatchesExhaustive) {
  CorpusConfig config;
  config.num_docs = 800;
  config.vocabulary_size = 2000;
  config.seed = 42;
  auto corpus = SyntheticCorpus::Generate(config).TakeValue();
  InvertedIndex index;
  for (size_t d = 0; d < corpus.size(); ++d) {
    ASSERT_TRUE(index.AddText(static_cast<int64_t>(d), corpus.document(d)).ok());
  }
  ASSERT_TRUE(index.Finalize().ok());

  for (uint64_t salt = 0; salt < 8; ++salt) {
    std::string query = corpus.MakeQuery(4, salt);
    for (size_t n : {1u, 10u, 50u}) {
      auto exhaustive = index.SearchExhaustive(query, n).TakeValue();
      auto taat = SearchTopNTaat(index, query, n).TakeValue();
      ASSERT_EQ(taat.size(), exhaustive.size()) << query << " n=" << n;
      for (size_t i = 0; i < taat.size(); ++i) {
        EXPECT_EQ(taat[i].doc_id, exhaustive[i].doc_id)
            << query << " n=" << n << " rank " << i;
        EXPECT_NEAR(taat[i].score, exhaustive[i].score, 1e-9);
      }
    }
  }
}

TEST(InvertedIndexTest, DaatSkipsBlocksAndScansFewerThanTaat) {
  CorpusConfig config;
  config.num_docs = 5000;
  config.vocabulary_size = 3000;
  config.seed = 11;
  auto corpus = SyntheticCorpus::Generate(config).TakeValue();
  InvertedIndex index;
  for (size_t d = 0; d < corpus.size(); ++d) {
    ASSERT_TRUE(index.AddText(static_cast<int64_t>(d), corpus.document(d)).ok());
  }
  ASSERT_TRUE(index.Finalize().ok());

  // A long-postings common word plus rarer discriminative ones: the DAAT
  // evaluator should skip whole blocks of the common list.
  std::string query = VocabularyWord(1) + " " + VocabularyWord(2) + " " +
                      corpus.MakeQuery(3, 9);
  SearchStats daat, taat;
  auto a = index.SearchTopN(query, 10, &daat);
  auto b = SearchTopNTaat(index, query, 10, &taat);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_GT(daat.blocks_skipped, 0) << "block-max pruning never fired";
  EXPECT_LT(daat.postings_scanned, taat.postings_scanned);
  // Same answers regardless of evaluation strategy.
  const auto& da = a.value();
  const auto& ta = b.value();
  ASSERT_EQ(da.size(), ta.size());
  for (size_t i = 0; i < da.size(); ++i) {
    EXPECT_EQ(da[i].doc_id, ta[i].doc_id) << i;
    EXPECT_NEAR(da[i].score, ta[i].score, 1e-9);
  }
}

// ---------- Corpus ----------

TEST(VocabularyWordTest, DistinctAndStable) {
  std::set<std::string> words;
  for (size_t rank = 1; rank <= 5000; ++rank) {
    EXPECT_TRUE(words.insert(VocabularyWord(rank)).second) << rank;
  }
  EXPECT_EQ(VocabularyWord(1), VocabularyWord(1));
}

TEST(VocabularyWordTest, SurvivesAnalysisChainDistinctly) {
  // The index analyzes all text; two distinct vocabulary words must not
  // collapse to one term after stemming.
  std::set<std::string> stems;
  for (size_t rank = 1; rank <= 3000; ++rank) {
    auto tokens = Analyze(VocabularyWord(rank));
    ASSERT_EQ(tokens.size(), 1u) << VocabularyWord(rank);
    EXPECT_TRUE(stems.insert(tokens[0]).second)
        << VocabularyWord(rank) << " stemmed to colliding " << tokens[0];
  }
}

TEST(SyntheticCorpusTest, GeneratesRequestedShape) {
  CorpusConfig config;
  config.num_docs = 50;
  config.min_words = 10;
  config.max_words = 20;
  config.vocabulary_size = 100;
  auto corpus = SyntheticCorpus::Generate(config).TakeValue();
  EXPECT_EQ(corpus.size(), 50u);
  for (size_t d = 0; d < corpus.size(); ++d) {
    size_t words = Tokenize(corpus.document(d)).size();
    EXPECT_GE(words, 10u);
    EXPECT_LE(words, 20u);
  }
}

TEST(SyntheticCorpusTest, DeterministicBySeed) {
  CorpusConfig config;
  config.num_docs = 20;
  auto a = SyntheticCorpus::Generate(config).TakeValue();
  auto b = SyntheticCorpus::Generate(config).TakeValue();
  for (size_t d = 0; d < a.size(); ++d) {
    EXPECT_EQ(a.document(d), b.document(d));
  }
}

TEST(SyntheticCorpusTest, ZipfSkew) {
  CorpusConfig config;
  config.num_docs = 300;
  config.vocabulary_size = 1000;
  auto corpus = SyntheticCorpus::Generate(config).TakeValue();
  // Rank-1 word should appear far more often than a mid-rank word.
  int64_t rank1 = 0, rank200 = 0;
  std::string w1 = VocabularyWord(1), w200 = VocabularyWord(200);
  for (size_t d = 0; d < corpus.size(); ++d) {
    for (const std::string& tok : Tokenize(corpus.document(d))) {
      if (tok == w1) ++rank1;
      if (tok == w200) ++rank200;
    }
  }
  EXPECT_GT(rank1, 10 * std::max<int64_t>(rank200, 1));
}

TEST(SyntheticCorpusTest, RejectsBadConfig) {
  CorpusConfig config;
  config.num_docs = 0;
  EXPECT_FALSE(SyntheticCorpus::Generate(config).ok());
  config = CorpusConfig{};
  config.min_words = 50;
  config.max_words = 10;
  EXPECT_FALSE(SyntheticCorpus::Generate(config).ok());
}

}  // namespace
}  // namespace cobra::text
