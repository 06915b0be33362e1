/// \file bench_e6_topn_text.cc
/// E6 — full-text top-N retrieval (ref [1], Blok et al.): exhaustive vs
/// top-N-optimized evaluation. Three evaluators are compared:
///   * exhaustive  — score every posting, sort, truncate;
///   * taat        — the previous term-at-a-time quality-cutoff optimizer
///                   (the test-only SearchTopNTaat in tests/oracles, the
///                   "before" reference);
///   * daat        — the document-at-a-time maxscore/block-max evaluator
///                   behind SearchTopN.
/// Reproduced shape: the optimized evaluators scan fewer postings and are
/// faster for small N, the advantage grows with collection size, and
/// results are identical to the baseline's top N (safe optimization).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "oracles/taat.h"
#include "text/corpus.h"
#include "text/inverted_index.h"

namespace {

using namespace cobra;  // NOLINT

std::unique_ptr<text::InvertedIndex> BuildIndex(size_t num_docs, uint64_t seed) {
  text::CorpusConfig config;
  config.num_docs = num_docs;
  config.vocabulary_size = 8000;
  config.seed = seed;
  auto corpus = text::SyntheticCorpus::Generate(config).TakeValue();
  auto index = std::make_unique<text::InvertedIndex>();
  for (size_t d = 0; d < corpus.size(); ++d) {
    (void)index->AddText(static_cast<int64_t>(d), corpus.document(d));
  }
  (void)index->Finalize();
  return index;
}

std::string BenchQuery(uint64_t salt) {
  // One frequent head word plus three mid-frequency words: long postings to
  // prune, rare terms to rank by.
  text::CorpusConfig config;
  config.vocabulary_size = 8000;
  text::SyntheticCorpus corpus =
      text::SyntheticCorpus::Generate(config).TakeValue();
  return text::VocabularyWord(1 + salt % 3) + " " + corpus.MakeQuery(3, salt);
}

using bench::Percentile;  // hoisted into bench_util.h for E6/E7/E8

/// Latency samples and work counters for one evaluator at one (docs, N).
struct EvalResult {
  std::vector<double> ms;
  int64_t postings = 0;
  int64_t blocks_skipped = 0;
};

void RunTable() {
  bench::PrintHeader("E6",
                     "top-N text retrieval: exhaustive vs taat vs daat");
  std::printf("%-8s %-5s %10s %10s %10s %8s %12s %12s %12s %10s %5s\n",
              "docs", "N", "exh_p50", "taat_p50", "daat_p50", "daat_p99",
              "exh_post", "taat_post", "daat_post", "blk_skip", "same");
  const int kQueries = 16;
  for (size_t docs : {4000, 16000, 100000}) {
    auto index = BuildIndex(docs, 7);
    const auto ranges = index->TermRanges().TakeValue();
    for (size_t n : {1, 10, 100}) {
      EvalResult exh, taat, daat;
      bool identical = true;
      for (int q = 0; q < kQueries; ++q) {
        std::string query = BenchQuery(static_cast<uint64_t>(q));
        text::SearchStats stats;
        auto t0 = std::chrono::steady_clock::now();
        auto exhaustive = index->SearchExhaustive(query, n, &stats).TakeValue();
        auto t1 = std::chrono::steady_clock::now();
        exh.ms.push_back(
            std::chrono::duration<double, std::milli>(t1 - t0).count());
        exh.postings += stats.postings_scanned;

        t0 = std::chrono::steady_clock::now();
        auto reference =
            text::SearchTopNTaat(ranges, query, n, &stats).TakeValue();
        t1 = std::chrono::steady_clock::now();
        taat.ms.push_back(
            std::chrono::duration<double, std::milli>(t1 - t0).count());
        taat.postings += stats.postings_scanned;

        t0 = std::chrono::steady_clock::now();
        auto topn = index->SearchTopN(query, n, &stats).TakeValue();
        t1 = std::chrono::steady_clock::now();
        daat.ms.push_back(
            std::chrono::duration<double, std::milli>(t1 - t0).count());
        daat.postings += stats.postings_scanned;
        daat.blocks_skipped += stats.blocks_skipped;

        if (topn.size() != exhaustive.size()) identical = false;
        for (size_t i = 0; identical && i < topn.size(); ++i) {
          if (topn[i].doc_id != exhaustive[i].doc_id) identical = false;
        }
      }
      std::printf(
          "%-8zu %-5zu %10.3f %10.3f %10.3f %8.3f %12lld %12lld %12lld "
          "%10lld %5s\n",
          docs, n, Percentile(exh.ms, 0.5), Percentile(taat.ms, 0.5),
          Percentile(daat.ms, 0.5), Percentile(daat.ms, 0.99),
          static_cast<long long>(exh.postings / kQueries),
          static_cast<long long>(taat.postings / kQueries),
          static_cast<long long>(daat.postings / kQueries),
          static_cast<long long>(daat.blocks_skipped / kQueries),
          identical ? "yes" : "NO");

      char prefix[64];
      std::snprintf(prefix, sizeof(prefix), "docs%zu_n%zu", docs, n);
      auto metric = [&](const char* name, double value) {
        std::string full = std::string(name) + "_" + prefix;
        bench::PrintJsonMetric("e6_topn_text", full.c_str(), value);
      };
      metric("exh_p50_ms", Percentile(exh.ms, 0.5));
      metric("exh_p99_ms", Percentile(exh.ms, 0.99));
      metric("taat_p50_ms", Percentile(taat.ms, 0.5));
      metric("taat_p99_ms", Percentile(taat.ms, 0.99));
      metric("daat_p50_ms", Percentile(daat.ms, 0.5));
      metric("daat_p99_ms", Percentile(daat.ms, 0.99));
      metric("exh_postings", static_cast<double>(exh.postings / kQueries));
      metric("taat_postings", static_cast<double>(taat.postings / kQueries));
      metric("daat_postings", static_cast<double>(daat.postings / kQueries));
      metric("daat_blocks_skipped",
             static_cast<double>(daat.blocks_skipped / kQueries));
      metric("speedup_daat_vs_taat_p50",
             Percentile(taat.ms, 0.5) /
                 std::max(Percentile(daat.ms, 0.5), 1e-9));
      metric("identical", identical ? 1.0 : 0.0);
    }
  }
  bench::PrintRule();
}

void BM_Search(benchmark::State& state) {
  static auto index = BuildIndex(16000, 7);
  static const auto ranges = index->TermRanges().TakeValue();
  const int mode = static_cast<int>(state.range(0));
  const size_t n = static_cast<size_t>(state.range(1));
  std::string query = BenchQuery(3);
  for (auto _ : state) {
    auto hits = mode == 2   ? index->SearchTopN(query, n)
                : mode == 1 ? text::SearchTopNTaat(ranges, query, n)
                            : index->SearchExhaustive(query, n);
    benchmark::DoNotOptimize(hits);
  }
}
BENCHMARK(BM_Search)
    ->Args({0, 10})
    ->Args({1, 10})
    ->Args({2, 10})
    ->Args({0, 100})
    ->Args({1, 100})
    ->Args({2, 100})
    ->Unit(benchmark::kMicrosecond);

void BM_IndexBuild(benchmark::State& state) {
  text::CorpusConfig config;
  config.num_docs = static_cast<size_t>(state.range(0));
  config.vocabulary_size = 8000;
  auto corpus = text::SyntheticCorpus::Generate(config).TakeValue();
  for (auto _ : state) {
    text::InvertedIndex index;
    for (size_t d = 0; d < corpus.size(); ++d) {
      (void)index.AddText(static_cast<int64_t>(d), corpus.document(d));
    }
    (void)index.Finalize();
    benchmark::DoNotOptimize(index);
  }
  state.counters["docs/s"] = benchmark::Counter(
      static_cast<double>(config.num_docs) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_IndexBuild)->Arg(1000)->Arg(4000)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  RunTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
