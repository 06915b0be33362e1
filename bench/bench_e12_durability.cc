/// \file bench_e12_durability.cc
/// E12 — durable segment storage (DESIGN.md §4h). Four sections:
///   a) cold start at COBRA_E12_DOCS interview documents (default 100k):
///      in-memory rebuild vs mmap segment open (full verify and no-verify)
///      — the headline is mmap_speedup_vs_rebuild — plus a bit-identity
///      sweep of the restored index against the rebuilt one;
///   b) ingest throughput: one Apply (one fdatasync) per record vs every
///      record staged behind one group commit vs the never-persisted
///      in-memory library;
///   c) query latency p50/p99 on the mmap-backed restored index vs the
///      heap-backed index E12a rebuilt in memory;
///   d) background compaction: merge cost, queries during the merge, and
///      a bit-identity sweep after reopening the compacted library.
/// Exits nonzero when either bit-identity sweep fails. Results mirror to
/// BENCH_E12.json (one JSON object per line). Artifacts (segment
/// directories) live under the working directory — CI runs this from
/// build/, so nothing lands in the source tree.

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "core/ingest_delta.h"
#include "engine/digital_library.h"
#include "engine/durable_library.h"
#include "storage/segment/io.h"
#include "text/inverted_index.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "webspace/site_synthesizer.h"

namespace {

using namespace cobra;  // NOLINT
namespace seg = storage::segment;
using core::IngestDelta;

constexpr const char* kBench = "e12_durability";

int64_t DocCount() {
  if (const char* env = std::getenv("COBRA_E12_DOCS")) {
    const int64_t parsed = std::atoll(env);
    if (parsed > 0) return parsed;
  }
  return 100000;
}

// Synthetic interview corpus: ~40 tokens per document over a 2000-word
// vocabulary with a mild skew (min of two uniforms) so postings lists have
// realistic length spread.
std::vector<std::string> MakeVocabulary() {
  std::vector<std::string> vocabulary;
  vocabulary.reserve(2000);
  for (int i = 0; i < 2000; ++i) {
    vocabulary.push_back("w" + std::to_string(i));
  }
  return vocabulary;
}

std::vector<std::string> MakeDoc(const std::vector<std::string>& vocabulary,
                                 Rng* rng) {
  std::vector<std::string> tokens;
  tokens.reserve(40);
  for (int t = 0; t < 40; ++t) {
    const uint64_t a = rng->NextBounded(vocabulary.size());
    const uint64_t b = rng->NextBounded(vocabulary.size());
    tokens.push_back(vocabulary[std::min(a, b)]);
  }
  return tokens;
}

std::vector<std::string> QuerySet(const std::vector<std::string>& vocabulary) {
  std::vector<std::string> queries;
  Rng rng(123);
  for (int q = 0; q < 200; ++q) {
    std::string query = vocabulary[rng.NextBounded(400)];
    query += " " + vocabulary[rng.NextBounded(1200)];
    if (q % 2 == 0) query += " " + vocabulary[rng.NextBounded(2000)];
    queries.push_back(std::move(query));
  }
  return queries;
}

webspace::SynthesizedSite MakeSite() {
  webspace::SiteConfig config;
  config.num_players = 16;
  config.num_past_years = 3;
  config.videos_per_year = 1;
  config.seed = 2002;
  config.ensure_answer = true;
  return webspace::SiteSynthesizer::Generate(config).TakeValue();
}

std::string FreshDir(const std::string& dir) {
  if (auto entries = seg::ListDir(dir); entries.ok()) {
    for (const std::string& entry : *entries) {
      (void)seg::RemoveFile(dir + "/" + entry);
    }
  }
  (void)seg::CreateDir(dir);
  return dir;
}

bool BitIdenticalSearches(const text::InvertedIndex& a,
                          const text::InvertedIndex& b,
                          const std::vector<std::string>& queries) {
  for (const std::string& query : queries) {
    auto ha = a.SearchTopN(query, 10);
    auto hb = b.SearchTopN(query, 10);
    if (!ha.ok() || !hb.ok() || ha->size() != hb->size()) return false;
    for (size_t i = 0; i < ha->size(); ++i) {
      if ((*ha)[i].doc_id != (*hb)[i].doc_id) return false;
      if (std::memcmp(&(*ha)[i].score, &(*hb)[i].score, 8) != 0) return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// E12a — cold start: rebuild vs mmap open.

/// Returns the rebuilt library (E12c's heap-backed arm); sets `identical`
/// to whether the restored index answers every query like it.
std::unique_ptr<engine::DigitalLibrary> RunColdStart(
    const int64_t num_docs, const std::vector<std::string>& vocabulary,
    const std::vector<std::string>& queries, bool* identical) {
  bench::PrintHeader("E12a", "cold start: rebuild vs mmap segment open");

  // Persist once: a durable library whose text index holds the corpus.
  const std::string dir = FreshDir("e12_coldstart");
  {
    auto durable =
        engine::DurableLibrary::Create(dir, std::move(MakeSite().store))
            .TakeValue();
    Rng rng(7);
    for (int64_t d = 0; d < num_docs; ++d) {
      std::string body;
      for (const std::string& token : MakeDoc(vocabulary, &rng)) {
        body += token;
        body += ' ';
      }
      (void)durable->Apply(IngestDelta::Interview(100000 + d, body));
    }
    (void)durable->Apply(IngestDelta::FinalizeText());
    bench::WallTimer flush_timer;
    (void)durable->Flush();
    bench::PrintJsonMetric(kBench, "flush_snapshot_ms", flush_timer.Millis());
  }
  int64_t bytes = 0;
  for (const std::string& entry : seg::ListDir(dir).TakeValue()) {
    bytes += seg::FileSize(dir + "/" + entry).TakeValue();
  }

  // The O(corpus) arm: rebuild the index in memory from the raw documents.
  double rebuild_ms = 0.0;
  std::unique_ptr<engine::DigitalLibrary> rebuilt;
  {
    bench::WallTimer timer;
    auto library =
        engine::DigitalLibrary::Create(std::move(MakeSite().store))
            .TakeValue();
    Rng rng(7);
    for (int64_t d = 0; d < num_docs; ++d) {
      std::string body;
      for (const std::string& token : MakeDoc(vocabulary, &rng)) {
        body += token;
        body += ' ';
      }
      (void)library->AddInterview(100000 + d, body);
    }
    (void)library->FinalizeText();
    rebuild_ms = timer.Millis();
    rebuilt = std::move(library);
  }

  // The O(1)-page-ins arms. Each open is a full DurableLibrary::Open:
  // manifest, segment mapping, restore, (empty) WAL replay.
  auto time_open = [&](const engine::DurableLibrary::Options& options) {
    std::vector<double> times;
    for (int rep = 0; rep < 5; ++rep) {
      bench::WallTimer timer;
      auto durable = engine::DurableLibrary::Open(dir, options).TakeValue();
      times.push_back(timer.Millis());
    }
    return bench::Percentile(times, 0.5);
  };
  engine::DurableLibrary::Options mmap_options;
  engine::DurableLibrary::Options noverify_options;
  noverify_options.verify = seg::SegmentReader::Verify::kNone;
  const double mmap_ms = time_open(mmap_options);
  const double noverify_ms = time_open(noverify_options);

  // First-query cost after a cold mmap open (pages fault in lazily).
  auto durable = engine::DurableLibrary::Open(dir, mmap_options).TakeValue();
  bench::WallTimer first_query;
  (void)durable->library().interviews().SearchTopN(queries.front(), 10);
  const double first_query_ms = first_query.Millis();
  *identical = BitIdenticalSearches(
      rebuilt->interviews(), durable->library().interviews(), queries);

  std::printf("docs %lld, segment bytes %lld\n",
              static_cast<long long>(num_docs), static_cast<long long>(bytes));
  std::printf("%-28s %10.1f ms\n", "in-memory rebuild", rebuild_ms);
  std::printf("%-28s %10.1f ms\n", "mmap open (full verify)", mmap_ms);
  std::printf("%-28s %10.1f ms\n", "mmap open (no verify)", noverify_ms);
  std::printf("%-28s %10.2f x\n", "mmap speedup vs rebuild",
              rebuild_ms / mmap_ms);
  std::printf("%-28s %10.2f ms (bit-identical: %s)\n", "first query",
              first_query_ms, *identical ? "yes" : "NO");

  bench::PrintJsonMetric(kBench, "docs", static_cast<double>(num_docs));
  bench::PrintJsonMetric(kBench, "segment_bytes", static_cast<double>(bytes));
  bench::PrintJsonMetric(kBench, "rebuild_ms", rebuild_ms);
  bench::PrintJsonMetric(kBench, "mmap_open_ms", mmap_ms);
  bench::PrintJsonMetric(kBench, "mmap_open_noverify_ms", noverify_ms);
  bench::PrintJsonMetric(kBench, "mmap_speedup_vs_rebuild",
                         rebuild_ms / mmap_ms);
  bench::PrintJsonMetric(kBench, "first_query_ms", first_query_ms);
  bench::PrintJsonMetric(kBench, "coldstart_bit_identical",
                         *identical ? 1.0 : 0.0);
  return rebuilt;
}

// ---------------------------------------------------------------------------
// E12b — ingest throughput: a WAL sync per record vs one group vs in-memory.

void RunIngest(const std::vector<std::string>& vocabulary) {
  bench::PrintHeader("E12b", "ingest throughput (docs/s)");
  const int64_t num_docs = 2000;

  auto make_bodies = [&] {
    std::vector<std::string> bodies;
    Rng rng(17);
    for (int64_t d = 0; d < num_docs; ++d) {
      std::string body;
      for (const std::string& token : MakeDoc(vocabulary, &rng)) {
        body += token;
        body += ' ';
      }
      bodies.push_back(std::move(body));
    }
    return bodies;
  };
  const std::vector<std::string> bodies = make_bodies();

  // Per record: Apply waits for each record's own fdatasync. Staged: every
  // record is staged first and one WaitDurable syncs them as one group.
  auto run_durable = [&](bool per_record) {
    const std::string dir =
        FreshDir(per_record ? "e12_ingest_sync" : "e12_ingest_staged");
    auto durable =
        engine::DurableLibrary::Create(dir, std::move(MakeSite().store))
            .TakeValue();
    bench::WallTimer timer;
    engine::DurableLibrary::StageTicket last;
    for (int64_t d = 0; d < num_docs; ++d) {
      const IngestDelta delta = IngestDelta::Interview(100000 + d, bodies[d]);
      if (per_record) {
        (void)durable->Apply(delta);
      } else {
        last = durable->Stage(delta).TakeValue();
      }
    }
    (void)durable->WaitDurable(last);  // a no-op after the per-record arm
    return static_cast<double>(num_docs) / (timer.Millis() / 1e3);
  };
  const double sync_rate = run_durable(true);
  const double staged_rate = run_durable(false);

  auto library =
      engine::DigitalLibrary::Create(std::move(MakeSite().store)).TakeValue();
  bench::WallTimer timer;
  for (int64_t d = 0; d < num_docs; ++d) {
    (void)library->AddInterview(100000 + d, bodies[d]);
  }
  const double memory_rate =
      static_cast<double>(num_docs) / (timer.Millis() / 1e3);

  std::printf("%-28s %12.0f docs/s\n", "WAL, fdatasync per record", sync_rate);
  std::printf("%-28s %12.0f docs/s\n", "WAL, one group commit", staged_rate);
  std::printf("%-28s %12.0f docs/s\n", "in-memory (no WAL)", memory_rate);
  bench::PrintJsonMetric(kBench, "ingest_wal_sync_docs_per_s", sync_rate);
  bench::PrintJsonMetric(kBench, "ingest_wal_staged_docs_per_s", staged_rate);
  bench::PrintJsonMetric(kBench, "ingest_memory_docs_per_s", memory_rate);
}

// ---------------------------------------------------------------------------
// E12c — query latency, mmap-backed vs heap-backed.

void RunQueryLatency(const text::InvertedIndex& rebuilt,
                     const std::vector<std::string>& queries) {
  bench::PrintHeader("E12c", "query p50/p99: mmap-backed vs heap-backed");
  auto measure = [&](const text::InvertedIndex& index, double* p50,
                     double* p99) {
    // Warm pass so the mmap arm's page faults don't masquerade as query
    // cost (cold-start cost is E12a's metric).
    for (const std::string& query : queries) {
      (void)index.SearchTopN(query, 10);
    }
    std::vector<double> times;
    for (int rep = 0; rep < 3; ++rep) {
      for (const std::string& query : queries) {
        bench::WallTimer timer;
        (void)index.SearchTopN(query, 10);
        times.push_back(timer.Millis());
      }
    }
    *p50 = bench::Percentile(times, 0.5);
    *p99 = bench::Percentile(times, 0.99);
  };
  double mmap_p50 = 0, mmap_p99 = 0, heap_p50 = 0, heap_p99 = 0;
  {
    // The segment E12a persisted, restored zero-copy.
    auto durable = engine::DurableLibrary::Open("e12_coldstart").TakeValue();
    measure(durable->library().interviews(), &mmap_p50, &mmap_p99);
  }
  measure(rebuilt, &heap_p50, &heap_p99);

  std::printf("%-18s p50 %8.3f ms   p99 %8.3f ms\n", "mmap-backed", mmap_p50,
              mmap_p99);
  std::printf("%-18s p50 %8.3f ms   p99 %8.3f ms\n", "heap (rebuilt)",
              heap_p50, heap_p99);
  bench::PrintJsonMetric(kBench, "query_mmap_p50_ms", mmap_p50);
  bench::PrintJsonMetric(kBench, "query_mmap_p99_ms", mmap_p99);
  bench::PrintJsonMetric(kBench, "query_rebuilt_p50_ms", heap_p50);
  bench::PrintJsonMetric(kBench, "query_rebuilt_p99_ms", heap_p99);
}

// ---------------------------------------------------------------------------
// E12d — background compaction.

/// Returns whether the reopened compacted library answers every query
/// like the live one.
bool RunCompaction(const std::vector<std::string>& vocabulary,
                   const std::vector<std::string>& queries) {
  bench::PrintHeader("E12d", "background merge/compaction");
  const std::string dir = FreshDir("e12_compact");
  auto durable =
      engine::DurableLibrary::Create(dir, std::move(MakeSite().store))
          .TakeValue();
  Rng rng(29);
  const int64_t num_docs = 20000;
  for (int64_t d = 0; d < num_docs; ++d) {
    std::string body;
    for (const std::string& token : MakeDoc(vocabulary, &rng)) {
      body += token;
      body += ' ';
    }
    (void)durable->Apply(IngestDelta::Interview(100000 + d, body));
    if ((d + 1) % 4000 == 0) (void)durable->Flush();  // many delta segments
  }
  (void)durable->Apply(IngestDelta::FinalizeText());
  (void)durable->Flush();
  const size_t segments_before = durable->num_segments();

  util::ThreadPool pool(2);
  bench::WallTimer timer;
  (void)durable->CompactAsync(&pool);
  // Queries proceed against the live library while the merge runs.
  int64_t queries_during = 0;
  for (const std::string& query : queries) {
    (void)durable->library().interviews().SearchTopN(query, 10);
    ++queries_during;
  }
  (void)durable->WaitForCompaction();
  const double compact_ms = timer.Millis();
  const size_t segments_after = durable->num_segments();

  auto reopened = engine::DurableLibrary::Open(dir).TakeValue();
  const bool identical = BitIdenticalSearches(
      durable->library().interviews(), reopened->library().interviews(),
      queries);

  std::printf("segments %zu -> %zu, compact %0.1f ms, %lld concurrent "
              "queries, reopen bit-identical: %s\n",
              segments_before, segments_after, compact_ms,
              static_cast<long long>(queries_during),
              identical ? "yes" : "NO");
  bench::PrintJsonMetric(kBench, "segments_before_compaction",
                         static_cast<double>(segments_before));
  bench::PrintJsonMetric(kBench, "segments_after_compaction",
                         static_cast<double>(segments_after));
  bench::PrintJsonMetric(kBench, "compaction_ms", compact_ms);
  bench::PrintJsonMetric(kBench, "compaction_bit_identical",
                         identical ? 1.0 : 0.0);
  return identical;
}

}  // namespace

int main() {
  cobra::bench::OpenJsonArtifact("BENCH_E12.json");
  const int64_t num_docs = DocCount();
  const std::vector<std::string> vocabulary = MakeVocabulary();
  const std::vector<std::string> queries = QuerySet(vocabulary);
  bool coldstart_identical = false;
  const std::unique_ptr<cobra::engine::DigitalLibrary> rebuilt =
      RunColdStart(num_docs, vocabulary, queries, &coldstart_identical);
  RunIngest(vocabulary);
  RunQueryLatency(rebuilt->interviews(), queries);
  const bool compaction_identical = RunCompaction(vocabulary, queries);
  return coldstart_identical && compaction_identical ? 0 : 1;
}
