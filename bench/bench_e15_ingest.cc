/// \file bench_e15_ingest.cc
/// E15 — pipelined parallel corpus ingest (DESIGN.md §4k). Three sections:
///   a) end-to-end sync-durable ingest throughput over an interview-heavy
///      corpus (COBRA_E15_DOCS records, default 2000): the serial loop
///      (one DurableLibrary::Apply, so one fdatasync, per record) vs the
///      CorpusIngestPipeline over a DurableLibrarySink (group commit). The
///      headline is that speedup — honest one-core numbers: the submit
///      thread stages records while the pool-side committer sits in
///      fdatasync, so the speedup is durability batching (watch
///      records-per-sync), not analysis parallelism — and the durability
///      tax: the same pipeline into an in-memory LibrarySink (no WAL) is
///      the ceiling. Both ratios are reported against their targets, not
///      checked: they depend on the host's disk and load;
///   b) the bit-identity gate: the pipelined library must answer the
///      16-modality sweep identically to the serial oracle at every
///      thread count, durable (live and reopened), and at 1/2/7 shards
///      through the sharded serving sink. Any mismatch exits nonzero —
///      this is the CI tripwire;
///   c) sustained query throughput while a sharded deployment ingests
///      live (queries racing the double-buffered publish seam).
/// Results mirror to BENCH_E15.json. Artifacts live under the working
/// directory — CI runs this from build/.

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "engine/digital_library.h"
#include "engine/durable_library.h"
#include "engine/ingest/ingest.h"
#include "engine/serving/partition.h"
#include "engine/serving/serving.h"
#include "storage/segment/io.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "webspace/site_synthesizer.h"

namespace {

using namespace cobra;  // NOLINT
namespace seg = storage::segment;
using engine::ingest::CorpusIngestPipeline;
using engine::ingest::DurableLibrarySink;
using engine::ingest::IngestDelta;
using engine::ingest::LibrarySink;
using engine::ingest::ShardedIngestSink;
using storage::CompareOp;

constexpr const char* kBench = "e15_ingest";

int64_t EnvInt(const char* name, int64_t fallback) {
  if (const char* env = std::getenv(name)) {
    const int64_t parsed = std::atoll(env);
    if (parsed > 0) return parsed;
  }
  return fallback;
}

webspace::SynthesizedSite MakeSite(int videos_per_year = 2) {
  webspace::SiteConfig config;
  config.num_players = 16;
  config.num_past_years = 3;
  config.videos_per_year = videos_per_year;
  config.seed = 2002;
  config.ensure_answer = true;
  return webspace::SiteSynthesizer::Generate(config).TakeValue();
}

core::VideoDescription MakeVideo(int64_t oid) {
  const char* events[] = {"net_play", "rally", "service", "smash"};
  Rng rng(static_cast<uint64_t>(oid) * 977 + 5);
  core::VideoDescription desc(oid, "synthetic", 25.0, 40000);
  for (int e = 0; e < 24; ++e) {
    const int64_t begin = rng.NextInt(0, 39000);
    desc.Add(core::CobraLayer::kEvent,
             grammar::Annotation(events[rng.NextBounded(4)],
                                 {begin, begin + rng.NextInt(10, 900)})
                 .Set("player", rng.NextInt(-1, 1)));
  }
  return desc;
}

std::vector<vision::SignatureRecord> MakeSignatures(int64_t oid) {
  Rng rng(static_cast<uint64_t>(oid) * 131 + 9);
  std::vector<vision::SignatureRecord> records(4);
  for (size_t k = 0; k < records.size(); ++k) {
    vision::SignatureRecord& rec = records[k];
    for (uint64_t& word : rec.sig.hash) word = rng.NextU64();
    for (uint8_t& byte : rec.sig.sketch) {
      byte = static_cast<uint8_t>(rng.NextBounded(256));
    }
    rec.video_id = oid;
    rec.begin = static_cast<int64_t>(k) * 1000;
    rec.end = rec.begin + 999;
  }
  return records;
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

/// The durable-library test's seeded 16-modality sweep.
std::vector<engine::CombinedQuery> SweepQueries() {
  std::vector<engine::CombinedQuery> queries;
  Rng rng(21);
  for (int combo = 0; combo < 16; ++combo) {
    for (int variant = 0; variant < 3; ++variant) {
      engine::CombinedQuery query;
      if (combo & 1) {
        switch (rng.NextBounded(4)) {
          case 0:
            query.player_predicates.push_back(
                {"gender", CompareOp::kEq, std::string("female")});
            break;
          case 1:
            query.player_predicates.push_back(
                {"hand", CompareOp::kEq, std::string("left")});
            break;
          case 2:
            query.player_predicates.push_back(
                {"ranking", CompareOp::kLe, rng.NextInt(1, 40)});
            break;
          case 3:
            query.player_predicates.push_back(
                {"hand", CompareOp::kEq, std::string("ambidextrous")});
            break;
        }
      }
      if (combo & 2) {
        query.require_champion = true;
        if (rng.NextBounded(2) == 0) query.won_year = rng.NextInt(2018, 2022);
      }
      if (combo & 4) {
        const char* texts[] = {"champion title", "net volley",
                               "australian open"};
        query.text = texts[rng.NextBounded(3)];
        query.text_top_k = 1 + rng.NextBounded(12);
      }
      if (combo & 8) {
        const char* events[] = {"net_play", "rally", "service", "no_such"};
        query.event = events[rng.NextBounded(4)];
      }
      queries.push_back(std::move(query));
    }
  }
  return queries;
}

bool BitIdenticalHits(const std::vector<engine::SceneHit>& a,
                      const std::vector<engine::SceneHit>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].player_oid != b[i].player_oid ||
        a[i].player_name != b[i].player_name ||
        a[i].video_oid != b[i].video_oid ||
        a[i].range.begin != b[i].range.begin ||
        a[i].range.end != b[i].range.end || a[i].event != b[i].event ||
        std::memcmp(&a[i].text_score, &b[i].text_score, 8) != 0) {
      return false;
    }
  }
  return true;
}

bool SameSweepAnswers(const engine::DigitalLibrary& expected,
                      const engine::DigitalLibrary& actual) {
  for (const engine::CombinedQuery& query : SweepQueries()) {
    auto ha = expected.Search(query);
    auto hb = actual.Search(query);
    if (ha.ok() != hb.ok()) return false;
    if (!ha.ok()) continue;
    if (!BitIdenticalHits(*ha, *hb)) return false;
  }
  return true;
}

/// The interview-heavy durable-ingest corpus: COBRA_E15_DOCS interview
/// records (E12's token generator) with a video + signature batch woven in
/// every 50 records, finalize at the end.
std::vector<IngestDelta> MakeThroughputOps(int64_t num_docs) {
  std::vector<std::string> vocabulary;
  for (int i = 0; i < 2000; ++i) vocabulary.push_back("w" + std::to_string(i));
  Rng rng(17);
  std::vector<IngestDelta> ops;
  ops.reserve(static_cast<size_t>(num_docs) + num_docs / 50 + 1);
  for (int64_t d = 0; d < num_docs; ++d) {
    std::string body;
    for (int t = 0; t < 40; ++t) {
      const uint64_t a = rng.NextBounded(vocabulary.size());
      const uint64_t b = rng.NextBounded(vocabulary.size());
      body += vocabulary[std::min(a, b)];
      body += ' ';
    }
    ops.push_back(IngestDelta::Interview(100000 + d, std::move(body)));
    if ((d + 1) % 50 == 0) {
      const int64_t oid = 900000 + d;
      ops.push_back(IngestDelta::Video(MakeVideo(oid), MakeSignatures(oid)));
    }
  }
  ops.push_back(IngestDelta::FinalizeText());
  return ops;
}

Status SubmitOps(CorpusIngestPipeline* pipeline,
                 const std::vector<IngestDelta>& ops) {
  for (const IngestDelta& op : ops) {
    Status status;
    switch (op.kind) {
      case IngestDelta::Kind::kInterview:
        status = pipeline->SubmitInterview(op.interview_oid,
                                           op.interview_text);
        break;
      case IngestDelta::Kind::kFinalizeText:
        status = pipeline->SubmitFinalizeText();
        break;
      case IngestDelta::Kind::kVideo:
      case IngestDelta::Kind::kSignatures: {
        auto delta = std::make_shared<IngestDelta>(op);
        status = pipeline->SubmitVideo(
            [delta]() -> Result<IngestDelta> { return *delta; });
        break;
      }
    }
    if (!status.ok()) return status;
  }
  return pipeline->Finish();
}

// ---------------------------------------------------------------------------
// E15a — sync-durable ingest throughput: serial loop vs pipeline.

struct IngestRun {
  double ops_per_s = 0.0;
  int64_t sync_calls = 0;
  int64_t records = 0;
};

/// The serial loop: one DurableLibrary::Apply per op, each durable on
/// return through its own fdatasync.
IngestRun RunSerial(const std::vector<IngestDelta>& ops) {
  auto durable = engine::DurableLibrary::Create(FreshDir("e15_serial"),
                                                std::move(MakeSite().store))
                     .TakeValue();
  bench::WallTimer timer;
  for (const IngestDelta& op : ops) (void)durable->Apply(op);
  IngestRun run;
  run.ops_per_s = static_cast<double>(ops.size()) / (timer.Millis() / 1e3);
  run.sync_calls = durable->wal_sync_calls();
  run.records = durable->wal_records_committed();
  return run;
}

/// Ops per second of the pipeline feeding `sink`.
double RunPipelined(const std::vector<IngestDelta>& ops,
                    engine::ingest::IngestSink* sink, int threads,
                    size_t window) {
  util::ThreadPool pool(threads);
  CorpusIngestPipeline::Options pipeline_options;
  pipeline_options.pool = &pool;
  pipeline_options.window = window;
  CorpusIngestPipeline pipeline(sink, pipeline_options);
  bench::WallTimer timer;
  Status status = SubmitOps(&pipeline, ops);
  const double ops_per_s =
      static_cast<double>(ops.size()) / (timer.Millis() / 1e3);
  if (!status.ok()) {
    std::fprintf(stderr, "E15a pipelined ingest: %s\n",
                 status.ToString().c_str());
    std::exit(1);
  }
  return ops_per_s;
}

void RunThroughput(int64_t num_docs, size_t window) {
  bench::PrintHeader("E15a",
                     "sync-durable ingest: serial loop vs pipeline (ops/s)");
  const std::vector<IngestDelta> ops = MakeThroughputOps(num_docs);
  std::printf("corpus: %zu ops (%lld interviews), pipeline window %zu, "
              "submit thread + pool committer\n",
              ops.size(), static_cast<long long>(num_docs), window);

  const IngestRun serial = RunSerial(ops);
  // ThreadPool(<=1) is inline mode — the serial degradation — so the
  // smallest pool with a real worker is 2. The committer role occupies
  // one worker at a time and spends its life inside fdatasync, so the
  // CPU work is still one core's worth: any speedup over the serial loop
  // is durability batching (group commit + per-sweep barriers), not
  // analysis parallelism.
  IngestRun pipelined;
  {
    auto durable = engine::DurableLibrary::Create(
                       FreshDir("e15_pipelined"), std::move(MakeSite().store))
                       .TakeValue();
    DurableLibrarySink sink(durable.get());
    pipelined.ops_per_s = RunPipelined(ops, &sink, /*threads=*/2, window);
    pipelined.sync_calls = durable->wal_sync_calls();
    pipelined.records = durable->wal_records_committed();
  }
  // The ceiling: the same pipeline into a never-persisted library.
  double memory_ops_per_s = 0.0;
  {
    auto library = engine::DigitalLibrary::Create(std::move(MakeSite().store))
                       .TakeValue();
    LibrarySink sink(library.get());
    memory_ops_per_s = RunPipelined(ops, &sink, /*threads=*/2, window);
  }
  std::printf("%-18s %10.0f ops/s (%6lld syncs)\n", "serial",
              serial.ops_per_s, static_cast<long long>(serial.sync_calls));
  std::printf("%-18s %10.0f ops/s (%6lld syncs)\n", "pipelined",
              pipelined.ops_per_s,
              static_cast<long long>(pipelined.sync_calls));
  std::printf("%-18s %10.0f ops/s\n", "pipelined, memory", memory_ops_per_s);
  bench::PrintJsonMetric(kBench, "serial_ops_per_s", serial.ops_per_s);
  bench::PrintJsonMetric(kBench, "serial_sync_calls",
                         static_cast<double>(serial.sync_calls));
  bench::PrintJsonMetric(kBench, "pipelined_ops_per_s", pipelined.ops_per_s);
  bench::PrintJsonMetric(kBench, "pipelined_sync_calls",
                         static_cast<double>(pipelined.sync_calls));
  bench::PrintJsonMetric(kBench, "pipelined_memory_ops_per_s",
                         memory_ops_per_s);

  const double speedup = pipelined.ops_per_s / serial.ops_per_s;
  const double durability_tax = memory_ops_per_s / pipelined.ops_per_s;
  const double group_records_per_sync =
      pipelined.sync_calls > 0
          ? static_cast<double>(pipelined.records) /
                static_cast<double>(pipelined.sync_calls)
          : 0.0;
  std::printf("pipelined vs serial:             %6.2f x  (reported target "
              ">= 3)\n",
              speedup);
  std::printf("memory ceiling vs pipelined:     %6.2f x  (reported target "
              "<= ~2)\n",
              durability_tax);
  std::printf("records per group fdatasync:     %6.1f\n",
              group_records_per_sync);
  bench::PrintJsonMetric(kBench, "pipelined_group_speedup_vs_serial_sync",
                         speedup);
  bench::PrintJsonMetric(kBench, "memory_over_durable_ratio", durability_tax);
  bench::PrintJsonMetric(kBench, "group_records_per_sync",
                         group_records_per_sync);
}

// ---------------------------------------------------------------------------
// E15b — the bit-identity gate.

bool RunBitIdentity(int threads) {
  bench::PrintHeader("E15b",
                     "bit-identity: pipelined == serial oracle (the gate)");
  bool all_ok = true;
  auto report = [&all_ok](const char* arm, bool ok) {
    std::printf("%-44s %s\n", arm, ok ? "identical" : "MISMATCH");
    if (!ok) all_ok = false;
  };

  // The serial oracle: interviews, finalize, videos + signatures.
  auto oracle_site = MakeSite();
  std::vector<std::pair<int64_t, std::string>> interviews(
      oracle_site.interview_texts.begin(), oracle_site.interview_texts.end());
  const std::vector<int64_t> videos = oracle_site.video_oids;
  std::vector<IngestDelta> ops;
  for (const auto& [oid, body] : interviews) {
    ops.push_back(IngestDelta::Interview(oid, body));
  }
  ops.push_back(IngestDelta::FinalizeText());
  for (int64_t oid : videos) {
    ops.push_back(IngestDelta::Video(MakeVideo(oid), MakeSignatures(oid)));
  }
  auto oracle =
      engine::DigitalLibrary::Create(std::move(oracle_site.store)).TakeValue();
  for (const auto& [oid, body] : interviews) {
    (void)oracle->AddInterview(oid, body);
  }
  (void)oracle->FinalizeText();
  for (int64_t oid : videos) {
    (void)oracle->AddVideoDescription(MakeVideo(oid));
    (void)oracle->AddVideoSignatures(oid, MakeSignatures(oid));
  }

  // In-memory sink across thread counts.
  for (int t : {1, threads}) {
    auto site = MakeSite();
    auto library =
        engine::DigitalLibrary::Create(std::move(site.store)).TakeValue();
    LibrarySink sink(library.get());
    util::ThreadPool pool(t);
    CorpusIngestPipeline::Options options;
    options.pool = &pool;
    CorpusIngestPipeline pipeline(&sink, options);
    const bool ok = SubmitOps(&pipeline, ops).ok() &&
                    SameSweepAnswers(*oracle, *library);
    report(("in-memory, " + std::to_string(t) + " threads").c_str(), ok);
  }

  // Durable sink, live and reopened.
  {
    const std::string dir = FreshDir("e15_identity");
    bool ok = false;
    {
      auto durable = engine::DurableLibrary::Create(
                         dir, std::move(MakeSite().store))
                         .TakeValue();
      DurableLibrarySink sink(durable.get());
      util::ThreadPool pool(threads);
      CorpusIngestPipeline::Options options;
      options.pool = &pool;
      CorpusIngestPipeline pipeline(&sink, options);
      ok = SubmitOps(&pipeline, ops).ok() &&
           SameSweepAnswers(*oracle, durable->library());
    }
    if (ok) {
      auto reopened = engine::DurableLibrary::Open(dir);
      ok = reopened.ok() && SameSweepAnswers(*oracle, (*reopened)->library());
    }
    report("durable + reopen", ok);
  }

  // Sharded serving sink at 1/2/7 shards: seed half the corpus, ingest the
  // rest live (interviews replicated, videos routed), then compare the
  // frontend's merged answers with the unsharded oracle.
  const size_t interview_split = interviews.size() / 2;
  const size_t video_split = videos.size() / 2;
  for (size_t num_shards : {size_t{1}, size_t{2}, size_t{7}}) {
    auto site = MakeSite();
    engine::serving::CorpusParts seed;
    seed.store = site.store;
    for (size_t i = 0; i < interview_split; ++i) {
      seed.interviews.push_back(interviews[i]);
    }
    for (size_t v = 0; v < video_split; ++v) {
      seed.videos.push_back(MakeVideo(videos[v]));
      seed.signatures.emplace_back(videos[v], MakeSignatures(videos[v]));
    }
    std::vector<IngestDelta> live;
    for (size_t i = interview_split; i < interviews.size(); ++i) {
      live.push_back(
          IngestDelta::Interview(interviews[i].first, interviews[i].second));
    }
    live.push_back(IngestDelta::FinalizeText());
    for (size_t v = video_split; v < videos.size(); ++v) {
      live.push_back(
          IngestDelta::Video(MakeVideo(videos[v]), MakeSignatures(videos[v])));
    }

    ShardedIngestSink::Options sink_options;
    sink_options.num_shards = num_shards;
    sink_options.finalize_seed_text = false;
    auto sink = ShardedIngestSink::Create(seed, sink_options).TakeValue();
    util::ThreadPool pool(threads);
    CorpusIngestPipeline::Options options;
    options.pool = &pool;
    CorpusIngestPipeline pipeline(sink.get(), options);
    bool ok = SubmitOps(&pipeline, live).ok();
    if (ok) {
      for (const engine::CombinedQuery& query : SweepQueries()) {
        auto expected = oracle->Search(query);
        auto actual = sink->frontend().Search(query, 0);
        if (expected.ok() != actual.ok()) { ok = false; break; }
        if (expected.ok() && !BitIdenticalHits(*expected, *actual)) {
          ok = false;
          break;
        }
      }
    }
    report(("sharded serving, " + std::to_string(num_shards) + " shards")
               .c_str(),
           ok);
  }

  bench::PrintJsonMetric(kBench, "bit_identity_pass", all_ok ? 1.0 : 0.0);
  return all_ok;
}

// ---------------------------------------------------------------------------
// E15c — sustained queries while ingesting.

void RunServingUnderIngest(int threads, int64_t live_videos) {
  bench::PrintHeader("E15c", "query throughput while ingesting (2 shards)");
  auto site = MakeSite(/*videos_per_year=*/4);
  engine::serving::CorpusParts seed;
  seed.store = std::move(site.store);
  for (const auto& [oid, body] : site.interview_texts) {
    seed.interviews.emplace_back(oid, body);
  }
  const size_t video_split = site.video_oids.size() / 2;
  for (size_t v = 0; v < video_split; ++v) {
    const int64_t oid = site.video_oids[v];
    seed.videos.push_back(MakeVideo(oid));
    seed.signatures.emplace_back(oid, MakeSignatures(oid));
  }

  ShardedIngestSink::Options sink_options;
  sink_options.num_shards = 2;
  sink_options.serving.replicas = 2;
  auto sink = ShardedIngestSink::Create(seed, sink_options).TakeValue();

  auto run_queries = [&sink](std::atomic<bool>* stop, int64_t* answered,
                             int64_t* shed) {
    const char* events[] = {"net_play", "rally", "service", "smash"};
    int round = 0;
    while (!stop->load(std::memory_order_relaxed)) {
      engine::CombinedQuery query;
      query.event = events[round++ % 4];
      if (round % 3 == 0) query.require_champion = true;
      auto hits = sink->frontend().Search(query, 8);
      if (hits.ok()) {
        ++*answered;
      } else {
        ++*shed;
      }
    }
  };

  // Quiescent baseline.
  std::atomic<bool> stop{false};
  int64_t baseline_answered = 0, baseline_shed = 0;
  std::thread baseline_reader(run_queries, &stop, &baseline_answered,
                              &baseline_shed);
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  stop.store(true);
  baseline_reader.join();
  const double qps_quiescent = static_cast<double>(baseline_answered) / 0.2;

  // The same reader racing live ingest: the remaining site videos plus
  // `live_videos` fresh (monotonic-id) ones, analyzed on the pool.
  std::vector<IngestDelta> live;
  for (size_t v = video_split; v < site.video_oids.size(); ++v) {
    const int64_t oid = site.video_oids[v];
    live.push_back(IngestDelta::Video(MakeVideo(oid), MakeSignatures(oid)));
  }
  for (int64_t k = 0; k < live_videos; ++k) {
    const int64_t oid = 900000 + k;
    live.push_back(IngestDelta::Video(MakeVideo(oid), MakeSignatures(oid)));
  }

  stop.store(false);
  int64_t answered = 0, shed = 0;
  std::thread reader(run_queries, &stop, &answered, &shed);
  util::ThreadPool pool(threads);
  CorpusIngestPipeline::Options options;
  options.pool = &pool;
  CorpusIngestPipeline pipeline(sink.get(), options);
  bench::WallTimer timer;
  Status status = SubmitOps(&pipeline, live);
  const double ingest_ms = timer.Millis();
  stop.store(true);
  reader.join();
  if (!status.ok()) {
    std::fprintf(stderr, "E15c ingest: %s\n", status.ToString().c_str());
    std::exit(1);
  }

  const double qps_during =
      static_cast<double>(answered) / (ingest_ms / 1e3);
  const double ingest_rate =
      static_cast<double>(live.size()) / (ingest_ms / 1e3);
  std::printf("ingested %zu videos in %.1f ms (%.0f videos/s, %lld "
              "publishes)\n",
              live.size(), ingest_ms, ingest_rate,
              static_cast<long long>(sink->publishes()));
  std::printf("queries: %8.0f qps quiescent, %8.0f qps during ingest "
              "(%lld shed)\n",
              qps_quiescent, qps_during, static_cast<long long>(shed));
  bench::PrintJsonMetric(kBench, "qps_quiescent", qps_quiescent);
  bench::PrintJsonMetric(kBench, "qps_during_ingest", qps_during);
  bench::PrintJsonMetric(kBench, "live_ingest_videos_per_s", ingest_rate);
  bench::PrintJsonMetric(kBench, "queries_shed_during_ingest",
                         static_cast<double>(shed));
  bench::PrintJsonMetric(kBench, "publishes",
                         static_cast<double>(sink->publishes()));
}

}  // namespace

int main() {
  cobra::bench::OpenJsonArtifact("BENCH_E15.json");
  const int64_t num_docs = EnvInt("COBRA_E15_DOCS", 2000);
  const size_t window =
      static_cast<size_t>(EnvInt("COBRA_E15_WINDOW", 64));
  const int threads = static_cast<int>(EnvInt("COBRA_E15_THREADS", 4));
  const int64_t live_videos = EnvInt("COBRA_E15_LIVE_VIDEOS", 64);
  RunThroughput(num_docs, window);
  const bool identical = RunBitIdentity(threads);
  RunServingUnderIngest(threads, live_videos);
  if (!identical) {
    std::fprintf(stderr,
                 "E15b FAILED: pipelined ingest diverged from the serial "
                 "oracle\n");
    return 1;
  }
  return 0;
}
