/// \file bench_e8_indexing.cc
/// E8 — meta-index population throughput (paper §3): per-stage cost of one
/// FDE run (frames/s per detector), end-to-end indexing rate, and the
/// incremental-reindex experiment that motivates Acoi: after replacing one
/// event detector, only the dirty suffix of the dependency graph re-runs.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/meta_index.h"
#include "core/tennis_fde.h"
#include "engine/digital_library.h"
#include "grammar/fde.h"
#include "media/tennis_synthesizer.h"
#include "oracles/fixed_order.h"
#include "oracles/reference_ops.h"
#include "storage/ops.h"
#include "util/rng.h"
#include "util/simd.h"
#include "webspace/site_synthesizer.h"

namespace {

using namespace cobra;  // NOLINT

void RunThroughputTable() {
  bench::PrintHeader("E8", "FDE meta-index population throughput");
  auto config = bench::DefaultBroadcast();
  config.num_points = 8;
  auto broadcast =
      media::TennisBroadcastSynthesizer(config).Synthesize().TakeValue();
  const double frames = static_cast<double>(broadcast.video->num_frames());

  auto indexer = core::TennisVideoIndexer::Create().TakeValue();
  auto desc = indexer->Index(*broadcast.video, 1, "e8").TakeValue();
  (void)desc;
  const auto& report = *indexer->last_report();

  std::printf("video: %.0f frames (%dx%d)\n\n", frames,
              broadcast.video->width(), broadcast.video->height());
  std::printf("%-16s %10s %12s %12s\n", "detector", "annotations", "ms",
              "frames/s");
  for (const auto& d : report.detectors) {
    std::printf("%-16s %10lld %12.2f %12.0f\n", d.symbol.c_str(),
                static_cast<long long>(d.annotations_out), d.millis,
                d.millis > 0 ? frames / (d.millis / 1000.0) : 0.0);
  }
  std::printf("%-16s %10lld %12.2f %12.0f\n", "TOTAL",
              static_cast<long long>(report.TotalAnnotations()),
              report.total_millis, frames / (report.total_millis / 1000.0));

  // --- incremental re-index after changing one event detector ---
  std::printf("\nincremental re-index (replace 'net_play' detector):\n");
  auto& fde = indexer->fde();
  (void)fde.ReplaceDetector(
      "net_play",
      [](const grammar::DetectionContext&) -> Result<std::vector<grammar::Annotation>> {
        return std::vector<grammar::Annotation>{};
      });
  auto incremental = fde.RunIncremental(*broadcast.video).TakeValue();
  int cached = 0, rerun = 0;
  for (const auto& d : incremental.detectors) {
    if (d.from_cache) {
      ++cached;
    } else {
      ++rerun;
    }
  }
  std::printf("  full run:        %10.2f ms (10 detectors)\n",
              report.total_millis);
  std::printf("  incremental run: %10.2f ms (%d cached, %d re-run)\n",
              incremental.total_millis, cached, rerun);
  std::printf("  speedup:         %10.1fx\n",
              report.total_millis / std::max(incremental.total_millis, 1e-9));
  bench::PrintRule();
}

// ---------------------------------------------------------------------------
// E8b — meta-index scene lookup at 100k event rows: the vectorized
// dictionary/zone-map scan behind FindScenes against the pre-PR
// row-at-a-time path (storage::reference + per-cell GetValue), which is
// reproduced here verbatim.

/// Pre-PR FindScenes over the events table.
std::vector<core::Scene> OldFindScenes(const storage::Table& events,
                                       const std::string& event_name,
                                       int64_t video_id, int64_t player) {
  std::vector<storage::Predicate> preds = {
      {"name", storage::CompareOp::kEq, event_name}};
  if (video_id >= 0) {
    preds.push_back({"video_id", storage::CompareOp::kEq, video_id});
  }
  if (player >= 0) {
    preds.push_back({"player", storage::CompareOp::kEq, player});
  }
  auto rows = storage::reference::SelectAll(events, preds).TakeValue();
  std::vector<core::Scene> out;
  for (int64_t r : rows) {
    core::Scene scene;
    scene.video_id = events.GetInt(r, 0).TakeValue();
    scene.event = events.GetString(r, 1).TakeValue();
    scene.player = events.GetInt(r, 2).TakeValue();
    scene.range.begin = events.GetInt(r, 3).TakeValue();
    scene.range.end = events.GetInt(r, 4).TakeValue();
    out.push_back(std::move(scene));
  }
  return out;
}

bool ScenesEqual(const std::vector<core::Scene>& a,
                 const std::vector<core::Scene>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].video_id != b[i].video_id || a[i].player != b[i].player ||
        a[i].event != b[i].event || a[i].range.begin != b[i].range.begin ||
        a[i].range.end != b[i].range.end) {
      return false;
    }
  }
  return true;
}

void RunMetaIndexScale() {
  bench::PrintHeader("E8b", "meta-index scene lookup at 100k event rows");
  constexpr int64_t kVideos = 100;
  constexpr int64_t kEventsPerVideo = 1000;
  constexpr int kReps = 5;
  const char* names[] = {"net_play", "rally", "service", "smash", "baseline"};

  auto meta = core::MetaIndex::Create().TakeValue();
  Rng rng(77);
  for (int64_t v = 0; v < kVideos; ++v) {
    core::VideoDescription desc(v, "synthetic", 25.0, 40000);
    for (int64_t e = 0; e < kEventsPerVideo; ++e) {
      const int64_t begin = rng.NextInt(0, 39000);
      desc.Add(core::CobraLayer::kEvent,
               grammar::Annotation(names[rng.NextBounded(5)],
                                   {begin, begin + rng.NextInt(10, 900)})
                   .Set("player", rng.NextInt(-1, 3)));
    }
    if (Status status = meta.AddVideo(desc); !status.ok()) {
      std::fprintf(stderr, "E8 AddVideo: %s\n", status.ToString().c_str());
      std::exit(1);
    }
  }
  std::printf("events table: %lld rows over %lld videos\n\n",
              static_cast<long long>(meta.events().num_rows()),
              static_cast<long long>(kVideos));

  // A query mix from broad to narrow, timed as one batch.
  struct Query {
    std::string name;
    int64_t video_id, player;
  };
  std::vector<Query> queries;
  for (int i = 0; i < 20; ++i) {
    queries.push_back({names[rng.NextBounded(5)],
                       rng.NextInt(0, kVideos - 1), rng.NextInt(-1, 3)});
  }
  queries.push_back({"net_play", -1, -1});  // full-table
  queries.push_back({"no_such_event", 3, -1});  // dictionary miss

  std::vector<core::Scene> last_ref, last_new;
  const double ref_ms = bench::MedianMs(kReps, [&] {
    for (const Query& q : queries) {
      last_ref = OldFindScenes(meta.events(), q.name, q.video_id, q.player);
    }
  });
  const double new_ms = bench::MedianMs(kReps, [&] {
    for (const Query& q : queries) {
      last_new = meta.FindScenes(q.name, q.video_id, q.player).TakeValue();
    }
  });
  std::printf("%-26s %10s %10s %9s\n", "path (22-query batch)", "ref_ms",
              "new_ms", "speedup");
  std::printf("%-26s %10.3f %10.3f %8.1fx\n", "FindScenes", ref_ms, new_ms,
              ref_ms / std::max(new_ms, 1e-9));
  bench::PrintJsonMetric("e8_indexing", "findscenes_ref_ms", ref_ms);
  bench::PrintJsonMetric("e8_indexing", "findscenes_new_ms", new_ms);
  bench::PrintJsonMetric("e8_indexing", "findscenes_speedup",
                         ref_ms / std::max(new_ms, 1e-9));

  // Bit-identity: the vectorized lookup must agree with the reference path
  // on every forced SIMD tier for every query in the mix.
  bool identical = true;
  for (int level : {-1, 0, 1, 2}) {
    util::simd::SetForcedLevel(level);
    for (const Query& q : queries) {
      identical =
          identical &&
          ScenesEqual(meta.FindScenes(q.name, q.video_id, q.player).TakeValue(),
                      OldFindScenes(meta.events(), q.name, q.video_id,
                                    q.player));
    }
  }
  util::simd::SetForcedLevel(-1);
  std::printf("forced tiers bit-identical: %s\n", identical ? "yes" : "NO");
  bench::PrintJsonMetric("e8_indexing", "tiers_identical",
                         identical ? 1.0 : 0.0);
  bench::PrintRule();
}

// ---------------------------------------------------------------------------
// E8c — the planner's single-scan event stage against the fixed order's
// per-(player,video) FindScenes rescans, over a 400k-row events table. The
// fixed pipeline re-scans the whole table once per pair; the planner costs
// the fan-out, scans once, and groups scenes by video.

void RunEventPlannerScale() {
  bench::PrintHeader("E8c", "planner event stage at 400k event rows");
  constexpr int64_t kPlayers = 300;
  constexpr int64_t kVideos = 200;
  constexpr int64_t kEventsPerVideo = 2000;
  constexpr int kReps = 7;
  const char* names[] = {"net_play", "rally", "service", "smash", "baseline"};

  auto schema = webspace::SiteSynthesizer::TournamentSchema().TakeValue();
  auto store = webspace::WebspaceStore::Create(std::move(schema)).TakeValue();
  Rng rng(2002);
  std::vector<int64_t> player_oids;
  for (int64_t p = 0; p < kPlayers; ++p) {
    player_oids.push_back(
        store
            .Insert("Player", {"player_" + std::to_string(p),
                               std::string(rng.NextBounded(2) ? "female"
                                                              : "male"),
                               std::string(rng.NextBounded(5) ? "right"
                                                              : "left"),
                               std::string("usa"), int64_t{p + 1}})
            .TakeValue());
  }
  std::vector<int64_t> video_oids;
  for (int64_t v = 0; v < kVideos; ++v) {
    video_oids.push_back(
        store
            .Insert("Video",
                    {"match_" + std::to_string(v), rng.NextInt(1995, 2002)})
            .TakeValue());
  }
  // The 50 queried players appear in 4 videos each: 200 (player, video)
  // pairs for the fixed order to rescan the events table over.
  for (int64_t p = 0; p < 50; ++p) {
    for (int link = 0; link < 4; ++link) {
      (void)store.Link("plays_in", player_oids[static_cast<size_t>(p)],
                       video_oids[rng.NextBounded(video_oids.size())],
                       rng.NextInt(0, 1));
    }
  }
  auto library = engine::DigitalLibrary::Create(std::move(store)).TakeValue();
  for (int64_t video_oid : video_oids) {
    core::VideoDescription desc(video_oid, "synthetic", 25.0, 40000);
    for (int64_t e = 0; e < kEventsPerVideo; ++e) {
      const int64_t begin = rng.NextInt(0, 39000);
      desc.Add(core::CobraLayer::kEvent,
               grammar::Annotation(names[rng.NextBounded(5)],
                                   {begin, begin + rng.NextInt(10, 900)})
                   .Set("player", rng.NextInt(-1, 1)));
    }
    if (Status status = library->AddVideoDescription(desc); !status.ok()) {
      std::fprintf(stderr, "E8 AddVideoDescription: %s\n",
                   status.ToString().c_str());
      std::exit(1);
    }
  }

  engine::CombinedQuery query;
  query.player_predicates = {
      {"ranking", storage::CompareOp::kLe, int64_t{50}}};
  query.event = "net_play";

  auto run = [&](bool planner_on) {
    std::vector<double> ms;
    ms.reserve(kReps);
    std::vector<engine::SceneHit> hits;
    for (int rep = 0; rep < kReps; ++rep) {
      bench::WallTimer timer;
      hits = (planner_on ? library->Search(query)
                         : engine::SearchFixedOrder(*library, query))
                 .TakeValue();
      ms.push_back(timer.Millis());
    }
    return std::make_pair(std::move(hits), std::move(ms));
  };
  auto [off_hits, off_ms] = run(false);
  auto [on_hits, on_ms] = run(true);

  bool identical = off_hits.size() == on_hits.size();
  for (size_t i = 0; identical && i < on_hits.size(); ++i) {
    identical = off_hits[i].player_oid == on_hits[i].player_oid &&
                off_hits[i].player_name == on_hits[i].player_name &&
                off_hits[i].video_oid == on_hits[i].video_oid &&
                off_hits[i].range.begin == on_hits[i].range.begin &&
                off_hits[i].range.end == on_hits[i].range.end &&
                off_hits[i].event == on_hits[i].event &&
                off_hits[i].text_score == on_hits[i].text_score;
  }
  const double off_p50 = bench::Percentile(off_ms, 0.5);
  const double on_p50 = bench::Percentile(on_ms, 0.5);
  std::printf("events table: %lld rows, 200 player-video pairs\n\n",
              static_cast<long long>(kVideos * kEventsPerVideo));
  std::printf("%-26s %10s %10s %10s %9s %6s %5s\n", "variant", "off_p50",
              "on_p50", "on_p99", "speedup", "hits", "same");
  std::printf("%-26s %10.3f %10.3f %10.3f %8.1fx %6zu %5s\n",
              "event single-scan", off_p50, on_p50,
              bench::Percentile(on_ms, 0.99),
              off_p50 / std::max(on_p50, 1e-9), on_hits.size(),
              identical ? "yes" : "NO");
  bench::PrintJsonMetric("e8_indexing", "planner_event_off_p50_ms", off_p50);
  bench::PrintJsonMetric("e8_indexing", "planner_event_off_p99_ms",
                         bench::Percentile(off_ms, 0.99));
  bench::PrintJsonMetric("e8_indexing", "planner_event_on_p50_ms", on_p50);
  bench::PrintJsonMetric("e8_indexing", "planner_event_on_p99_ms",
                         bench::Percentile(on_ms, 0.99));
  bench::PrintJsonMetric("e8_indexing", "planner_event_speedup_p50",
                         off_p50 / std::max(on_p50, 1e-9));
  bench::PrintJsonMetric("e8_indexing", "planner_event_identical",
                         identical ? 1.0 : 0.0);
  bench::PrintRule();
}

void BM_SynthesizeBroadcast(benchmark::State& state) {
  auto config = bench::DefaultBroadcast();
  config.num_points = static_cast<int>(state.range(0));
  int64_t frames = 0;
  for (auto _ : state) {
    auto broadcast = media::TennisBroadcastSynthesizer(config).Synthesize();
    frames = broadcast->video->num_frames();
    benchmark::DoNotOptimize(broadcast);
  }
  state.counters["frames/s"] = benchmark::Counter(
      static_cast<double>(frames) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SynthesizeBroadcast)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_IncrementalReindex(benchmark::State& state) {
  auto config = bench::DefaultBroadcast();
  config.num_points = 3;
  auto broadcast =
      media::TennisBroadcastSynthesizer(config).Synthesize().TakeValue();
  auto indexer = core::TennisVideoIndexer::Create().TakeValue();
  (void)indexer->Index(*broadcast.video, 1, "bm").TakeValue();
  for (auto _ : state) {
    state.PauseTiming();
    (void)indexer->fde().ReplaceDetector(
        "net_play",
        [](const grammar::DetectionContext&)
            -> Result<std::vector<grammar::Annotation>> {
          return std::vector<grammar::Annotation>{};
        });
    state.ResumeTiming();
    auto report = indexer->fde().RunIncremental(*broadcast.video);
    if (!report.ok()) state.SkipWithError(report.status().ToString().c_str());
  }
}
BENCHMARK(BM_IncrementalReindex)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  cobra::bench::OpenJsonArtifact("BENCH_E8.json");
  RunThroughputTable();
  RunMetaIndexScale();
  RunEventPlannerScale();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
