/// \file bench_e13_serving.cc
/// E13 — sharded scatter-gather serving (DESIGN.md §4i). A closed-loop
/// mixed traffic stream (concept-only, text, and content queries) is
/// answered by
///   a) the single-node engine::QueryEngine over the unsharded library,
///      asked for the same top-10 as the frontend arms, and
///   b) the ServingFrontend at 1, 2 and 4 shards serving the global
///      top-10 via the block-max-bounded merge;
/// reporting max sustainable QPS plus p50/p99 latency for each, the 4-shard
/// speedup, a bit-identity check of the merged answers against the oracle,
/// and an overload arm at ~2x the single-client saturation load with tiny
/// admission queues, where p99 must stay bounded because excess queries are
/// shed (Unavailable), not queued.
///
/// Environment knobs (CI reduction): COBRA_E13_PLAYERS, COBRA_E13_VPY
/// (videos per year), COBRA_E13_QUERIES (stream length).

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "engine/digital_library.h"
#include "engine/query_engine.h"
#include "engine/serving/partition.h"
#include "engine/serving/serving.h"
#include "util/rng.h"
#include "webspace/site_synthesizer.h"

namespace {

using namespace cobra;  // NOLINT
using engine::CombinedQuery;
using engine::SceneHit;
using engine::serving::CorpusParts;
using engine::serving::ServingConfig;
using engine::serving::ServingFrontend;
using storage::CompareOp;

constexpr const char* kBench = "e13_serving";
constexpr size_t kTopN = 10;

int64_t EnvInt(const char* name, int64_t fallback) {
  if (const char* env = std::getenv(name)) {
    const int64_t parsed = std::atoll(env);
    if (parsed > 0) return parsed;
  }
  return fallback;
}

core::VideoDescription MakeVideo(int64_t oid) {
  const char* events[] = {"net_play", "rally", "service", "smash"};
  Rng rng(static_cast<uint64_t>(oid) * 977 + 5);
  core::VideoDescription desc(oid, "synthetic", 25.0, 40000);
  for (int e = 0; e < 384; ++e) {
    const int64_t begin = rng.NextInt(0, 39000);
    desc.Add(core::CobraLayer::kEvent,
             grammar::Annotation(events[rng.NextBounded(4)],
                                 {begin, begin + rng.NextInt(10, 900)})
                 .Set("player", rng.NextInt(-1, 1)));
  }
  return desc;
}

CorpusParts MakeCorpus() {
  webspace::SiteConfig config;
  config.num_players = static_cast<int>(EnvInt("COBRA_E13_PLAYERS", 48));
  config.num_past_years = 6;
  config.videos_per_year = static_cast<int>(EnvInt("COBRA_E13_VPY", 40));
  config.seed = 2002;
  config.ensure_answer = true;
  auto site = webspace::SiteSynthesizer::Generate(config).TakeValue();
  CorpusParts parts{std::move(site.store), {}, {}, {}};
  for (const auto& [oid, body] : site.interview_texts) {
    parts.interviews.emplace_back(oid, body);
  }
  for (int64_t oid : site.video_oids) {
    parts.videos.push_back(MakeVideo(oid));
  }
  return parts;
}

/// Mixed production-shaped traffic: ~80% content (event) queries with
/// cache-busting predicate variants, ~20% no-event concept/text queries
/// drawn from a small popular pool (these repeat, as dashboards do).
std::vector<CombinedQuery> MakeStream(size_t count) {
  const char* events[] = {"net_play", "rally", "service", "smash"};
  const char* texts[] = {"champion title", "net volley", "australian open"};
  std::vector<CombinedQuery> stream;
  stream.reserve(count);
  Rng rng(1702);
  for (size_t i = 0; i < count; ++i) {
    CombinedQuery query;
    const uint32_t kind = rng.NextBounded(10);
    if (kind < 8) {
      query.event = events[rng.NextBounded(4)];
      switch (rng.NextBounded(4)) {
        case 0:
          query.player_predicates.push_back(
              {"ranking", CompareOp::kLe, rng.NextInt(3, 60)});
          break;
        case 1:
          query.require_champion = true;
          query.won_year = rng.NextInt(2016, 2023);
          break;
        case 2:
          query.text = texts[rng.NextBounded(3)];
          query.text_top_k = 1 + rng.NextBounded(16);
          break;
        default:  // plain event scan
          break;
      }
    } else if (kind == 8) {  // popular concept-only pool (repeats)
      query.require_champion = true;
      if (rng.NextBounded(2) == 0) {
        query.player_predicates.push_back(
            {"hand", CompareOp::kEq, std::string("left")});
      }
    } else {  // popular text-only pool (repeats)
      query.text = texts[rng.NextBounded(3)];
      query.text_top_k = 8;
    }
    stream.push_back(std::move(query));
  }
  return stream;
}

struct LoopResult {
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

template <typename Fn>
LoopResult ClosedLoop(const std::vector<CombinedQuery>& stream, Fn&& answer) {
  std::vector<double> latencies;
  latencies.reserve(stream.size());
  bench::WallTimer total;
  for (const CombinedQuery& query : stream) {
    bench::WallTimer timer;
    answer(query);
    latencies.push_back(timer.Millis());
  }
  LoopResult result;
  result.qps = static_cast<double>(stream.size()) / (total.Millis() / 1e3);
  result.p50_ms = bench::Percentile(latencies, 0.50);
  result.p99_ms = bench::Percentile(latencies, 0.99);
  return result;
}

bool BitIdentical(const std::vector<SceneHit>& a,
                  const std::vector<SceneHit>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    uint64_t bits_a = 0, bits_b = 0;
    std::memcpy(&bits_a, &a[i].text_score, 8);
    std::memcpy(&bits_b, &b[i].text_score, 8);
    if (a[i].player_oid != b[i].player_oid ||
        a[i].video_oid != b[i].video_oid ||
        a[i].range.begin != b[i].range.begin ||
        a[i].range.end != b[i].range.end || a[i].event != b[i].event ||
        bits_a != bits_b) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  bench::OpenJsonArtifact("BENCH_E13.json");
  bench::PrintHeader("E13", "sharded scatter-gather serving");

  const CorpusParts parts = MakeCorpus();
  auto oracle = engine::serving::BuildLibrary(parts).TakeValue();
  const size_t stream_len =
      static_cast<size_t>(EnvInt("COBRA_E13_QUERIES", 400));
  const std::vector<CombinedQuery> stream = MakeStream(stream_len);
  std::printf("corpus: %zu videos, %zu interviews, stream of %zu queries\n",
              parts.videos.size(), parts.interviews.size(), stream.size());

  // ---- a) single-node baseline: the top-10 from one engine. ----
  engine::QueryEngineConfig engine_config;
  engine_config.num_threads = 1;
  engine::QueryEngine baseline(oracle.get(), engine_config);
  for (size_t i = 0; i < stream.size(); i += 10) {
    // Warm the cache + page the index.
    (void)baseline.Search({stream[i], kTopN});
  }
  const LoopResult base = ClosedLoop(stream, [&](const CombinedQuery& q) {
    (void)baseline.Search({q, kTopN});
  });
  std::printf("baseline        %8.1f qps   p50 %7.3f ms   p99 %7.3f ms\n",
              base.qps, base.p50_ms, base.p99_ms);
  bench::PrintJsonMetric(kBench, "baseline_qps", base.qps);
  bench::PrintJsonMetric(kBench, "baseline_p50_ms", base.p50_ms);
  bench::PrintJsonMetric(kBench, "baseline_p99_ms", base.p99_ms);

  // ---- b) serving tier at 1, 2 and 4 shards, global top-10. ----
  double qps4 = 0.0;
  bool identical = true;
  for (size_t num_shards : {1u, 2u, 4u}) {
    auto shards =
        engine::serving::BuildShardLibraries(parts, num_shards).TakeValue();
    std::vector<const engine::DigitalLibrary*> views;
    for (const auto& shard : shards) views.push_back(shard.get());
    ServingConfig config;
    config.engine.num_threads = 1;
    auto frontend = ServingFrontend::Create(views, config).TakeValue();
    for (size_t i = 0; i < stream.size(); i += 10) {
      (void)frontend->Search(stream[i], kTopN);
    }
    const LoopResult run = ClosedLoop(stream, [&](const CombinedQuery& q) {
      (void)frontend->Search(q, kTopN);
    });
    std::printf("serving x%zu      %8.1f qps   p50 %7.3f ms   p99 %7.3f ms\n",
                num_shards, run.qps, run.p50_ms, run.p99_ms);
    const std::string tag = "serving_" + std::to_string(num_shards) + "shard";
    bench::PrintJsonMetric(kBench, (tag + "_qps").c_str(), run.qps);
    bench::PrintJsonMetric(kBench, (tag + "_p50_ms").c_str(), run.p50_ms);
    bench::PrintJsonMetric(kBench, (tag + "_p99_ms").c_str(), run.p99_ms);
    if (num_shards == 4) qps4 = run.qps;

    // Merged answers must be bit-identical to the oracle's top-10.
    for (size_t i = 0; i < stream.size(); i += 7) {
      auto expected = oracle->Search(stream[i]);
      auto actual = frontend->Search(stream[i], kTopN);
      if (expected.ok() != actual.ok()) {
        identical = false;
        continue;
      }
      if (!expected.ok()) continue;
      auto want = *std::move(expected);
      if (want.size() > kTopN) want.resize(kTopN);
      identical = identical && BitIdentical(want, *actual);
    }
  }
  bench::PrintRule();
  const double speedup = base.qps > 0.0 ? qps4 / base.qps : 0.0;
  std::printf("4-shard speedup %.2fx   bit-identical %s\n", speedup,
              identical ? "yes" : "NO");
  bench::PrintJsonMetric(kBench, "speedup_4shard", speedup);
  bench::PrintJsonMetric(kBench, "serving_bit_identical",
                         identical ? 1.0 : 0.0);

  // ---- c) overload: ~2x saturation with tiny admission queues. ----
  // Single-client closed loop saturates the one evaluation core, so two
  // extra concurrent clients offer ~2x the sustainable load. queue_depth=1
  // keeps admission bounded: the excess is shed, so the p99 of ACCEPTED
  // queries must stay near the unloaded p99 instead of growing with the
  // offered load.
  {
    auto shards = engine::serving::BuildShardLibraries(parts, 4).TakeValue();
    std::vector<const engine::DigitalLibrary*> views;
    for (const auto& shard : shards) views.push_back(shard.get());
    ServingConfig config;
    config.queue_depth = 1;
    auto frontend = ServingFrontend::Create(views, config).TakeValue();
    for (size_t i = 0; i < stream.size(); i += 10) {
      (void)frontend->Search(stream[i], kTopN);
    }
    std::atomic<int64_t> accepted{0};
    std::atomic<int64_t> shed{0};
    std::mutex lat_mu;
    std::vector<double> accepted_ms;
    auto client = [&](size_t offset) {
      for (size_t i = offset; i < stream.size(); i += 3) {
        bench::WallTimer timer;
        auto result = frontend->Search(stream[i], kTopN);
        const double ms = timer.Millis();
        if (result.ok()) {
          accepted.fetch_add(1);
          std::lock_guard<std::mutex> lock(lat_mu);
          accepted_ms.push_back(ms);
        } else {
          shed.fetch_add(1);
        }
      }
    };
    std::thread c1(client, 1), c2(client, 2);
    client(0);
    c1.join();
    c2.join();
    const double total = static_cast<double>(accepted.load() + shed.load());
    const double shed_fraction =
        total > 0.0 ? static_cast<double>(shed.load()) / total : 0.0;
    const double overload_p99 = bench::Percentile(accepted_ms, 0.99);
    std::printf(
        "overload 3 clients: accepted %lld, shed %lld (%.1f%%), "
        "accepted p99 %7.3f ms\n",
        static_cast<long long>(accepted.load()),
        static_cast<long long>(shed.load()), shed_fraction * 100.0,
        overload_p99);
    bench::PrintJsonMetric(kBench, "overload_shed_fraction", shed_fraction);
    bench::PrintJsonMetric(kBench, "overload_accepted_p99_ms", overload_p99);
  }
  return 0;
}
