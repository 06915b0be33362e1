#include "workloads.h"

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <numeric>
#include <set>
#include <thread>
#include <utility>

#include "core/meta_index.h"
#include "core/tennis_fde.h"
#include "engine/durable_library.h"
#include "engine/ingest/ingest.h"
#include "engine/query_language.h"
#include "engine/serving/partition.h"
#include "engine/serving/serving.h"
#include "inputs.h"
#include "media/block_codec.h"
#include "util/strings.h"
#include "util/thread_pool.h"
#include "vision/frame_feature_cache.h"
#include "vision/signature.h"

namespace cobra::perfbench {

namespace {

namespace fs = std::filesystem;
using engine::CombinedQuery;
using engine::SceneHit;
using engine::ingest::CorpusIngestPipeline;
using engine::ingest::IngestDelta;
using engine::serving::CorpusParts;

constexpr size_t kTopN = 10;
/// Set-up repetitions per untraced run; setup_s is their median.
constexpr int kSetupReps = 3;
/// A traced phase alternates untraced and traced slices of this length.
constexpr int64_t kSliceNs = 1'000'000'000;
/// Input generation threads (the machine's 4 cores).
constexpr int kGenThreads = 4;
/// Every kGateStride-th timed query is checked against the oracle.
constexpr size_t kGateStride = 64;
/// Warm-up queries before the timed phase (fills the result and seed
/// caches with the repeating pool).
constexpr size_t kWarmupQueries = 400;

const char* const kFdeEvents[] = {"serve", "rally", "net_play",
                                  "baseline_play"};
/// Query streams are rings of this many queries. One cycle is far longer
/// than every cache on the query path holds (per-shard result caches of
/// 8 x 128 entries, a 128-entry text-seed cache), so a query met again on
/// a later cycle is a cache miss like any other distinct query.
constexpr size_t kStreamLength = 40000;

using HitsResult = Result<std::vector<SceneHit>>;

/// Parses `text` and answers it from `library` (every hit); a parse error
/// is the answer.
HitsResult SearchText(const engine::DigitalLibrary& library,
                      const std::string& text) {
  auto query = engine::ParseQuery(text);
  if (!query.ok()) return query.status();
  return library.Search(*query);
}

void Fail(const std::string& what) {
  std::printf("GATE FAILED: %s\n", what.c_str());
}

std::string FreshDir(const std::string& path) {
  std::error_code ec;
  fs::remove_all(path, ec);
  fs::create_directories(path);
  return path;
}

int64_t DirBytes(const std::string& path) {
  int64_t total = 0;
  for (const auto& entry : fs::recursive_directory_iterator(path)) {
    if (entry.is_regular_file()) {
      total += static_cast<int64_t>(entry.file_size());
    }
  }
  return total;
}

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

double Mean(const std::vector<double>& v) {
  return v.empty() ? 0.0 : std::accumulate(v.begin(), v.end(), 0.0) /
                               static_cast<double>(v.size());
}

double Share(double part, double whole) {
  return whole > 0 ? part / whole : 0.0;
}

double Share(int64_t part, int64_t whole) {
  return Share(static_cast<double>(part), static_cast<double>(whole));
}

/// One timed phase's outcome.
struct Timed {
  int64_t attempted = 0;
  int64_t ops = 0;     ///< completed without error
  int64_t failed = 0;  ///< failed or shed
  double wall_s = 0.0;
  double cpu_s = 0.0;  ///< process CPU; live: the query side's threads
  std::vector<double> latency_ms;
  std::vector<double> freshness_ms;  ///< per broadcast (live workload)
  /// Process peak RSS at the end of the phase: set-up plus the timed work,
  /// before the gate builds its oracle.
  double peak_rss_mb = 0.0;
  // For the validity metrics of a traced phase: per-op costs by slice
  // (a query's latency, an archive broadcast's analysis time per frame), the
  // traced slices' windows, and the intervals of broadcast analyses that
  // began in an untraced slice (they ran without spans).
  std::vector<SliceCost> slice_costs;
  std::vector<std::pair<int64_t, int64_t>> traced_windows;
  std::vector<std::pair<int64_t, int64_t>> untraced_work;
};

double OpsPerSecond(const Timed& t) {
  return Share(static_cast<double>(t.ops), t.wall_s);
}

/// The end-to-end metrics of an untraced run, in BENCHMARK.json order.
/// Returns false (after saying why) when the tail percentile lacks the ten
/// samples beyond it that make it reportable.
bool EndToEnd(double setup_s, const Timed& t, std::vector<Metric>* out) {
  const auto p90 = SupportedPercentile(t.latency_ms, 0.9);
  auto tail = [&t](double p) {
    const auto value = SupportedPercentile(t.latency_ms, p);
    return value ? FormatNumber(*value) : std::string("n/a");
  };
  std::printf("samples: %zu op latencies; p50 %.4f ms, p90 %s ms, p99 %s ms, "
              "p999 %s ms (p99 and p999 ungated; a percentile prints only "
              "with >= 10 samples beyond it)\n",
              t.latency_ms.size(), Percentile(t.latency_ms, 0.5),
              tail(0.9).c_str(), tail(0.99).c_str(), tail(0.999).c_str());
  std::printf("failed_share: %.6f (%lld of %lld attempted)\n",
              Share(t.failed, t.attempted), static_cast<long long>(t.failed),
              static_cast<long long>(t.attempted));
  if (!p90 || t.ops == 0) {
    std::printf("too few samples for latency_p90_ms\n");
    return false;
  }
  const double values[] = {setup_s,
                           OpsPerSecond(t),
                           Percentile(t.latency_ms, 0.5),
                           *p90,
                           t.cpu_s * 1e3 / static_cast<double>(t.ops),
                           t.peak_rss_mb};
  out->clear();
  for (size_t i = 0; i < EndToEndMetricUnits().size(); ++i) {
    out->push_back({EndToEndMetricUnits()[i].first, values[i],
                    EndToEndMetricUnits()[i].second});
  }
  return true;
}

/// Runs `make(rep)` `reps` times, each repetition's state replacing the
/// previous one's, and times each make(rep) alone (the previous state is
/// torn down before the clock starts). Returns the last state; the median
/// time goes to `*setup_s`. Every repetition must produce the same input
/// digest.
template <typename State, typename Make>
std::unique_ptr<State> RepeatSetup(int reps, Make&& make, double* setup_s,
                                   bool* ok) {
  std::vector<double> times;
  std::unique_ptr<State> state;
  std::string digest;
  for (int rep = 0; rep < reps; ++rep) {
    state.reset();
    // Hand the torn-down state's memory back, so that peak RSS reflects one
    // deployment rather than what the allocator kept of earlier ones.
    malloc_trim(0);
    const int64_t start = NowNs();
    state = make(rep);
    times.push_back(SecondsSince(start));
    if (state == nullptr) {
      *ok = false;
      return nullptr;
    }
    if (rep > 0 && state->digest != digest) {
      Fail("set-up repetition produced different inputs");
      *ok = false;
    }
    digest = state->digest;
  }
  *setup_s = Median(times);
  std::printf("setup: %d repetition(s), seconds:", reps);
  for (double t : times) std::printf(" %.4f", t);
  std::printf(" (median %.4f)\ninput digest: %s\n", *setup_s, digest.c_str());
  return state;
}

// ---------------------------------------------------------------------------
// Span summaries.

struct SpanSummary {
  std::vector<double> ms;       ///< durations
  double self_ms = 0.0;         ///< summed self time
};

std::map<std::string, SpanSummary> SummarizeSpans(
    const std::vector<SpanRecord>& spans) {
  const std::vector<int64_t> self = SelfTimes(spans);
  std::map<std::string, SpanSummary> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    SpanSummary& s = out[spans[i].name];
    s.ms.push_back(Ms(spans[i].end_ns - spans[i].begin_ns));
    s.self_ms += Ms(self[i]);
  }
  return out;
}

double MeanMs(const std::map<std::string, SpanSummary>& summary,
              const std::string& name) {
  auto it = summary.find(name);
  return it == summary.end() ? 0.0 : Mean(it->second.ms);
}

double MedianMs(const std::map<std::string, SpanSummary>& summary,
                const std::string& name) {
  auto it = summary.find(name);
  return it == summary.end() ? 0.0 : Median(it->second.ms);
}

/// Writes the spans (one JSON object per line) and prints the per-name
/// self-time table.
void WriteSpans(const std::vector<SpanRecord>& spans, const std::string& path) {
  const std::vector<int64_t> self = SelfTimes(spans);
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    for (size_t i = 0; i < spans.size(); ++i) {
      const SpanRecord& s = spans[i];
      std::fprintf(f,
                   "{\"name\": \"%s\", \"id\": %llu, \"parent\": %llu, "
                   "\"op\": %lld, \"thread\": %u, \"begin_ns\": %lld, "
                   "\"end_ns\": %lld, \"self_ns\": %lld}\n",
                   s.name, static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<long long>(s.op), s.thread,
                   static_cast<long long>(s.begin_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<long long>(self[i]));
    }
    std::fclose(f);
    std::printf("trace: %zu spans written to %s\n", spans.size(), path.c_str());
  }
  std::printf("%-34s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms");
  for (const auto& [name, s] : SummarizeSpans(spans)) {
    std::printf("%-34s %8zu %12.3f %12.3f\n", name.c_str(), s.ms.size(),
                std::accumulate(s.ms.begin(), s.ms.end(), 0.0), s.self_ms);
  }
}

/// The validity metrics of a traced phase run on `threads` benchmark
/// threads.
void TraceValidity(const Timed& t, const std::vector<SpanRecord>& spans,
                   size_t threads, std::map<std::string, double>* layers) {
  (*layers)["trace.unattributed_share"] =
      UnattributedShare(spans, t.traced_windows, threads, t.untraced_work);
  (*layers)["trace.overhead_share"] = PairedOverheadShare(t.slice_costs);
}

// ---------------------------------------------------------------------------
// Broadcast analysis: the ingest pipeline's per-item work.

/// Per-broadcast layer numbers, filled on the analysis thread.
struct AnalysisRecord {
  int64_t slice = 0;  ///< the slice the broadcast was submitted in
  bool traced = false;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  double segment_ms = 0.0;
  double player_ms = 0.0;
  double events_ms = 0.0;
  double detectors_ms = 0.0;  ///< every detector of the run
  double fde_ms = 0.0;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
};

void AddDetectorTimes(const grammar::FdeRunReport& report,
                      AnalysisRecord* rec) {
  for (const grammar::DetectorRunStats& d : report.detectors) {
    rec->detectors_ms += d.millis;
    if (d.symbol == "segment" || d.symbol == "tennis" ||
        d.symbol == "closeup" || d.symbol == "audience") {
      rec->segment_ms += d.millis;
    } else if (d.symbol == "player" || d.symbol == "features") {
      rec->player_ms += d.millis;
    } else {
      rec->events_ms += d.millis;
    }
  }
}

std::vector<FrameInterval> ShotsOf(const core::VideoDescription& desc) {
  std::vector<FrameInterval> shots;
  for (const grammar::Annotation& a : desc.Layer(core::CobraLayer::kFeature)) {
    if (a.symbol == "segment") shots.push_back(a.range);
  }
  return shots;
}

/// Deserialize -> CodedVideoSource -> TennisVideoIndexer::Index ->
/// ExtractShotSignatures, with a span around each call.
Result<IngestDelta> AnalyzeBroadcast(const CodedBroadcast& broadcast,
                                     Tracer* tracer, int64_t op, uint64_t cause,
                                     AnalysisRecord* rec) {
  Span span(tracer, "ingest.analyze", op, cause);
  Result<media::EncodedVideo> encoded = Status::Internal("unset");
  {
    Span s(tracer, "media.deserialize", op);
    encoded = media::EncodedVideo::Deserialize(*broadcast.bytes);
  }
  if (!encoded.ok()) return encoded.status();
  media::CodedVideoSource source(encoded.TakeValue());
  COBRA_ASSIGN_OR_RETURN(std::unique_ptr<core::TennisVideoIndexer> indexer,
                         core::TennisVideoIndexer::Create());
  Result<core::VideoDescription> desc = Status::Internal("unset");
  {
    Span s(tracer, "grammar.fde", op);
    const int64_t t0 = NowNs();
    desc = indexer->Index(source, broadcast.video_oid, "coded broadcast");
    rec->fde_ms = Ms(NowNs() - t0);
  }
  if (!desc.ok()) return desc.status();
  if (indexer->last_report()) AddDetectorTimes(*indexer->last_report(), rec);
  // Signatures ride on the frames the detectors already decoded.
  vision::FrameFeatureCache* cache = indexer->fde().frame_cache();
  if (cache == nullptr) {
    return Status::Internal("the FDE ran without its frame cache");
  }
  vision::SignatureExtractionStats stats;
  Result<std::vector<vision::SignatureRecord>> records =
      Status::Internal("unset");
  {
    Span s(tracer, "vision.signatures", op);
    records = vision::ExtractShotSignatures(*cache, broadcast.video_oid,
                                            ShotsOf(*desc), &stats);
  }
  if (!records.ok()) return records.status();
  rec->cache_hits = stats.cache_hits;
  rec->cache_misses = stats.cache_misses;
  return IngestDelta::Video(desc.TakeValue(), records.TakeValue());
}

/// The pipeline task of one broadcast: AnalyzeBroadcast, traced with
/// `tracer` (null: untraced), with its wall interval recorded in `rec`.
std::function<Result<IngestDelta>()> AnalysisTask(
    const CodedBroadcast* broadcast, Tracer* tracer, int64_t op,
    uint64_t cause, AnalysisRecord* rec) {
  return [broadcast, tracer, op, cause, rec]() {
    rec->traced = tracer != nullptr;
    rec->start_ns = NowNs();
    Result<IngestDelta> delta =
        AnalyzeBroadcast(*broadcast, tracer, op, cause, rec);
    rec->end_ns = NowNs();
    return delta;
  };
}

/// Wall intervals of the first `n` analyses that began in an untraced
/// slice.
std::vector<std::pair<int64_t, int64_t>> UntracedAnalyses(
    const std::vector<AnalysisRecord>& records, size_t n) {
  std::vector<std::pair<int64_t, int64_t>> out;
  for (size_t i = 0; i < n; ++i) {
    if (!records[i].traced) out.emplace_back(records[i].start_ns,
                                             records[i].end_ns);
  }
  return out;
}

/// Wraps the real sink: times Commit and Barrier, and stamps every video
/// committed before a successful Barrier with that Barrier's return time
/// (the moment it became durable / searchable).
class TimingSink final : public engine::ingest::IngestSink {
 public:
  TimingSink(engine::ingest::IngestSink* inner, const TraceSlices& slices)
      : inner_(inner), slices_(slices) {}

  Status Commit(const IngestDelta& delta) override {
    Span span(slices_.Now(), "ingest.commit");
    const int64_t t0 = NowNs();
    Status status = inner_->Commit(delta);
    commit_ms_.push_back(Ms(NowNs() - t0));
    if (status.ok() && delta.kind == IngestDelta::Kind::kVideo) {
      pending_.push_back(delta.video.video_id());
      videos_.push_back(delta);
    }
    return status;
  }

  Status Barrier() override {
    Span span(slices_.Now(), "ingest.barrier");
    const int64_t t0 = NowNs();
    Status status = inner_->Barrier();
    const int64_t t1 = NowNs();
    barrier_ms_.push_back(Ms(t1 - t0));
    if (status.ok()) {
      for (int64_t oid : pending_) visible_ns_[oid] = t1;
      pending_.clear();
    }
    return status;
  }

  /// Read once the pipeline has finished.
  const std::vector<double>& commit_ms() const { return commit_ms_; }
  const std::vector<double>& barrier_ms() const { return barrier_ms_; }
  const std::map<int64_t, int64_t>& visible_ns() const { return visible_ns_; }
  /// Committed video deltas, in commit order.
  const std::vector<IngestDelta>& videos() const { return videos_; }

 private:
  engine::ingest::IngestSink* inner_;
  const TraceSlices slices_;
  std::vector<double> commit_ms_;
  std::vector<double> barrier_ms_;
  std::vector<int64_t> pending_;
  std::map<int64_t, int64_t> visible_ns_;
  std::vector<IngestDelta> videos_;
};

/// Replays a sample of broadcasts through the media layer alone.
void ReplayMedia(const std::vector<CodedBroadcast>& sample,
                 std::map<std::string, double>* layers) {
  std::vector<double> deserialize_ms, per_frame_ms;
  for (const CodedBroadcast& b : sample) {
    int64_t t0 = NowNs();
    auto encoded = media::EncodedVideo::Deserialize(*b.bytes);
    deserialize_ms.push_back(Ms(NowNs() - t0));
    if (!encoded.ok()) continue;
    media::CodedVideoSource source(encoded.TakeValue());
    t0 = NowNs();
    auto decoded = source.DecodeAll();
    const double ms = Ms(NowNs() - t0);
    if (decoded.ok() && b.frames > 0) {
      per_frame_ms.push_back(ms / static_cast<double>(b.frames));
    }
  }
  (*layers)["media.deserialize_ms"] = Mean(deserialize_ms);
  (*layers)["media.decode_ms_per_frame"] = Mean(per_frame_ms);
}

/// Detector, grammar, vision and ingest layer numbers of an ingest phase.
void IngestLayers(const std::vector<AnalysisRecord>& records,
                  const std::map<std::string, SpanSummary>& spans,
                  const std::vector<double>& queue_wait_ms,
                  const std::vector<double>& window_block_ms,
                  const std::vector<double>& commit_ms,
                  const std::vector<double>& barrier_ms,
                  double records_per_sweep,
                  std::map<std::string, double>* layers) {
  std::vector<double> segment, player, events, sched;
  int64_t hits = 0, misses = 0;
  for (const AnalysisRecord& r : records) {
    segment.push_back(r.segment_ms);
    player.push_back(r.player_ms);
    events.push_back(r.events_ms);
    sched.push_back(r.fde_ms - r.detectors_ms);
    hits += r.cache_hits;
    misses += r.cache_misses;
  }
  auto& l = *layers;
  l["detectors.segment_ms"] = Mean(segment);
  l["detectors.player_ms"] = Mean(player);
  l["detectors.events_ms"] = Mean(events);
  l["grammar.fde_ms"] = MeanMs(spans, "grammar.fde");
  l["grammar.sched_overhead_ms"] = Mean(sched);
  l["vision.signature_ms"] = MeanMs(spans, "vision.signatures");
  l["vision.frame_cache_hit_share"] =
      Share(static_cast<double>(hits), static_cast<double>(hits + misses));
  l["ingest.queue_wait_ms"] = Mean(queue_wait_ms);
  l["ingest.window_block_ms"] = Mean(window_block_ms);
  l["ingest.commit_ms"] = Mean(commit_ms);
  l["ingest.barrier_ms"] = Mean(barrier_ms);
  l["ingest.records_per_sweep"] = records_per_sweep;
}

// ---------------------------------------------------------------------------
// Query-side helpers shared by search_mixed and live_ingest_search.

void PrintStreamProperties(const std::vector<StreamQuery>& stream,
                           size_t timed) {
  size_t by_class[kNumQueryClasses] = {};
  size_t pool = 0;
  std::set<std::string> distinct;
  for (const StreamQuery& q : stream) {
    ++by_class[static_cast<int>(q.cls)];
    if (q.from_pool) {
      ++pool;
    } else {
      distinct.insert(q.text);
    }
  }
  const double n = static_cast<double>(stream.size());
  std::printf("query mix (one %zu-query cycle):", stream.size());
  for (int c = 0; c < kNumQueryClasses; ++c) {
    std::printf(" %s %.3f", QueryClassName(static_cast<QueryClass>(c)),
                Share(static_cast<double>(by_class[c]), n));
  }
  std::printf("; from the repeating pool %.3f; distinct among the rest %.4f; "
              "%zu timed queries = %.2f cycles\n",
              Share(static_cast<double>(pool), n),
              Share(static_cast<double>(distinct.size()),
                    n - static_cast<double>(pool)),
              timed, Share(static_cast<double>(timed), n));
}

/// Share of similar_to probes in `stream` whose shot has at least k
/// neighbors within the threshold in `oracle`.
void PrintProbeProperties(const std::vector<StreamQuery>& stream,
                          const engine::DigitalLibrary& oracle) {
  size_t probes = 0, full = 0;
  for (size_t i = 0; i < stream.size() && probes < 2000; ++i) {
    if (stream[i].cls != QueryClass::kSimilar) continue;
    auto query = engine::ParseQuery(stream[i].text);
    if (!query.ok()) continue;
    const vision::SignatureRecord* rec = oracle.signatures().FindShot(
        query->similar_video, query->similar_frame);
    if (rec == nullptr) continue;
    ++probes;
    const size_t k = engine::EffectiveSimilarK(oracle.signatures(), *query);
    // k + 1: the probe's own shot is always within the threshold.
    if (oracle.signatures().SearchSimilar(rec->sig, k + 1).size() >= k + 1) {
      ++full;
    }
  }
  std::printf("similar_to probes with >= k neighbors within the threshold: "
              "%.3f of %zu\n",
              Share(static_cast<double>(full), static_cast<double>(probes)),
              probes);
}

/// (stream index, frontend answer) pairs checked by the gate.
using SampledAnswers = std::vector<std::pair<size_t, HitsResult>>;

/// A closed-loop client's record: latencies, counts and sampled answers.
struct ClientLog {
  std::vector<double> latency_ms;
  std::vector<SliceCost> slice_costs;
  int64_t attempted = 0;
  int64_t ok = 0;
  int64_t failed = 0;
  /// Every kGateStride-th op's answer.
  SampledAnswers sampled;
};

/// A closed-loop client: takes the next op from `next` (a position in the
/// ring `stream`) while `keep_going` holds and answers it through
/// `frontend`, traced as `slices` say.
void RunClient(engine::serving::ServingFrontend* frontend,
               const std::vector<StreamQuery>& stream,
               std::atomic<size_t>* next,
               const std::function<bool()>& keep_going,
               const TraceSlices& slices, ClientLog* log) {
  static const char* const kSearchSpan[] = {
      "serving.search.concept", "serving.search.text", "serving.search.event",
      "serving.search.similar"};
  while (keep_going()) {
    const int64_t op = static_cast<int64_t>(next->fetch_add(1));
    const size_t i = static_cast<size_t>(op) % stream.size();
    const StreamQuery& sq = stream[i];
    ++log->attempted;
    const int64_t t0 = NowNs();
    Tracer* tracer = slices.At(t0);
    Span root(tracer, "query", op);
    Result<CombinedQuery> query = Status::Internal("unset");
    {
      Span s(tracer, "query_language.parse", op);
      query = engine::ParseQuery(sq.text);
    }
    HitsResult hits = query.status();
    if (query.ok()) {
      Span s(tracer, kSearchSpan[static_cast<int>(sq.cls)], op);
      hits = frontend->Search(*query, kTopN);
    }
    const double ms = Ms(NowNs() - t0);
    log->latency_ms.push_back(ms);
    log->slice_costs.push_back({slices.Slice(t0), ms, 1.0});
    if (hits.ok()) {
      ++log->ok;
    } else {
      ++log->failed;
    }
    if (static_cast<size_t>(op) % kGateStride == 0) {
      log->sampled.emplace_back(i, std::move(hits));
    }
  }
}

void MergeClient(const ClientLog& from, Timed* t) {
  t->attempted += from.attempted;
  t->ops += from.ok;
  t->failed += from.failed;
  t->latency_ms.insert(t->latency_ms.end(), from.latency_ms.begin(),
                       from.latency_ms.end());
  t->slice_costs.insert(t->slice_costs.end(), from.slice_costs.begin(),
                        from.slice_costs.end());
}

/// The gate over sampled frontend answers: each must equal the unsharded
/// oracle's answer truncated to the top-N, bit for bit.
bool GateSampledAnswers(const std::vector<StreamQuery>& stream,
                        const SampledAnswers& sampled,
                        const engine::DigitalLibrary& oracle) {
  size_t checked = 0;
  for (const auto& [i, actual] : sampled) {
    HitsResult expected = SearchText(oracle, stream[i].text);
    if (expected.ok()) expected = TopN(expected.TakeValue(), kTopN);
    const std::string diff = CompareAnswers(expected, actual);
    if (!diff.empty()) {
      Fail("query \"" + stream[i].text + "\": " + diff);
      return false;
    }
    ++checked;
  }
  std::printf(
      "gate: %zu sampled answers bit-identical to the unsharded oracle\n",
      checked);
  return checked > 0;
}

/// Per-layer replay of a query sample against the shard libraries.
void ReplayQueryLayers(const std::vector<StreamQuery>& stream,
                       const std::vector<const engine::DigitalLibrary*>& shards,
                       const engine::serving::ShardRouter& router,
                       std::map<std::string, double>* layers) {
  constexpr size_t kPerClass = 48;
  int64_t plans = 0, short_circuits = 0, text_first = 0;
  double est_rows = 0.0, actual_rows = 0.0;
  std::vector<double> text_ms, postings, sim_ms, scenes_ms;
  double blocks_skipped = 0.0, blocks_touched = 0.0;
  int64_t sim_queries = 0, fallbacks = 0;
  double probes = 0.0, candidates = 0.0, scenes = 0.0;
  size_t per_class[kNumQueryClasses] = {};
  for (const StreamQuery& sq : stream) {
    size_t& seen = per_class[static_cast<int>(sq.cls)];
    if (seen >= kPerClass) continue;
    auto query = engine::ParseQuery(sq.text);
    if (!query.ok()) continue;
    ++seen;
    // The owning shard: the probe's shard for similar_to, else the shard
    // with the most hits.
    size_t owner = 0;
    if (query->similar_video >= 0) {
      owner = router.ShardOf(query->similar_video);
    } else {
      size_t most = 0;
      for (size_t s = 0; s < shards.size(); ++s) {
        auto hits = shards[s]->Search(*query);
        if (hits.ok() && hits->size() > most) {
          most = hits->size();
          owner = s;
        }
      }
    }
    const engine::DigitalLibrary& lib = *shards[owner];
    if (auto explain = lib.ExplainSearch(*query); explain.ok()) {
      ++plans;
      if (explain->short_circuited) ++short_circuits;
      if (explain->text_first) ++text_first;
      for (const auto& step : explain->steps) {
        if (step.actual_rows < 0) continue;
        est_rows += step.est_rows;
        actual_rows += static_cast<double>(step.actual_rows);
      }
    }
    if (!query->text.empty()) {
      text::SearchStats stats;
      const int64_t t0 = NowNs();
      (void)lib.TextStage(query->text, query->text_top_k, &stats);
      text_ms.push_back(Ms(NowNs() - t0));
      const double scanned = static_cast<double>(stats.postings_scanned);
      postings.push_back(scanned);
      blocks_skipped += static_cast<double>(stats.blocks_skipped);
      blocks_touched += std::ceil(
          scanned / static_cast<double>(text::InvertedIndex::kSkipBlockSize));
    }
    if (query->similar_video >= 0) {
      const vision::SignatureRecord* rec = lib.signatures().FindShot(
          query->similar_video, query->similar_frame);
      if (rec != nullptr) {
        engine::similarity::SimilaritySearchStats stats;
        const size_t k = engine::EffectiveSimilarK(lib.signatures(), *query);
        const int64_t t0 = NowNs();
        (void)lib.signatures().SearchSimilar(rec->sig, k + 1, &stats);
        sim_ms.push_back(Ms(NowNs() - t0));
        ++sim_queries;
        probes += static_cast<double>(stats.probes);
        candidates += static_cast<double>(stats.candidates);
        if (stats.exhaustive_fallback) ++fallbacks;
      }
    }
    if (!query->event.empty()) {
      const int64_t t0 = NowNs();
      for (const engine::DigitalLibrary* shard : shards) {
        auto found = shard->meta_index().FindScenes(query->event);
        if (found.ok()) scenes += static_cast<double>(found->size());
      }
      scenes_ms.push_back(Ms(NowNs() - t0));
    }
  }
  auto& l = *layers;
  l["planner.short_circuit_share"] = Share(short_circuits, plans);
  l["planner.text_first_share"] = Share(text_first, plans);
  l["planner.rows_est_over_actual"] = Share(est_rows, actual_rows);
  l["text.stage_ms"] = Mean(text_ms);
  l["text.postings_per_query"] = Mean(postings);
  l["text.blocks_skipped_share"] =
      Share(blocks_skipped, blocks_skipped + blocks_touched);
  l["similarity.search_ms"] = Mean(sim_ms);
  l["similarity.probes_per_query"] =
      Share(probes, static_cast<double>(sim_queries));
  l["similarity.candidates_per_query"] =
      Share(candidates, static_cast<double>(sim_queries));
  l["similarity.fallback_share"] = Share(fallbacks, sim_queries);
  l["storage.find_scenes_ms"] = Mean(scenes_ms);
  l["storage.scenes_per_query"] =
      Share(scenes, static_cast<double>(scenes_ms.size()));
}

/// Serving-tier layer numbers of a traced query phase.
void ServingLayers(const engine::serving::ServingStats& before,
                   const engine::serving::ServingStats& after,
                   size_t num_shards,
                   const std::map<std::string, SpanSummary>& spans,
                   std::map<std::string, double>* layers) {
  const int64_t queries = after.queries - before.queries;
  auto& l = *layers;
  for (int c = 0; c < kNumQueryClasses; ++c) {
    const std::string name = QueryClassName(static_cast<QueryClass>(c));
    l["serving.p50_ms." + name] = MedianMs(spans, "serving.search." + name);
  }
  l["serving.shards_searched_per_query"] =
      Share(after.shards_searched - before.shards_searched, queries);
  l["serving.bound_pruned_share"] =
      Share(after.shards_pruned_by_bound - before.shards_pruned_by_bound,
            queries * static_cast<int64_t>(num_shards));
  l["serving.single_shard_share"] =
      Share(after.single_shard_routed - before.single_shard_routed, queries);
  const int64_t hits = after.text_seed_cache_hits - before.text_seed_cache_hits;
  const int64_t misses =
      after.text_seed_cache_misses - before.text_seed_cache_misses;
  l["serving.seed_cache_hit_share"] = Share(hits, hits + misses);
  l["serving.similar_probes_skipped_per_query"] =
      Share(after.similar_probes_skipped - before.similar_probes_skipped,
            after.similar_seeded - before.similar_seeded);
  l["serving.shed"] = static_cast<double>(after.shed - before.shed);
  l["query_language.parse_us"] = MeanMs(spans, "query_language.parse") * 1e3;
}

QueryDomain DomainOf(const webspace::SynthesizedSite& site, int years,
                     std::vector<std::pair<int64_t, int64_t>> probes) {
  QueryDomain domain;
  domain.players = static_cast<int>(site.player_oids.size());
  domain.first_year = webspace::SiteConfig{}.first_year;
  domain.years = years;
  domain.probes = std::move(probes);
  return domain;
}

void PrintBroadcastProperties(const std::vector<CodedBroadcast>& broadcasts) {
  if (broadcasts.empty()) return;
  std::vector<double> frames, shots, events, decoded_mb;
  double coded = 0.0;
  for (const CodedBroadcast& b : broadcasts) {
    frames.push_back(static_cast<double>(b.frames));
    shots.push_back(static_cast<double>(b.truth_shots));
    events.push_back(static_cast<double>(b.truth_events));
    decoded_mb.push_back(static_cast<double>(b.DecodedBytes()) / (1 << 20));
    coded += static_cast<double>(b.bytes->size());
  }
  auto range = [](const std::vector<double>& v) {
    return StringFormat("mean %.1f [%.0f, %.0f]", Mean(v),
                        *std::min_element(v.begin(), v.end()),
                        *std::max_element(v.begin(), v.end()));
  };
  std::printf("broadcasts: %zu at %dx%d; frames %s; shots %s; events %s "
              "(synthesizer truth)\n",
              broadcasts.size(), broadcasts[0].width, broadcasts[0].height,
              range(frames).c_str(), range(shots).c_str(),
              range(events).c_str());
  std::printf("decoded size per broadcast: max %.1f MB = %.3f of the 64 MB "
              "frame-cache budget; coded %.1f KB mean\n",
              *std::max_element(decoded_mb.begin(), decoded_mb.end()),
              *std::max_element(decoded_mb.begin(), decoded_mb.end()) / 64.0,
              coded / static_cast<double>(broadcasts.size()) / 1024.0);
}

// ===========================================================================
// archive_ingest

constexpr int kArchivePlayers = 24;
constexpr int kArchiveYears = 4;
/// Distinct coded broadcasts; the archive re-airs them in turn under
/// distinct video ids.
constexpr size_t kArchiveDistinct = 16;
constexpr int kArchivePoolThreads = 3;
/// A run measures at least this many broadcasts, so latency_p90_ms has ten
/// samples beyond it.
constexpr size_t kArchiveMinOps = 110;
/// Airings the archive holds per second of the run: several times what the
/// pipeline ingests, so a run ends on time, not when the archive runs out.
constexpr double kArchiveAiringsPerSecond = 30.0;

struct ArchiveState {
  webspace::SynthesizedSite site;
  std::vector<std::pair<int64_t, std::string>> interviews;
  std::vector<CodedBroadcast> broadcasts;  ///< airings, in submission order
  std::unique_ptr<engine::DurableLibrary> library;
  std::string dir;
  std::string digest;
};

struct ArchiveLayers {
  std::vector<AnalysisRecord> records;
  std::vector<double> queue_wait_ms, window_block_ms, commit_ms, barrier_ms;
  double wal_syncs = 0.0, records_per_sync = 0.0, flush_ms = 0.0;
  double bytes_per_op = 0.0, records_per_sweep = 0.0;
  /// The committed video deltas, for the gate.
  std::vector<IngestDelta> videos;
};

size_t ArchiveAirings(double seconds) {
  return std::max(kArchiveMinOps,
                  static_cast<size_t>(seconds * kArchiveAiringsPerSecond));
}

/// The archive ingest's timed phase, into the library built in set-up: the
/// site's interviews and FinalizeText, then the airings in order until
/// `seconds` have passed and at least kArchiveMinOps were submitted, then
/// Finish and Flush. `tracer` (null: untraced) records in the odd slices.
Result<Timed> ArchivePhase(ArchiveState* state, const RunOptions& options,
                           Tracer* tracer, ArchiveLayers* layers) {
  util::ThreadPool pool(kArchivePoolThreads);
  const std::vector<CodedBroadcast>& airings = state->broadcasts;
  std::vector<AnalysisRecord> records(airings.size());
  std::vector<int64_t> admit(airings.size(), 0);
  Timed t;
  const double cpu0 = ProcessCpuSeconds();
  const int64_t begin = NowNs();
  const int64_t deadline = begin + static_cast<int64_t>(options.seconds * 1e9);
  const TraceSlices slices(tracer, begin, kSliceNs);
  engine::ingest::DurableLibrarySink durable_sink(state->library.get());
  TimingSink sink(&durable_sink, slices);
  size_t n = 0;
  {
    CorpusIngestPipeline::Options pipeline_options;
    pipeline_options.pool = &pool;
    CorpusIngestPipeline pipeline(&sink, pipeline_options);
    for (const auto& [oid, body] : state->interviews) {
      COBRA_RETURN_NOT_OK(pipeline.SubmitInterview(oid, body));
    }
    COBRA_RETURN_NOT_OK(pipeline.SubmitFinalizeText());
    for (; n < airings.size(); ++n) {
      const int64_t t0 = NowNs();
      if (n >= kArchiveMinOps && t0 >= deadline) break;
      const int64_t op = static_cast<int64_t>(n);
      Tracer* op_tracer = slices.At(t0);
      records[n].slice = slices.Slice(t0);
      Span submit(op_tracer, "ingest.submit", op);
      COBRA_RETURN_NOT_OK(pipeline.SubmitVideo(AnalysisTask(
          &airings[n], op_tracer, op, submit.id(), &records[n])));
      admit[n] = NowNs();
      layers->window_block_ms.push_back(Ms(admit[n] - t0));
    }
    COBRA_RETURN_NOT_OK(pipeline.Finish());
    const auto stats = pipeline.stats();
    layers->records_per_sweep = Share(stats.committed, stats.sweeps);
  }
  layers->wal_syncs = static_cast<double>(state->library->wal_sync_calls());
  layers->records_per_sync = Share(
      static_cast<double>(state->library->wal_records_committed()),
      layers->wal_syncs);
  {
    Span span(slices.Now(), "segment.flush");
    const int64_t f0 = NowNs();
    COBRA_RETURN_NOT_OK(state->library->Flush());
    layers->flush_ms = Ms(NowNs() - f0);
  }
  const int64_t end = NowNs();
  t.wall_s = static_cast<double>(end - begin) / 1e9;
  t.cpu_s = ProcessCpuSeconds() - cpu0;
  t.peak_rss_mb = PeakRssMb();
  layers->bytes_per_op = static_cast<double>(DirBytes(state->dir)) /
                         static_cast<double>(n);
  for (size_t i = 0; i < n; ++i) {
    const int64_t oid = airings[i].video_oid;
    auto it = sink.visible_ns().find(oid);
    if (it == sink.visible_ns().end()) {
      return Status::Internal("broadcast " + std::to_string(oid) +
                              " never became durable");
    }
    const int64_t admitted = std::min(admit[i], records[i].start_ns);
    t.latency_ms.push_back(Ms(it->second - admitted));
    layers->queue_wait_ms.push_back(
        Ms(std::max<int64_t>(0, records[i].start_ns - admit[i])));
    layers->records.push_back(records[i]);
  }
  t.attempted = static_cast<int64_t>(n);
  t.ops = static_cast<int64_t>(n);
  t.traced_windows = slices.TracedWindows(end);
  t.untraced_work = UntracedAnalyses(records, n);
  // An archive op costs its analysis wall time per decoded frame.
  for (size_t i = 0; i < n; ++i) {
    t.slice_costs.push_back({records[i].slice,
                             Ms(records[i].end_ns - records[i].start_ns),
                             static_cast<double>(airings[i].frames)});
  }
  layers->commit_ms = sink.commit_ms();
  layers->barrier_ms = sink.barrier_ms();
  layers->videos = sink.videos();
  return t;
}

/// The archive's fixed query sweep: the search mix over the archive's own
/// site and committed shots.
std::vector<StreamQuery> ArchiveSweep(const ArchiveState& state, uint64_t seed,
                                      const std::vector<IngestDelta>& videos) {
  std::vector<std::pair<int64_t, int64_t>> probes;
  for (const IngestDelta& v : videos) {
    for (const vision::SignatureRecord& r : v.signatures) {
      probes.emplace_back(r.video_id, (r.begin + r.end) / 2);
    }
  }
  return MakeQueryStream(DomainOf(state.site, kArchiveYears, std::move(probes)),
                         SubSeed(seed, 7), 80);
}

bool SameScenes(const std::vector<core::Scene>& a,
                const std::vector<core::Scene>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].video_id != b[i].video_id ||
        a[i].range.begin != b[i].range.begin ||
        a[i].range.end != b[i].range.end || a[i].player != b[i].player ||
        a[i].event != b[i].event) {
      return false;
    }
  }
  return true;
}

/// The archive gate (see RECORD.md) over the `aired` broadcasts of the
/// timed phase: everything indexed with signatures; a reopen answers the
/// sweep like the live library; a serial re-index of a sample reproduces
/// the committed scenes and signatures.
bool ArchiveGate(ArchiveState* state, const RunOptions& options, size_t aired,
                 const std::vector<IngestDelta>& videos,
                 std::map<std::string, double>* layers) {
  const engine::DigitalLibrary& live = state->library->library();
  const std::set<int64_t> indexed(live.indexed_videos().begin(),
                                  live.indexed_videos().end());
  for (size_t i = 0; i < aired; ++i) {
    const int64_t oid = state->broadcasts[i].video_oid;
    if (!indexed.count(oid)) {
      Fail("broadcast " + std::to_string(oid) + " not indexed");
      return false;
    }
  }
  if (videos.size() != aired) {
    Fail("committed video count differs from the broadcasts aired");
    return false;
  }
  for (const IngestDelta& v : videos) {
    if (v.signatures.empty()) {
      Fail("video " + std::to_string(v.video.video_id()) +
           " has no signatures");
      return false;
    }
    for (const vision::SignatureRecord& r : v.signatures) {
      const vision::SignatureRecord* found =
          live.signatures().FindShot(r.video_id, r.begin);
      if (found == nullptr || !(found->sig == r.sig)) {
        Fail("signature of video " + std::to_string(r.video_id) +
             " not searchable");
        return false;
      }
    }
  }

  const std::vector<StreamQuery> sweep =
      ArchiveSweep(*state, options.seed, videos);
  std::vector<HitsResult> live_answers;
  for (const StreamQuery& q : sweep) {
    live_answers.push_back(SearchText(live, q.text));
  }
  state->library.reset();
  const int64_t t0 = NowNs();
  auto reopened = engine::DurableLibrary::Open(state->dir);
  (*layers)["segment.open_ms"] = Ms(NowNs() - t0);
  if (!reopened.ok()) {
    Fail("reopen: " + reopened.status().ToString());
    return false;
  }
  const engine::DigitalLibrary& restored = (*reopened)->library();
  for (size_t i = 0; i < sweep.size(); ++i) {
    const std::string diff =
        CompareAnswers(live_answers[i], SearchText(restored, sweep[i].text));
    if (!diff.empty()) {
      Fail("reopen answers \"" + sweep[i].text + "\" differently: " + diff);
      return false;
    }
  }

  // Serial re-index of two of the distinct broadcasts, chosen by the seed
  // (airing i re-airs distinct broadcast i % kArchiveDistinct).
  for (size_t pick :
       {static_cast<size_t>(SubSeed(options.seed, 11) % kArchiveDistinct),
        static_cast<size_t>(SubSeed(options.seed, 12) % kArchiveDistinct)}) {
    const CodedBroadcast& b = state->broadcasts[pick];
    AnalysisRecord rec;
    auto delta = AnalyzeBroadcast(b, nullptr, -1, 0, &rec);
    if (!delta.ok()) {
      Fail("serial re-index: " + delta.status().ToString());
      return false;
    }
    auto fresh = core::MetaIndex::Create();
    if (!fresh.ok() || !fresh->AddVideo(delta->video).ok()) {
      Fail("serial re-index: meta-index load failed");
      return false;
    }
    for (const char* event : kFdeEvents) {
      auto expected = fresh->FindScenes(event, b.video_oid);
      auto actual = restored.meta_index().FindScenes(event, b.video_oid);
      if (!expected.ok() || !actual.ok() || !SameScenes(*expected, *actual)) {
        Fail(std::string("serial re-index: scenes of ") + event +
             " differ for video " + std::to_string(b.video_oid));
        return false;
      }
    }
    for (const vision::SignatureRecord& r : delta->signatures) {
      const vision::SignatureRecord* found =
          restored.signatures().FindShot(r.video_id, r.begin);
      if (found == nullptr || !(found->sig == r.sig) || found->end != r.end) {
        Fail("serial re-index: signature differs for video " +
             std::to_string(r.video_id));
        return false;
      }
    }
  }
  std::printf("gate: %zu broadcasts indexed with signatures; reopen answers "
              "%zu sweep queries identically; serial re-index of 2 broadcasts "
              "matches\n",
              aired, sweep.size());
  return true;
}

// ===========================================================================
// search_mixed

constexpr int kSearchPlayers = 96;
constexpr int kSearchYears = 8;
constexpr int kSearchVideosPerYear = 60;  ///< 480 videos
constexpr size_t kSearchShards = 4;
/// Enough interview text that postings span many skip blocks.
constexpr int kInterviewsPerPlayer = 20;
/// Four closed-loop clients keep the shard workers' cores busy. With one or
/// two, each query waits for idle cores to be run again, and on a busy
/// host the runs spread about twice as much (RECORD.md).
constexpr int kSearchClients = 4;

struct SearchState {
  CorpusParts parts;
  webspace::SynthesizedSite site;
  std::vector<StreamQuery> stream;
  std::vector<std::unique_ptr<engine::DurableLibrary>> shards;
  std::unique_ptr<engine::serving::ServingFrontend> frontend;
  engine::serving::ShardRouter router;
  std::string dir;
  std::string digest;
  double open_ms = 0.0;
  double segment_bytes_per_video = 0.0;
};

void WarmUp(engine::serving::ServingFrontend* frontend,
            const std::vector<StreamQuery>& stream) {
  for (size_t i = 0; i < kWarmupQueries && i < stream.size(); ++i) {
    auto query = engine::ParseQuery(stream[i].text);
    if (query.ok()) (void)frontend->Search(*query, kTopN);
  }
}

std::unique_ptr<SearchState> SearchSetup(const RunOptions& options, int rep) {
  auto st = std::make_unique<SearchState>();
  st->site = MakeSite(options.seed, kSearchPlayers, kSearchYears,
                      kSearchVideosPerYear, kInterviewsPerPlayer);
  st->parts.store = st->site.store;
  st->parts.interviews = Interviews(st->site);
  AddSyntheticVideos(st->site.video_oids, options.seed, &st->parts);
  st->stream = MakeQueryStream(
      DomainOf(st->site, kSearchYears, SignatureProbes(st->parts)),
      options.seed, kStreamLength);
  Digest digest;
  DigestSite(st->site, &digest);
  DigestParts(st->parts, &digest);
  DigestStream(st->stream, &digest);
  st->digest = digest.Hex();

  st->dir = FreshDir(options.work_dir + "/search-" + std::to_string(rep));
  {
    auto built = engine::serving::BuildDurableShards(st->parts, kSearchShards,
                                                     st->dir);
    if (!built.ok()) {
      std::printf("BuildDurableShards: %s\n",
                  built.status().ToString().c_str());
      return nullptr;
    }
  }
  st->segment_bytes_per_video = static_cast<double>(DirBytes(st->dir)) /
                                static_cast<double>(st->parts.videos.size());
  std::vector<const engine::DigitalLibrary*> libs;
  std::vector<double> open_ms;
  for (size_t s = 0; s < kSearchShards; ++s) {
    const int64_t t0 = NowNs();
    auto opened = engine::DurableLibrary::Open(
        st->dir + "/" + StringFormat("shard-%04zu", s));
    open_ms.push_back(Ms(NowNs() - t0));
    if (!opened.ok()) {
      std::printf("Open shard %zu: %s\n", s,
                  opened.status().ToString().c_str());
      return nullptr;
    }
    st->shards.push_back(opened.TakeValue());
    libs.push_back(&st->shards.back()->library());
  }
  st->open_ms = Mean(open_ms);
  st->router = engine::serving::ShardRouter(st->parts.videos, kSearchShards);
  auto frontend = engine::serving::ServingFrontend::Create(libs, {});
  if (!frontend.ok()) return nullptr;
  st->frontend = frontend.TakeValue();
  WarmUp(st->frontend.get(), st->stream);
  return st;
}

/// kSearchClients closed-loop clients for `seconds`; every kGateStride-th
/// answer is appended to `sampled` for the gate. `tracer` (null: untraced)
/// records in the odd slices.
Timed SearchPhase(SearchState* st, double seconds, std::atomic<size_t>* next,
                  Tracer* tracer, SampledAnswers* sampled) {
  Timed t;
  const double cpu0 = ProcessCpuSeconds();
  const int64_t begin = NowNs();
  const int64_t deadline = begin + static_cast<int64_t>(seconds * 1e9);
  const TraceSlices slices(tracer, begin, kSliceNs);
  const std::function<bool()> keep_going = [deadline] {
    return NowNs() < deadline;
  };
  std::vector<ClientLog> logs(kSearchClients);
  {
    std::vector<std::thread> clients;
    for (ClientLog& log : logs) {
      clients.emplace_back(RunClient, st->frontend.get(), std::cref(st->stream),
                           next, std::cref(keep_going), std::cref(slices),
                           &log);
    }
    for (std::thread& c : clients) c.join();
  }
  const int64_t end = NowNs();
  t.wall_s = static_cast<double>(end - begin) / 1e9;
  t.cpu_s = ProcessCpuSeconds() - cpu0;
  t.peak_rss_mb = PeakRssMb();
  t.traced_windows = slices.TracedWindows(end);
  for (ClientLog& log : logs) {
    MergeClient(log, &t);
    for (auto& answer : log.sampled) sampled->push_back(std::move(answer));
  }
  return t;
}

// ===========================================================================
// live_ingest_search

constexpr int kLivePlayers = 96;
constexpr int kLiveYears = 8;
/// Videos the deployment starts with (generated descriptions).
constexpr size_t kLiveSeedVideos = 120;
/// Live broadcasts re-air this many distinct coded broadcasts, which keeps
/// set-up near the archive's however long the run is.
constexpr size_t kLiveDistinctBroadcasts = 16;
constexpr size_t kLiveShards = 2;
constexpr int kLivePoolThreads = 2;
/// Broadcast arrivals per second: about half of what the 2-thread pipeline
/// ingests on this benchmark's reference machine (RECORD.md).
constexpr double kLivePacePerSecond = 3.5;

struct LiveState {
  webspace::SynthesizedSite site;
  CorpusParts seed_parts;
  std::vector<CodedBroadcast> broadcasts;
  std::vector<StreamQuery> stream;
  std::unique_ptr<engine::ingest::ShardedIngestSink> sink;
  std::string digest;
};

Result<std::unique_ptr<engine::ingest::ShardedIngestSink>> MakeLiveSink(
    const CorpusParts& seed_parts) {
  engine::ingest::ShardedIngestSink::Options sink_options;
  sink_options.num_shards = kLiveShards;
  return engine::ingest::ShardedIngestSink::Create(seed_parts, sink_options);
}

std::unique_ptr<LiveState> LiveSetup(const RunOptions& options,
                                     size_t live_count) {
  auto st = std::make_unique<LiveState>();
  const int per_year = static_cast<int>(
      (kLiveSeedVideos + live_count + kLiveYears - 1) / kLiveYears);
  st->site = MakeSite(options.seed, kLivePlayers, kLiveYears, per_year,
                      kInterviewsPerPlayer);
  const std::vector<int64_t>& oids = st->site.video_oids;
  const auto split =
      oids.begin() + static_cast<std::ptrdiff_t>(oids.size() - live_count);
  st->seed_parts.store = st->site.store;
  st->seed_parts.interviews = Interviews(st->site);
  AddSyntheticVideos({oids.begin(), split}, options.seed, &st->seed_parts);
  const std::vector<int64_t> live_oids(split, oids.end());
  const size_t distinct_count =
      std::min(kLiveDistinctBroadcasts, live_oids.size());
  auto distinct = MakeCodedBroadcasts(
      st->site,
      {live_oids.begin(),
       live_oids.begin() + static_cast<std::ptrdiff_t>(distinct_count)},
      options.seed, kGenThreads);
  if (!distinct.ok()) {
    std::printf("broadcasts: %s\n", distinct.status().ToString().c_str());
    return nullptr;
  }
  st->broadcasts = RepeatBroadcasts(*distinct, live_oids);
  st->stream = MakeQueryStream(
      DomainOf(st->site, kLiveYears, SignatureProbes(st->seed_parts)),
      options.seed, kStreamLength);
  Digest digest;
  DigestSite(st->site, &digest);
  DigestParts(st->seed_parts, &digest);
  DigestBroadcasts(st->broadcasts, &digest);
  DigestStream(st->stream, &digest);
  st->digest = digest.Hex();
  auto sink = MakeLiveSink(st->seed_parts);
  if (!sink.ok()) {
    std::printf("sink: %s\n", sink.status().ToString().c_str());
    return nullptr;
  }
  st->sink = sink.TakeValue();
  WarmUp(&st->sink->frontend(), st->stream);
  return st;
}

struct LiveLayers {
  std::vector<AnalysisRecord> records;
  std::vector<double> queue_wait_ms, window_block_ms, pacer_lag_ms;
  double records_per_sweep = 0.0;
  int64_t publishes = 0;
};

/// Broadcasts arrive on a fixed schedule (open loop) through a 2-thread
/// pipeline while one closed-loop client queries the live frontend. Ops are
/// queries, and the CPU counted is the query side's; freshness is per
/// broadcast. The phase lasts `seconds` or until the last broadcast is
/// published, whichever is later. `tracer` (null: untraced) records in the
/// odd slices.
Result<Timed> LivePhase(LiveState* st, double seconds,
                        std::atomic<size_t>* next, Tracer* tracer,
                        LiveLayers* layers,
                        std::unique_ptr<TimingSink>* sink_out) {
  // The query side's threads: the client (this thread) and the frontend's
  // workers, which exist before the phase starts its ingest threads.
  const std::vector<int> query_threads = ThreadIds();
  const size_t n = st->broadcasts.size();
  util::ThreadPool pool(kLivePoolThreads);
  std::vector<AnalysisRecord> records(n);
  std::vector<int64_t> due(n, 0), admit(n, 0);
  Status ingest_status;
  std::atomic<bool> ingest_done{false};
  Timed t;
  const double cpu0 = ThreadsCpuSeconds(query_threads);
  const int64_t publishes0 = st->sink->publishes();
  const int64_t t0 = NowNs();
  const int64_t deadline = t0 + static_cast<int64_t>(seconds * 1e9);
  const TraceSlices slices(tracer, t0, kSliceNs);
  auto sink = std::make_unique<TimingSink>(st->sink.get(), slices);
  CorpusIngestPipeline::Stats pipeline_stats;
  std::thread pacer([&] {
    CorpusIngestPipeline::Options pipeline_options;
    pipeline_options.pool = &pool;
    CorpusIngestPipeline pipeline(sink.get(), pipeline_options);
    for (size_t i = 0; i < n && ingest_status.ok(); ++i) {
      due[i] = t0 + static_cast<int64_t>(static_cast<double>(i) * 1e9 /
                                         kLivePacePerSecond);
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(due[i])));
      const int64_t submit = NowNs();
      layers->pacer_lag_ms.push_back(Ms(submit - due[i]));
      const int64_t op = static_cast<int64_t>(i);
      Tracer* op_tracer = slices.At(submit);
      records[i].slice = slices.Slice(submit);
      Span span(op_tracer, "ingest.submit", op);
      ingest_status = pipeline.SubmitVideo(AnalysisTask(
          &st->broadcasts[i], op_tracer, op, span.id(), &records[i]));
      admit[i] = NowNs();
      layers->window_block_ms.push_back(Ms(admit[i] - submit));
    }
    Status finish = pipeline.Finish();
    if (ingest_status.ok()) ingest_status = finish;
    pipeline_stats = pipeline.stats();
    ingest_done.store(true);
  });
  ClientLog log;
  const std::function<bool()> keep_going = [&] {
    return NowNs() < deadline || !ingest_done.load();
  };
  RunClient(&st->sink->frontend(), st->stream, next, keep_going, slices,
            &log);
  pacer.join();
  const int64_t end = NowNs();
  t.wall_s = static_cast<double>(end - t0) / 1e9;
  t.cpu_s = ThreadsCpuSeconds(query_threads) - cpu0;
  t.peak_rss_mb = PeakRssMb();
  t.traced_windows = slices.TracedWindows(end);
  COBRA_RETURN_NOT_OK(ingest_status);
  // The sampled answers raced ingest, so no fixed oracle exists for them;
  // LiveGate checks the quiesced deployment instead.
  MergeClient(log, &t);
  for (size_t i = 0; i < n; ++i) {
    auto it = sink->visible_ns().find(st->broadcasts[i].video_oid);
    if (it == sink->visible_ns().end()) {
      return Status::Internal("broadcast never published");
    }
    t.freshness_ms.push_back(Ms(it->second - due[i]));
    layers->queue_wait_ms.push_back(
        Ms(std::max<int64_t>(0, records[i].start_ns - admit[i])));
    layers->records.push_back(records[i]);
  }
  t.untraced_work = UntracedAnalyses(records, n);
  layers->records_per_sweep =
      Share(pipeline_stats.committed, pipeline_stats.sweeps);
  layers->publishes = st->sink->publishes() - publishes0;
  *sink_out = std::move(sink);
  return t;
}

bool LiveGate(LiveState* st, const std::vector<IngestDelta>& committed,
              const std::vector<StreamQuery>& stream) {
  if (committed.size() != st->broadcasts.size()) {
    Fail("not every broadcast was committed");
    return false;
  }
  CorpusParts parts = st->seed_parts;
  for (const IngestDelta& v : committed) {
    parts.videos.push_back(v.video);
    parts.signatures.emplace_back(v.video.video_id(), v.signatures);
  }
  auto oracle = engine::serving::BuildLibrary(parts);
  if (!oracle.ok()) {
    Fail("oracle build: " + oracle.status().ToString());
    return false;
  }
  PrintProbeProperties(stream, **oracle);
  SampledAnswers answers;
  for (size_t i = 0; i < stream.size() && answers.size() < 400; i += 37) {
    auto query = engine::ParseQuery(stream[i].text);
    answers.emplace_back(i, query.ok()
                                ? st->sink->frontend().Search(*query, kTopN)
                                : HitsResult(query.status()));
  }
  return GateSampledAnswers(stream, answers, **oracle);
}

size_t LiveCount(double seconds) {
  return static_cast<size_t>(
      std::max(4.0, std::floor(seconds * kLivePacePerSecond)));
}

/// The first `count` broadcasts (the media replay sample).
std::vector<CodedBroadcast> Sample(const std::vector<CodedBroadcast>& all,
                                   size_t count) {
  const auto end = static_cast<std::ptrdiff_t>(std::min(count, all.size()));
  return {all.begin(), all.begin() + end};
}

/// The timed part of a query stream (after the warm-up queries).
std::vector<StreamQuery> AfterWarmUp(const std::vector<StreamQuery>& stream) {
  return {stream.begin() + static_cast<std::ptrdiff_t>(kWarmupQueries),
          stream.end()};
}

}  // namespace

// ===========================================================================
// Entry points.

const std::vector<std::pair<std::string, std::string>>& EndToEndMetricUnits() {
  static const std::vector<std::pair<std::string, std::string>> kUnits = {
      {"setup_s", "s"},         {"ops_per_s", "1/s"},
      {"latency_p50_ms", "ms"}, {"latency_p90_ms", "ms"},
      {"cpu_ms_per_op", "ms"},  {"peak_rss_mb", "MB"},
  };
  return kUnits;
}

const std::vector<std::pair<std::string, std::string>>& LayerMetricUnits() {
  static const std::vector<std::pair<std::string, std::string>> kUnits = {
      {"media.decode_ms_per_frame", "ms"},
      {"media.deserialize_ms", "ms"},
      {"detectors.segment_ms", "ms"},
      {"detectors.player_ms", "ms"},
      {"detectors.events_ms", "ms"},
      {"grammar.fde_ms", "ms"},
      {"grammar.sched_overhead_ms", "ms"},
      {"vision.signature_ms", "ms"},
      {"vision.frame_cache_hit_share", "1"},
      {"ingest.queue_wait_ms", "ms"},
      {"ingest.window_block_ms", "ms"},
      {"ingest.commit_ms", "ms"},
      {"ingest.barrier_ms", "ms"},
      {"ingest.records_per_sweep", "count"},
      {"ingest.publish_ms", "ms"},
      {"ingest.freshness_p50_ms", "ms"},
      {"segment.wal_syncs", "count"},
      {"segment.records_per_sync", "count"},
      {"segment.flush_ms", "ms"},
      {"segment.bytes_per_op", "B"},
      {"segment.open_ms", "ms"},
      {"query_language.parse_us", "us"},
      {"serving.p50_ms.concept", "ms"},
      {"serving.p50_ms.text", "ms"},
      {"serving.p50_ms.event", "ms"},
      {"serving.p50_ms.similar", "ms"},
      {"serving.shards_searched_per_query", "count"},
      {"serving.bound_pruned_share", "1"},
      {"serving.single_shard_share", "1"},
      {"serving.seed_cache_hit_share", "1"},
      {"serving.similar_probes_skipped_per_query", "count"},
      {"serving.shed", "count"},
      {"planner.short_circuit_share", "1"},
      {"planner.text_first_share", "1"},
      {"planner.rows_est_over_actual", "1"},
      {"text.stage_ms", "ms"},
      {"text.postings_per_query", "count"},
      {"text.blocks_skipped_share", "1"},
      {"similarity.search_ms", "ms"},
      {"similarity.probes_per_query", "count"},
      {"similarity.candidates_per_query", "count"},
      {"similarity.fallback_share", "1"},
      {"storage.find_scenes_ms", "ms"},
      {"storage.scenes_per_query", "count"},
      {"trace.unattributed_share", "1"},
      {"trace.overhead_share", "1"},
      {"live.pacer_lag_ms", "ms"},
  };
  return kUnits;
}

RunOutcome RunArchiveIngest(const RunOptions& options) {
  RunOutcome out;
  double setup_s = 0.0;
  const size_t airings = ArchiveAirings(options.seconds);
  const int per_year =
      static_cast<int>((airings + kArchiveYears - 1) / kArchiveYears);
  auto make = [&](int rep) -> std::unique_ptr<ArchiveState> {
    auto st = std::make_unique<ArchiveState>();
    st->site = MakeSite(options.seed, kArchivePlayers, kArchiveYears, per_year);
    st->interviews = Interviews(st->site);
    const std::vector<int64_t>& oids = st->site.video_oids;
    auto distinct = MakeCodedBroadcasts(
        st->site,
        {oids.begin(), oids.begin() + static_cast<std::ptrdiff_t>(
                                          kArchiveDistinct)},
        options.seed, kGenThreads);
    if (!distinct.ok()) {
      std::printf("broadcasts: %s\n", distinct.status().ToString().c_str());
      return nullptr;
    }
    st->broadcasts = RepeatBroadcasts(*distinct, oids);
    Digest digest;
    DigestSite(st->site, &digest);
    DigestBroadcasts(st->broadcasts, &digest);
    st->digest = digest.Hex();
    st->dir = FreshDir(options.work_dir + "/archive-" + std::to_string(rep));
    auto library = engine::DurableLibrary::Create(st->dir, st->site.store);
    if (!library.ok()) {
      std::printf("create: %s\n", library.status().ToString().c_str());
      return nullptr;
    }
    st->library = library.TakeValue();
    return st;
  };
  auto state = RepeatSetup<ArchiveState>(options.trace ? 1 : kSetupReps, make,
                                         &setup_s, &out.correct);
  if (state == nullptr) {
    out.correct = false;
    return out;
  }
  PrintBroadcastProperties(
      {state->broadcasts.begin(),
       state->broadcasts.begin() +
           static_cast<std::ptrdiff_t>(kArchiveDistinct)});

  Tracer tracer(true);
  ArchiveLayers layers;
  auto timed = ArchivePhase(state.get(), options,
                            options.trace ? &tracer : nullptr, &layers);
  if (!timed.ok()) {
    Fail("ingest: " + timed.status().ToString());
    out.correct = false;
    return out;
  }
  out.attempted = timed->attempted;
  out.failed = timed->failed;
  std::printf("archive: %lld broadcasts (re-airing %zu distinct) in %.3f s "
              "timed\n",
              static_cast<long long>(timed->ops), kArchiveDistinct,
              timed->wall_s);
  if (options.trace) {
    const std::vector<SpanRecord> spans = tracer.Collect();
    auto& l = out.layers;
    IngestLayers(layers.records, SummarizeSpans(spans), layers.queue_wait_ms,
                 layers.window_block_ms, layers.commit_ms, layers.barrier_ms,
                 layers.records_per_sweep, &l);
    // An archive broadcast is fresh once durable: freshness is its latency.
    l["ingest.freshness_p50_ms"] = Percentile(timed->latency_ms, 0.5);
    l["segment.wal_syncs"] = layers.wal_syncs;
    l["segment.records_per_sync"] = layers.records_per_sync;
    l["segment.flush_ms"] = layers.flush_ms;
    l["segment.bytes_per_op"] = layers.bytes_per_op;
    TraceValidity(*timed, spans, 1 + kArchivePoolThreads, &l);
    ReplayMedia(Sample(state->broadcasts, 4), &l);
    WriteSpans(spans, options.trace_path);
  }
  const bool gate =
      ArchiveGate(state.get(), options, static_cast<size_t>(timed->ops),
                  layers.videos, &out.layers);
  out.correct = out.correct && gate;
  if (!options.trace && !EndToEnd(setup_s, *timed, &out.end_to_end)) {
    out.correct = false;
  }
  return out;
}

RunOutcome RunSearchMixed(const RunOptions& options) {
  RunOutcome out;
  double setup_s = 0.0;
  auto state = RepeatSetup<SearchState>(
      options.trace ? 1 : kSetupReps,
      [&](int rep) { return SearchSetup(options, rep); }, &setup_s,
      &out.correct);
  if (state == nullptr) {
    out.correct = false;
    return out;
  }
  std::printf("corpus: %zu videos, %zu interviews, %zu shots signed, "
              "%zu shards\n",
              state->parts.videos.size(), state->parts.interviews.size(),
              SignatureProbes(state->parts).size(), kSearchShards);

  std::atomic<size_t> next{kWarmupQueries};
  SampledAnswers sampled;
  Tracer tracer(true);
  const auto before = state->frontend->stats();
  const Timed timed =
      SearchPhase(state.get(), options.seconds, &next,
                  options.trace ? &tracer : nullptr, &sampled);
  const auto after = state->frontend->stats();
  out.attempted = timed.attempted;
  out.failed = timed.failed;
  if (options.trace) {
    const std::vector<SpanRecord> spans = tracer.Collect();
    auto& l = out.layers;
    ServingLayers(before, after, kSearchShards, SummarizeSpans(spans), &l);
    std::vector<const engine::DigitalLibrary*> libs;
    for (const auto& shard : state->shards) libs.push_back(&shard->library());
    ReplayQueryLayers(AfterWarmUp(state->stream), libs, state->router, &l);
    l["segment.open_ms"] = state->open_ms;
    l["segment.bytes_per_op"] = state->segment_bytes_per_video;
    TraceValidity(timed, spans, kSearchClients, &l);
    WriteSpans(spans, options.trace_path);
  }
  PrintStreamProperties(state->stream, next.load() - kWarmupQueries);
  auto oracle = engine::serving::BuildLibrary(state->parts);
  if (!oracle.ok()) {
    Fail("oracle build: " + oracle.status().ToString());
    out.correct = false;
    return out;
  }
  PrintProbeProperties(state->stream, **oracle);
  out.correct =
      out.correct && GateSampledAnswers(state->stream, sampled, **oracle);
  if (!options.trace && !EndToEnd(setup_s, timed, &out.end_to_end)) {
    out.correct = false;
  }
  return out;
}

RunOutcome RunLiveIngestSearch(const RunOptions& options) {
  RunOutcome out;
  double setup_s = 0.0;
  const size_t live_count = LiveCount(options.seconds);
  auto state = RepeatSetup<LiveState>(
      options.trace ? 1 : kSetupReps,
      [&](int) { return LiveSetup(options, live_count); }, &setup_s,
      &out.correct);
  if (state == nullptr) {
    out.correct = false;
    return out;
  }
  PrintBroadcastProperties(state->broadcasts);
  std::printf("live: %zu seed videos on %zu shards; %zu broadcasts (re-airing "
              "%zu distinct) arrive at %.2f/s\n",
              state->seed_parts.videos.size(), kLiveShards,
              state->broadcasts.size(),
              std::min(kLiveDistinctBroadcasts, state->broadcasts.size()),
              kLivePacePerSecond);

  std::atomic<size_t> next{kWarmupQueries};
  Tracer tracer(true);
  LiveLayers layers;
  std::unique_ptr<TimingSink> sink;
  const auto before = state->sink->frontend().stats();
  auto timed = LivePhase(state.get(), options.seconds, &next,
                         options.trace ? &tracer : nullptr, &layers, &sink);
  if (!timed.ok()) {
    Fail("live ingest: " + timed.status().ToString());
    out.correct = false;
    return out;
  }
  const auto after = state->sink->frontend().stats();
  out.attempted = timed->attempted;
  out.failed = timed->failed;
  std::printf("freshness_p50_ms: %.4f over %zu broadcasts; %lld publishes; "
              "pacer lag p50 %.3f ms\n",
              Percentile(timed->freshness_ms, 0.5),
              timed->freshness_ms.size(),
              static_cast<long long>(layers.publishes),
              Percentile(layers.pacer_lag_ms, 0.5));
  if (options.trace) {
    const std::vector<SpanRecord> spans = tracer.Collect();
    const auto summary = SummarizeSpans(spans);
    auto& l = out.layers;
    IngestLayers(layers.records, summary, layers.queue_wait_ms,
                 layers.window_block_ms, sink->commit_ms(), sink->barrier_ms(),
                 layers.records_per_sweep, &l);
    l["ingest.publish_ms"] = Mean(sink->barrier_ms());
    l["ingest.freshness_p50_ms"] = Percentile(timed->freshness_ms, 0.5);
    l["live.pacer_lag_ms"] = Percentile(layers.pacer_lag_ms, 0.5);
    ServingLayers(before, after, kLiveShards, summary, &l);
    std::vector<const engine::DigitalLibrary*> libs;
    for (size_t s = 0; s < kLiveShards; ++s) {
      libs.push_back(&state->sink->shard_library(s));
    }
    ReplayQueryLayers(AfterWarmUp(state->stream), libs, state->sink->router(),
                      &l);
    ReplayMedia(Sample(state->broadcasts, 4), &l);
    TraceValidity(*timed, spans, 2 + kLivePoolThreads, &l);
    WriteSpans(spans, options.trace_path);
  }
  PrintStreamProperties(state->stream, next.load() - kWarmupQueries);
  out.correct =
      out.correct && LiveGate(state.get(), sink->videos(), state->stream);
  if (!options.trace && !EndToEnd(setup_s, *timed, &out.end_to_end)) {
    out.correct = false;
  }
  return out;
}

}  // namespace cobra::perfbench
