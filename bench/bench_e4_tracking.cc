/// \file bench_e4_tracking.cc
/// E4 — player segmentation & tracking quality (paper §3 "tennis
/// detector"): mean center error against scripted ground truth, track
/// continuity (fraction of frames backed by an observed region), and the
/// search-window ablation from DESIGN.md §5 (larger predictive windows cost
/// more per frame but survive faster rallies).

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstring>
#include <string>

#include "bench_util.h"
#include "detectors/player_tracker.h"
#include "util/stats.h"
#include "vision/kernels.h"
#include "vision/mask.h"

namespace {

using namespace cobra;  // NOLINT

/// The seed's per-pixel k-sigma match, reproduced inline: means and
/// variances recomputed from the model sums for every pixel, plus a sqrt
/// per channel. The kernel layer hoists all of it into a ColorBox once.
bool LegacyMatches(const vision::GaussianColorModel& m, const media::Rgb& p,
                   double k) {
  const double means[3] = {m.mean_r(), m.mean_g(), m.mean_b()};
  const double vars[3] = {m.var_r(), m.var_g(), m.var_b()};
  const double ch[3] = {static_cast<double>(p.r), static_cast<double>(p.g),
                        static_cast<double>(p.b)};
  for (int i = 0; i < 3; ++i) {
    if (std::fabs(ch[i] - means[i]) > k * std::sqrt(vars[i])) return false;
  }
  return true;
}

/// One court shot, no cutaways: the input of the per-frame cost
/// measurements below.
const media::Broadcast& SingleShotBroadcast() {
  static const media::Broadcast* broadcast = [] {
    auto config = bench::DefaultBroadcast();
    config.num_points = 1;
    config.include_cutaways = false;
    return new media::Broadcast(
        media::TennisBroadcastSynthesizer(config).Synthesize().TakeValue());
  }();
  return *broadcast;
}

/// Foreground-mask pixel-kernel throughput (DESIGN.md §4d): the seed's
/// FromPredicate + per-pixel double Matches vs FromOutsideColorBoxes with
/// the kernel scalar tier vs the dispatched SIMD tier, single-thread p50.
void PrintForegroundKernelThroughput() {
  bench::PrintHeader("E4", "foreground-mask pixel-kernel throughput (1 thread)");
  media::Frame frame = SingleShotBroadcast().video->GetFrame(0).TakeValue();
  auto court = detectors::EstimateCourtModel(frame).TakeValue();
  const RectI roi{0, 0, frame.width(), frame.height()};
  const int64_t pixels = frame.PixelCount();
  constexpr double kK = 3.0;  // PlayerTrackerConfig::foreground_k default
  constexpr int kPasses = 16;
  constexpr int kReps = 9;
  std::printf("%dx%d frame, 3 background models, p50 of %d reps x %d frames\n",
              frame.width(), frame.height(), kReps, kPasses);

  const double legacy = bench::MedianMpixPerSec(pixels * kPasses, kReps, [&] {
    for (int pass = 0; pass < kPasses; ++pass) {
      vision::BinaryMask mask = vision::BinaryMask::FromPredicate(
          frame, roi, [&](const media::Rgb& p) {
            return !LegacyMatches(court.court_color, p, kK) &&
                   !LegacyMatches(court.surround_color, p, kK) &&
                   !(p.r > 185 && p.g > 185 && p.b > 185);
          });
      benchmark::DoNotOptimize(mask);
    }
  });

  const vision::kernels::ColorBox boxes[3] = {
      court.court_color.MatchBox(kK), court.surround_color.MatchBox(kK),
      vision::kernels::ColorBox{{186, 186, 186}, {255, 255, 255}}};
  auto kernel_rate = [&](vision::kernels::SimdLevel level) {
    const auto previous = vision::kernels::SetActiveLevel(level);
    const double rate = bench::MedianMpixPerSec(pixels * kPasses, kReps, [&] {
      for (int pass = 0; pass < kPasses; ++pass) {
        vision::BinaryMask mask =
            vision::BinaryMask::FromOutsideColorBoxes(frame, roi, boxes, 3);
        benchmark::DoNotOptimize(mask);
      }
    });
    vision::kernels::SetActiveLevel(previous);
    return rate;
  };
  const double scalar = kernel_rate(vision::kernels::SimdLevel::kScalar);
  const double simd = kernel_rate(vision::kernels::BestSupportedLevel());
  const char* simd_name =
      vision::kernels::SimdLevelName(vision::kernels::BestSupportedLevel());

  std::printf("%-22s %10.1f Mpix/s\n", "legacy FromPredicate", legacy);
  std::printf("%-22s %10.1f Mpix/s\n", "kernel (scalar)", scalar);
  std::printf("kernel (%s)%*s %10.1f Mpix/s\n", simd_name,
              static_cast<int>(13 - std::strlen(simd_name)), "", simd);
  std::printf("speedup vs legacy: %.2fx\n", simd / legacy);
  bench::PrintJsonMetric("e4_tracking", "fgmask_legacy_mpixps", legacy);
  bench::PrintJsonMetric("e4_tracking", "fgmask_scalar_mpixps", scalar);
  bench::PrintJsonMetric("e4_tracking", "fgmask_simd_mpixps", simd);
  bench::PrintJsonMetric("e4_tracking", "fgmask_simd_speedup", simd / legacy);
  bench::PrintRule();
}

struct TrackQuality {
  RunningStats center_error;
  RunningStats observed_fraction;
  int shots = 0;
  int failures = 0;
};

void Evaluate(const detectors::PlayerTrackerConfig& config, uint64_t seed,
              TrackQuality* quality) {
  auto synth_config = bench::DefaultBroadcast(seed);
  auto broadcast =
      media::TennisBroadcastSynthesizer(synth_config).Synthesize().TakeValue();
  detectors::PlayerTracker tracker(config);
  for (const auto& shot : broadcast.truth.shots) {
    if (shot.category != media::ShotCategory::kTennis) continue;
    ++quality->shots;
    auto result = tracker.Track(*broadcast.video, shot.range);
    if (!result.ok()) {
      ++quality->failures;
      continue;
    }
    for (const auto& track : result->tracks) {
      quality->observed_fraction.Add(track.ObservedFraction());
      for (const auto& point : track.points) {
        if (point.predicted_only) continue;
        const auto& truth =
            broadcast.truth.players_by_frame[static_cast<size_t>(point.frame)];
        if (truth.size() != 2) continue;
        quality->center_error.Add(point.center.DistanceTo(
            truth[static_cast<size_t>(track.player_id)].center));
      }
    }
  }
}

void RunQualityTable() {
  bench::PrintHeader("E4", "player segmentation and tracking");
  std::printf("%-14s %12s %12s %10s %8s %8s\n", "search_margin", "mean_err_px",
              "max_err_px", "observed", "shots", "failures");
  for (int margin : {4, 8, 12, 20, 32}) {
    detectors::PlayerTrackerConfig config;
    config.search_margin = margin;
    TrackQuality total;
    for (uint64_t seed : {11, 22, 33}) Evaluate(config, seed, &total);
    std::printf("%-14d %12.2f %12.2f %10.3f %8d %8d\n", margin,
                total.center_error.mean(), total.center_error.max(),
                total.observed_fraction.mean(), total.shots, total.failures);
  }
  bench::PrintRule();
}

/// Per-frame tracker cost against the predictive search margin, the
/// window-size ablation of DESIGN.md §5. Segmentation touches only the
/// search window (§4d), so the cost grows with the window area.
/// Single-thread p50 over the whole shot.
void PrintTrackerCost() {
  bench::PrintHeader("E4", "player tracker cost per frame (1 thread)");
  const media::Broadcast& broadcast = SingleShotBroadcast();
  const FrameInterval shot = broadcast.truth.shots.front().range;
  constexpr int kReps = 9;
  std::printf("%dx%d, %lld-frame court shot, p50 of %d reps\n",
              broadcast.video->width(), broadcast.video->height(),
              static_cast<long long>(shot.Length()), kReps);
  std::printf("%-14s %12s\n", "search_margin", "ms/frame");
  for (int margin : {8, 12, 32}) {
    detectors::PlayerTrackerConfig config;
    config.search_margin = margin;
    detectors::PlayerTracker tracker(config);
    const double ms = bench::MedianMs(kReps, [&] {
      auto result = tracker.Track(*broadcast.video, shot);
      benchmark::DoNotOptimize(result);
    });
    const double per_frame = ms / static_cast<double>(shot.Length());
    std::printf("%-14d %12.4f\n", margin, per_frame);
    const std::string metric =
        "track_ms_per_frame_m" + std::to_string(margin);
    bench::PrintJsonMetric("e4_tracking", metric.c_str(), per_frame);
  }
  bench::PrintRule();
}

void BM_TrackShot(benchmark::State& state) {
  const media::Broadcast& broadcast = SingleShotBroadcast();
  detectors::PlayerTrackerConfig tracker_config;
  tracker_config.search_margin = static_cast<int>(state.range(0));
  detectors::PlayerTracker tracker(tracker_config);
  const FrameInterval shot = broadcast.truth.shots.front().range;
  for (auto _ : state) {
    auto result = tracker.Track(*broadcast.video, shot);
    if (!result.ok()) state.SkipWithError("tracking failed");
  }
  state.counters["frames/s"] = benchmark::Counter(
      static_cast<double>(shot.Length()) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TrackShot)->Arg(8)->Arg(12)->Arg(32)->Unit(benchmark::kMillisecond);

void BM_CourtModelEstimate(benchmark::State& state) {
  media::Frame frame = SingleShotBroadcast().video->GetFrame(0).TakeValue();
  for (auto _ : state) {
    auto model = detectors::EstimateCourtModel(frame);
    benchmark::DoNotOptimize(model);
  }
}
BENCHMARK(BM_CourtModelEstimate)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  cobra::bench::OpenJsonArtifact("BENCH_E4.json");
  RunQualityTable();
  PrintForegroundKernelThroughput();
  PrintTrackerCost();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
