/// \file bench_e9_compressed_domain.cc
/// E9 (extension) — compressed-domain vs pixel-domain shot detection.
/// The demo's raw layer is MPEG video; an encoder's macroblock statistics
/// (intra-coded ratio) give shot boundaries for free, without decoding
/// pixels or computing histograms. The table compares detection quality and
/// cost, plus the codec's rate/distortion behaviour and its decode cost.

#include <benchmark/benchmark.h>

#include <chrono>

#include "bench_util.h"
#include "detectors/compressed_shot_boundary.h"
#include "detectors/shot_boundary.h"
#include "media/block_codec.h"
#include "util/simd.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace {

using namespace cobra;  // NOLINT

void RunComparison() {
  bench::PrintHeader("E9", "compressed-domain vs pixel-domain shot detection");
  std::printf("%-8s %-22s %8s %8s %8s %12s\n", "noise", "method", "P", "R",
              "F1", "ms");
  for (double noise : {0.0, 4.0, 8.0}) {
    auto broadcast = media::TennisBroadcastSynthesizer(
                         bench::DefaultBroadcast(42, noise))
                         .Synthesize()
                         .TakeValue();
    auto cuts = broadcast.truth.CutPositions();
    auto encoded =
        media::BlockVideoEncoder::Encode(*broadcast.video).TakeValue();

    // Pixel domain: decode + histogram differencing.
    media::CodedVideoSource decoded(encoded);
    detectors::ShotBoundaryDetector pixel_detector;
    auto t0 = std::chrono::steady_clock::now();
    auto pixel = pixel_detector.Detect(decoded).TakeValue();
    auto t1 = std::chrono::steady_clock::now();
    double pixel_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    PrecisionRecall pixel_pr = MatchWithTolerance(cuts, pixel.boundaries, 2);

    // Compressed domain: threshold the encoder statistics.
    detectors::CompressedShotBoundaryDetector compressed_detector;
    t0 = std::chrono::steady_clock::now();
    auto compressed = compressed_detector.Detect(encoded);
    t1 = std::chrono::steady_clock::now();
    double compressed_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    PrecisionRecall compressed_pr = MatchWithTolerance(cuts, compressed, 2);

    std::printf("%-8.0f %-22s %8.3f %8.3f %8.3f %12.3f\n", noise,
                "pixel (decode+hist)", pixel_pr.Precision(), pixel_pr.Recall(),
                pixel_pr.F1(), pixel_ms);
    std::printf("%-8.0f %-22s %8.3f %8.3f %8.3f %12.3f\n", noise,
                "compressed (MB stats)", compressed_pr.Precision(),
                compressed_pr.Recall(), compressed_pr.F1(), compressed_ms);
  }

  // --- rate / distortion of the codec itself ---
  std::printf("\ncodec rate/distortion (%d frames):\n",
              static_cast<int>(bench::DefaultBroadcast().num_points));
  std::printf("%-10s %14s %12s %12s\n", "quality", "bytes/frame", "ratio",
              "mean PSNR");
  auto broadcast =
      media::TennisBroadcastSynthesizer(bench::DefaultBroadcast()).Synthesize()
          .TakeValue();
  for (int quality : {30, 50, 75, 90}) {
    media::CodecConfig config;
    config.quality = quality;
    auto encoded =
        media::BlockVideoEncoder::Encode(*broadcast.video, config).TakeValue();
    double ratio = encoded.CompressionRatio();
    double bytes_per_frame = static_cast<double>(encoded.TotalBytes()) /
                             static_cast<double>(encoded.num_frames());
    media::CodedVideoSource decoded(std::move(encoded));
    RunningStats psnr;
    for (int64_t f = 0; f < decoded.num_frames(); f += 25) {
      psnr.Add(media::ComputePsnr(broadcast.video->GetFrame(f).TakeValue(),
                                  decoded.GetFrame(f).TakeValue())
                   .TakeValue());
    }
    std::printf("%-10d %14.0f %11.1fx %12.2f\n", quality, bytes_per_frame,
                ratio, psnr.mean());
  }
  bench::PrintRule();
}

/// GOP-parallel full decode: every I-frame is a random-access point, so
/// independent GOPs decode concurrently on a thread pool. Frames are
/// bit-identical to the sequential scan (the tier-1 property tests assert
/// it); this table reports the wall-time side of that trade.
void RunGopParallelDecode() {
  bench::PrintHeader("E9", "GOP-parallel decode (DecodeAll)");
  auto broadcast =
      media::TennisBroadcastSynthesizer(bench::DefaultBroadcast()).Synthesize()
          .TakeValue();
  auto encoded = media::BlockVideoEncoder::Encode(*broadcast.video).TakeValue();
  media::CodedVideoSource source(std::move(encoded));
  std::printf("%lld frames, %lld GOPs, active SIMD tier: %s\n",
              static_cast<long long>(source.num_frames()),
              static_cast<long long>(source.encoded().NumGops()),
              util::simd::SimdLevelName(util::simd::CpuBestLevel()));
  std::printf("%-24s %12s\n", "configuration", "wall ms");

  util::simd::SetForcedLevel(0);  // the scalar tier of every decode kernel
  source.DecodeAll().TakeValue();  // warm-up
  bench::WallTimer scalar_timer;
  source.DecodeAll().TakeValue();
  double scalar_ms = scalar_timer.Millis();
  util::simd::SetForcedLevel(-1);
  std::printf("%-24s %12.1f\n", "sequential, scalar tier", scalar_ms);
  bench::PrintJsonMetric("e9_compressed_domain",
                         "decode_all_wall_ms_seq_scalar", scalar_ms);

  source.DecodeAll().TakeValue();  // warm-up
  bench::WallTimer timer;
  source.DecodeAll().TakeValue();
  double seq_ms = timer.Millis();
  std::printf("%-24s %12.1f\n", "sequential", seq_ms);
  bench::PrintJsonMetric("e9_compressed_domain", "decode_all_wall_ms_seq",
                         seq_ms);
  bench::PrintJsonMetric("e9_compressed_domain", "decode_simd_speedup",
                         scalar_ms / seq_ms);

  util::ThreadPool pool(4);
  source.DecodeAll(&pool).TakeValue();  // warm-up
  timer = bench::WallTimer();
  source.DecodeAll(&pool).TakeValue();
  double par_ms = timer.Millis();
  std::printf("%-24s %12.1f\n", "gop-parallel, 4 threads", par_ms);
  bench::PrintJsonMetric("e9_compressed_domain", "decode_all_wall_ms_4t",
                         par_ms);

  double speedup = seq_ms / par_ms;
  std::printf("speedup: %.2fx\n", speedup);
  bench::PrintJsonMetric("e9_compressed_domain", "decode_all_speedup_4t",
                         speedup);
  bench::PrintRule();
}

/// Sequential full decode of the end-to-end benchmark's archive broadcast
/// shape (128x96, three points with cutaways, +-3 pel motion search) at the
/// best SIMD tier: the decode cost every coded broadcast pays before any
/// detector runs, in ms per frame.
void RunArchiveShapeDecode() {
  bench::PrintHeader("E9", "decode cost per frame, archive broadcast shape");
  media::TennisSynthConfig config;
  config.width = 128;
  config.height = 96;
  config.num_points = 3;
  config.min_court_frames = 120;
  config.max_court_frames = 140;
  config.min_cutaway_frames = 28;
  config.max_cutaway_frames = 36;
  config.net_approach_prob = 0.7;
  config.seed = 9101;
  auto broadcast =
      media::TennisBroadcastSynthesizer(config).Synthesize().TakeValue();
  media::CodecConfig codec;
  codec.motion_search_range = 3;
  auto encoded =
      media::BlockVideoEncoder::Encode(*broadcast.video, codec).TakeValue();
  media::CodedVideoSource source(std::move(encoded));
  const double frames = static_cast<double>(source.num_frames());
  source.DecodeAll().TakeValue();  // warm-up
  const double ms =
      bench::MedianMs(15, [&] { source.DecodeAll().TakeValue(); });
  std::printf("%.0f frames, median of 15 sequential DecodeAll: %.1f ms, "
              "%.4f ms/frame\n",
              frames, ms, ms / frames);
  bench::PrintJsonMetric("e9_compressed_domain", "decode_ms_per_frame",
                         ms / frames);
  bench::PrintRule();
}

void BM_Encode(benchmark::State& state) {
  auto config = bench::DefaultBroadcast();
  config.num_points = 1;
  config.include_cutaways = false;
  auto broadcast =
      media::TennisBroadcastSynthesizer(config).Synthesize().TakeValue();
  for (auto _ : state) {
    auto encoded = media::BlockVideoEncoder::Encode(*broadcast.video);
    benchmark::DoNotOptimize(encoded);
  }
  state.counters["frames/s"] = benchmark::Counter(
      static_cast<double>(broadcast.video->num_frames()) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Encode)->Unit(benchmark::kMillisecond);

void BM_DecodeSequential(benchmark::State& state) {
  auto config = bench::DefaultBroadcast();
  config.num_points = 1;
  config.include_cutaways = false;
  auto broadcast =
      media::TennisBroadcastSynthesizer(config).Synthesize().TakeValue();
  auto encoded = media::BlockVideoEncoder::Encode(*broadcast.video).TakeValue();
  media::CodedVideoSource decoded(std::move(encoded));
  for (auto _ : state) {
    for (int64_t f = 0; f < decoded.num_frames(); ++f) {
      auto frame = decoded.GetFrame(f);
      benchmark::DoNotOptimize(frame);
    }
  }
  state.counters["frames/s"] = benchmark::Counter(
      static_cast<double>(decoded.num_frames()) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_DecodeSequential)->Unit(benchmark::kMillisecond);

void BM_DecodeGopParallel(benchmark::State& state) {
  auto config = bench::DefaultBroadcast();
  config.num_points = 1;
  config.include_cutaways = false;
  auto broadcast =
      media::TennisBroadcastSynthesizer(config).Synthesize().TakeValue();
  auto encoded = media::BlockVideoEncoder::Encode(*broadcast.video).TakeValue();
  media::CodedVideoSource decoded(std::move(encoded));
  util::ThreadPool pool(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto video = decoded.DecodeAll(&pool);
    if (!video.ok()) state.SkipWithError(video.status().ToString().c_str());
    benchmark::DoNotOptimize(video);
  }
  state.counters["frames/s"] = benchmark::Counter(
      static_cast<double>(decoded.num_frames()) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_DecodeGopParallel)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_CompressedDetect(benchmark::State& state) {
  auto broadcast =
      media::TennisBroadcastSynthesizer(bench::DefaultBroadcast()).Synthesize()
          .TakeValue();
  auto encoded = media::BlockVideoEncoder::Encode(*broadcast.video).TakeValue();
  detectors::CompressedShotBoundaryDetector detector;
  for (auto _ : state) {
    auto cuts = detector.Detect(encoded);
    benchmark::DoNotOptimize(cuts);
  }
}
BENCHMARK(BM_CompressedDetect)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  bench::OpenJsonArtifact("BENCH_E9.json");
  RunComparison();
  RunGopParallelDecode();
  RunArchiveShapeDecode();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
