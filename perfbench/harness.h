#pragma once

/// \file harness.h
/// Measurement helpers of the end-to-end benchmark (RECORD.md): percentiles
/// under the ten-samples-beyond rule, process and per-thread CPU and
/// peak-RSS accounting, the result line, in-memory spans with self time,
/// traced and untraced slices, input digests and the bit-exact answer
/// comparator of the correctness gates.

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include <sys/resource.h>

#include "engine/digital_library.h"
#include "util/status.h"

namespace cobra::perfbench {

// ---------------------------------------------------------------------------
// Time and process accounting.

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e9;
}

/// User + system CPU seconds of the whole process (every thread).
inline double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/// Peak resident set size of the process so far, in MB (2^20 bytes).
inline double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Ids of the process's threads (Linux /proc/self/task).
inline std::vector<int> ThreadIds() {
  std::vector<int> tids;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task", ec)) {
    tids.push_back(std::atoi(entry.path().filename().c_str()));
  }
  return tids;
}

/// CPU seconds the threads `tids` of this process have run, from the
/// nanosecond run time in /proc/self/task/<tid>/schedstat; a thread that
/// has exited counts 0.
inline double ThreadsCpuSeconds(const std::vector<int>& tids) {
  double total = 0.0;
  for (int tid : tids) {
    const std::string path =
        "/proc/self/task/" + std::to_string(tid) + "/schedstat";
    if (std::FILE* f = std::fopen(path.c_str(), "r")) {
      unsigned long long run_ns = 0;
      if (std::fscanf(f, "%llu", &run_ns) == 1) {
        total += static_cast<double>(run_ns) / 1e9;
      }
      std::fclose(f);
    }
  }
  return total;
}

// ---------------------------------------------------------------------------
// Percentiles.

/// p-th percentile (p in [0, 1]) by linear interpolation over the sorted
/// samples; 0 for an empty sample.
inline double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = p * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] * (1.0 - frac) + samples[hi] * frac;
}

/// Samples strictly above `value`.
inline size_t SamplesBeyond(const std::vector<double>& samples, double value) {
  return static_cast<size_t>(std::count_if(
      samples.begin(), samples.end(), [value](double s) { return s > value; }));
}

/// The p-th percentile when at least `min_beyond` samples lie beyond it —
/// the rule for reporting a tail percentile — and nullopt otherwise.
inline std::optional<double> SupportedPercentile(
    const std::vector<double>& samples, double p, size_t min_beyond = 10) {
  const double value = Percentile(samples, p);
  if (samples.empty() || SamplesBeyond(samples, value) < min_beyond) {
    return std::nullopt;
  }
  return value;
}

inline double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5);
}

// ---------------------------------------------------------------------------
// The result line.

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Shortest decimal text that reads back as exactly `value`.
inline std::string FormatNumber(double value) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, res.ptr);
}

/// The benchmark's last stdout line:
///   {"correct": true, "attempted": N, "failed": F,
///    "metrics": {"<name>": {"value": V, "unit": "<unit>"}, ...}}
/// Metric names and units are plain identifiers (no escaping needed);
/// non-finite values are a bug in the caller and are rejected.
inline Result<std::string> ResultJson(bool correct, int64_t attempted,
                                      int64_t failed,
                                      const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (!std::isfinite(metrics[i].value)) {
      return Status::InvalidArgument("metric " + metrics[i].name +
                                     " is not finite");
    }
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           FormatNumber(metrics[i].value) + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

// ---------------------------------------------------------------------------
// Input digests (FNV-1a, 64-bit).

class Digest {
 public:
  void Add(const void* data, size_t size) {
    const auto* bytes = static_cast<const uint8_t*>(data);
    for (size_t i = 0; i < size; ++i) {
      state_ = (state_ ^ bytes[i]) * 0x100000001b3ull;
    }
  }
  void AddU64(uint64_t value) { Add(&value, sizeof(value)); }
  void AddString(const std::string& s) {
    AddU64(s.size());
    Add(s.data(), s.size());
  }
  uint64_t value() const { return state_; }
  std::string Hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(state_));
    return buf;
  }

 private:
  uint64_t state_ = 0xcbf29ce484222325ull;
};

// ---------------------------------------------------------------------------
// The gate's comparator.

/// Empty when `actual` is bit-identical to `expected` (every field, scores
/// compared as bytes); otherwise a description of the first difference.
inline std::string CompareHits(const std::vector<engine::SceneHit>& expected,
                               const std::vector<engine::SceneHit>& actual) {
  if (expected.size() != actual.size()) {
    return "hit count " + std::to_string(actual.size()) + " != expected " +
           std::to_string(expected.size());
  }
  for (size_t i = 0; i < expected.size(); ++i) {
    const engine::SceneHit& a = expected[i];
    const engine::SceneHit& b = actual[i];
    if (a.player_oid != b.player_oid || a.player_name != b.player_name ||
        a.video_oid != b.video_oid || a.range.begin != b.range.begin ||
        a.range.end != b.range.end || a.event != b.event ||
        std::memcmp(&a.text_score, &b.text_score, sizeof(double)) != 0 ||
        std::memcmp(&a.similarity, &b.similarity, sizeof(double)) != 0) {
      return "hit " + std::to_string(i) + " differs";
    }
  }
  return "";
}

/// CompareHits over two query outcomes: a query must fail in both or in
/// neither.
inline std::string CompareAnswers(
    const Result<std::vector<engine::SceneHit>>& expected,
    const Result<std::vector<engine::SceneHit>>& actual) {
  if (expected.ok() != actual.ok()) {
    return std::string("error mismatch: expected ") +
           (expected.ok() ? "ok" : expected.status().ToString()) + ", got " +
           (actual.ok() ? "ok" : actual.status().ToString());
  }
  if (!expected.ok()) return "";
  return CompareHits(*expected, *actual);
}

/// The first `n` hits (the frontend's top-N of an oracle answer).
inline std::vector<engine::SceneHit> TopN(std::vector<engine::SceneHit> hits,
                                          size_t n) {
  if (hits.size() > n) hits.resize(n);
  return hits;
}

// ---------------------------------------------------------------------------
// Spans.

/// One recorded span: a call the benchmark made into one layer of the
/// program. `parent` is the span that caused it (0 = none); spans of one
/// operation share `op` (-1 = not tied to an operation).
struct SpanRecord {
  const char* name = "";
  int64_t begin_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;
  int64_t op = -1;
  uint32_t thread = 0;
};

/// Collects spans in per-thread in-memory buffers; nothing is written until
/// the run ends. A disabled tracer records nothing and costs one branch per
/// span. Each thread caches its buffer for the last enabled tracer it used,
/// so enabled tracers are meant to be alive one at a time.
class Tracer {
 public:
  explicit Tracer(bool enabled)
      : enabled_(enabled), generation_(NextGeneration()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }
  uint64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  void Record(const SpanRecord& span) { Local().spans.push_back(span); }
  uint32_t ThreadIndex() { return Local().index; }

  /// The span currently open on this thread (0 = none).
  uint64_t& CurrentOnThread() { return Local().current; }

  /// Every span recorded so far, across threads. Call once the recording
  /// threads are quiet.
  std::vector<SpanRecord> Collect() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<SpanRecord> all;
    for (const Buffer& buffer : buffers_) {
      all.insert(all.end(), buffer.spans.begin(), buffer.spans.end());
    }
    return all;
  }

 private:
  struct Buffer {
    uint32_t index = 0;
    uint64_t current = 0;
    std::vector<SpanRecord> spans;
  };

  static uint64_t NextGeneration() {
    static std::atomic<uint64_t> counter{1};
    return counter.fetch_add(1);
  }

  Buffer& Local() {
    thread_local uint64_t cached_generation = 0;
    thread_local Buffer* cached = nullptr;
    if (cached_generation != generation_) {
      std::lock_guard<std::mutex> lock(mu_);
      buffers_.emplace_back();
      buffers_.back().index = static_cast<uint32_t>(buffers_.size() - 1);
      cached = &buffers_.back();
      cached_generation = generation_;
    }
    return *cached;
  }

  const bool enabled_;
  const uint64_t generation_;
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::deque<Buffer> buffers_;  ///< stable addresses; one per thread
};

/// RAII span. The parent defaults to the span open on this thread; pass one
/// explicitly when the cause ran on another thread.
class Span {
 public:
  static constexpr uint64_t kThreadParent = ~uint64_t{0};

  Span(Tracer* tracer, const char* name, int64_t op = -1,
       uint64_t parent = kThreadParent)
      : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr) {
    if (tracer_ == nullptr) return;
    record_.name = name;
    record_.op = op;
    record_.id = tracer_->NewId();
    uint64_t& current = tracer_->CurrentOnThread();
    record_.parent = parent == kThreadParent ? current : parent;
    saved_current_ = current;
    current = record_.id;
    record_.begin_ns = NowNs();
  }
  ~Span() {
    if (tracer_ == nullptr) return;
    record_.end_ns = NowNs();
    record_.thread = tracer_->ThreadIndex();
    tracer_->CurrentOnThread() = saved_current_;
    tracer_->Record(record_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// 0 when tracing is off.
  uint64_t id() const { return tracer_ != nullptr ? record_.id : 0; }

 private:
  Tracer* tracer_;
  SpanRecord record_;
  uint64_t saved_current_ = 0;
};

/// Length of the union of [begin, end) intervals.
inline int64_t UnionLength(std::vector<std::pair<int64_t, int64_t>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  int64_t total = 0;
  int64_t cur_begin = 0, cur_end = 0;
  bool open = false;
  for (const auto& [begin, end] : intervals) {
    if (end <= begin) continue;
    if (!open || begin > cur_end) {
      if (open) total += cur_end - cur_begin;
      cur_begin = begin;
      cur_end = end;
      open = true;
    } else {
      cur_end = std::max(cur_end, end);
    }
  }
  if (open) total += cur_end - cur_begin;
  return total;
}

/// Self time of every span, parallel to `spans`: its duration minus the
/// part of its interval that its children cover.
inline std::vector<int64_t> SelfTimes(const std::vector<SpanRecord>& spans) {
  std::unordered_map<uint64_t, size_t> index;
  index.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<int64_t, int64_t>>> covered(spans.size());
  for (const SpanRecord& child : spans) {
    auto it = index.find(child.parent);
    if (child.parent == 0 || it == index.end()) continue;
    const SpanRecord& parent = spans[it->second];
    const int64_t begin = std::max(child.begin_ns, parent.begin_ns);
    const int64_t end = std::min(child.end_ns, parent.end_ns);
    if (end > begin) covered[it->second].emplace_back(begin, end);
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] = (spans[i].end_ns - spans[i].begin_ns) -
              UnionLength(std::move(covered[i]));
  }
  return self;
}

/// A traced phase alternates untraced and traced slices of `slice_ns`
/// (slice 0 untraced), so that tracing overhead is measured between
/// neighbouring slices rather than between phases far apart in time. Work
/// takes the tracer of the slice it starts in. Without a tracer (an
/// untraced run) every slice is untraced.
class TraceSlices {
 public:
  TraceSlices(Tracer* tracer, int64_t begin_ns, int64_t slice_ns)
      : tracer_(tracer), begin_ns_(begin_ns), slice_ns_(slice_ns) {}

  int64_t Slice(int64_t t_ns) const {
    return t_ns <= begin_ns_ ? 0 : (t_ns - begin_ns_) / slice_ns_;
  }
  /// The tracer for work starting at `t_ns`; null in untraced slices.
  Tracer* At(int64_t t_ns) const {
    return tracer_ != nullptr && Slice(t_ns) % 2 == 1 ? tracer_ : nullptr;
  }
  Tracer* Now() const { return At(NowNs()); }

  /// The traced slices' [begin, end) windows, cut at `end_ns`.
  std::vector<std::pair<int64_t, int64_t>> TracedWindows(int64_t end_ns) const {
    std::vector<std::pair<int64_t, int64_t>> windows;
    if (tracer_ == nullptr) return windows;
    for (int64_t b = begin_ns_ + slice_ns_; b < end_ns; b += 2 * slice_ns_) {
      windows.emplace_back(b, std::min(b + slice_ns_, end_ns));
    }
    return windows;
  }

 private:
  Tracer* tracer_;
  int64_t begin_ns_;
  int64_t slice_ns_;
};

/// One op's cost in a sliced phase: `cost` per `weight` units of work, in
/// the slice the op started in.
struct SliceCost {
  int64_t slice = 0;
  double cost = 0.0;
  double weight = 1.0;
};

/// Tracing overhead from interleaved slices: each slice's cost is
/// sum(cost) / sum(weight) over its ops, and each traced (odd) slice is
/// compared with the untraced slice before it. The median relative cost
/// increase over those pairs; negative when the traced slices ran cheaper,
/// 0 without a pair.
inline double PairedOverheadShare(const std::vector<SliceCost>& ops) {
  std::map<int64_t, std::pair<double, double>> per_slice;
  for (const SliceCost& op : ops) {
    auto& [cost, weight] = per_slice[op.slice];
    cost += op.cost;
    weight += op.weight;
  }
  std::vector<double> increases;
  for (const auto& [slice, traced] : per_slice) {
    if (slice % 2 == 0) continue;
    auto before = per_slice.find(slice - 1);
    if (before == per_slice.end() || before->second.second <= 0 ||
        traced.second <= 0) {
      continue;
    }
    const double base = before->second.first / before->second.second;
    if (base <= 0) continue;
    increases.push_back((traced.first / traced.second - base) / base);
  }
  return increases.empty() ? 0.0 : Median(std::move(increases));
}

/// Share of `threads` × the `windows` that no span covers. Work that ran
/// without spans because it began in an untraced slice (`untraced`, one
/// interval per op on one thread) is left out: its overlap with the
/// windows counts neither as covered nor as available.
inline double UnattributedShare(
    const std::vector<SpanRecord>& spans,
    const std::vector<std::pair<int64_t, int64_t>>& windows, size_t threads,
    const std::vector<std::pair<int64_t, int64_t>>& untraced = {}) {
  double covered = 0.0, available = 0.0;
  for (const auto& [window_begin, window_end] : windows) {
    if (window_end <= window_begin) continue;
    std::map<uint32_t, std::vector<std::pair<int64_t, int64_t>>> per_thread;
    for (const SpanRecord& s : spans) {
      const int64_t begin = std::max(s.begin_ns, window_begin);
      const int64_t end = std::min(s.end_ns, window_end);
      if (end > begin) per_thread[s.thread].emplace_back(begin, end);
    }
    for (auto& [thread, intervals] : per_thread) {
      covered += static_cast<double>(UnionLength(std::move(intervals)));
    }
    available += static_cast<double>(window_end - window_begin) *
                 static_cast<double>(threads);
    for (const auto& [begin, end] : untraced) {
      const int64_t overlap =
          std::min(end, window_end) - std::max(begin, window_begin);
      if (overlap > 0) available -= static_cast<double>(overlap);
    }
  }
  if (available <= 0) return 0.0;
  return std::max(0.0, 1.0 - covered / available);
}

}  // namespace cobra::perfbench
