#pragma once

/// \file workloads.h
/// The three workloads of the end-to-end benchmark (RECORD.md).

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness.h"

namespace cobra::perfbench {

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for durable segments; removed by the caller.
  std::string work_dir;
  /// Where a traced run writes its spans (one JSON object per line).
  std::string trace_path;
};

/// What a run reports. `end_to_end` is filled by untraced runs, `layers` by
/// traced runs; `correct` is the correctness gate's verdict.
struct RunOutcome {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::map<std::string, double> layers;
};

RunOutcome RunArchiveIngest(const RunOptions& options);
RunOutcome RunSearchMixed(const RunOptions& options);
RunOutcome RunLiveIngestSearch(const RunOptions& options);

/// Every end-to-end metric an untraced run prints, with its unit, in order.
const std::vector<std::pair<std::string, std::string>>& EndToEndMetricUnits();

/// Every per-layer metric a traced run prints, with its unit. A workload
/// that does not exercise a layer reports 0 for it.
const std::vector<std::pair<std::string, std::string>>& LayerMetricUnits();

}  // namespace cobra::perfbench
