/// \file e2e_bench.cc
/// The end-to-end benchmark's entry point (RECORD.md):
///
///   e2e_bench --workload <archive_ingest|search_mixed|live_ingest_search>
///             --seed <n> --seconds <s> --trace <0|1>
///
/// Prints the input properties and digest, the diagnostics, and as the last
/// line one JSON object with the end-to-end metrics (--trace 0) or the
/// per-layer metrics (--trace 1). Exits nonzero without that line when the
/// correctness gate fails.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace {

using namespace cobra::perfbench;  // NOLINT

int Usage() {
  std::fprintf(stderr,
               "usage: e2e_bench --workload <archive_ingest|search_mixed|"
               "live_ingest_search> --seed <n> --seconds <s> --trace <0|1>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  std::string workload;
  std::string trace = "0";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      trace = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || workload.empty() || options.seconds <= 0 ||
      (trace != "0" && trace != "1")) {
    return Usage();
  }
  options.trace = trace == "1";

  const std::string base = ".bench_work";
  options.work_dir = base + "/run-" + std::to_string(getpid());
  options.trace_path = base + "/trace-" + workload + "-seed" +
                       std::to_string(options.seed) + ".jsonl";
  std::filesystem::create_directories(options.work_dir);
  std::printf("workload %s, seed %llu, %.3g s, trace %s\n", workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              trace.c_str());

  RunOutcome outcome;
  if (workload == "archive_ingest") {
    outcome = RunArchiveIngest(options);
  } else if (workload == "search_mixed") {
    outcome = RunSearchMixed(options);
  } else if (workload == "live_ingest_search") {
    outcome = RunLiveIngestSearch(options);
  } else {
    std::filesystem::remove_all(options.work_dir);
    return Usage();
  }
  std::error_code ec;
  std::filesystem::remove_all(options.work_dir, ec);

  if (!outcome.correct) {
    std::printf("correctness gate failed; no result\n");
    return 1;
  }
  std::vector<Metric> metrics = outcome.end_to_end;
  if (options.trace) {
    metrics.clear();
    std::printf("per-layer metrics (layers this workload does not exercise "
                "read 0):\n");
    for (const auto& [name, unit] : LayerMetricUnits()) {
      auto it = outcome.layers.find(name);
      const double value = it == outcome.layers.end() ? 0.0 : it->second;
      std::printf("  %-42s %14.6f %s%s\n", name.c_str(), value, unit.c_str(),
                  it == outcome.layers.end() ? "  (not exercised)" : "");
      metrics.push_back({name, value, unit});
    }
  }
  auto json = ResultJson(true, outcome.attempted, outcome.failed, metrics);
  if (!json.ok()) {
    std::printf("%s\n", json.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", json->c_str());
  return 0;
}
