#ifndef VZ_PERFBENCH_LOADGEN_WORKLOADS_H_
#define VZ_PERFBENCH_LOADGEN_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>

#include "loadgen/common.h"

namespace vzb {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for WAL segments (created and removed by the run).
  std::string work_dir = ".";
  /// Where the traced run writes its spans (JSON lines); empty = nowhere.
  std::string trace_out;
};

struct RunReport {
  /// End-to-end metrics (BENCHMARK.json `end_to_end`).
  MetricSet e2e;
  /// Per-layer metrics of the traced run (BENCHMARK.json `per_layer`).
  MetricSet layers;
  /// Workload-specific end-to-end metrics that do not apply to every
  /// workload (clustering, ingest, push latencies, error rate).
  MetricSet workload_metrics;
  /// Input properties: repeat shares, segment-finalizing frame share.
  MetricSet properties;
  Outcome outcome;
  Tracer tracer;
  std::string schedule_digest;
};

/// Runs one workload end to end; false on a set-up error (nothing measured).
bool RunWorkload(const RunConfig& config, RunReport* report,
                 std::string* error);

/// Generates the workload's inputs only and writes the schedule bytes to
/// `path` (the determinism check). Returns the digest in hex.
std::string DumpSchedule(const RunConfig& config, const std::string& path);

/// Names and units of every per-layer metric, in report order.
const std::vector<std::pair<std::string, std::string>>& LayerMetricUnits();

}  // namespace vzb

#endif  // VZ_PERFBENCH_LOADGEN_WORKLOADS_H_
