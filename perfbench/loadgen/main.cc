// vz_loadgen: the repository benchmark's load generator. One process builds
// the simulated world, deploys the system in-process behind its RPC front
// end, drives one workload over loopback, checks every answer, and prints
// two JSON lines: run information, then the result.
//
//   vz_loadgen --workload query_mix|ingest_live|sharded_fanout --seed N
//              --seconds S --trace 0|1 [--work-dir DIR] [--trace-out FILE]
//   vz_loadgen --workload W --seed N --seconds S --schedule-out FILE
//
// perfbench/run.py builds and runs it; see perfbench/README.md.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common/logging.h"
#include "loadgen/workloads.h"
#include "vector/simd_kernels.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: vz_loadgen --workload W --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR] [--trace-out FILE] "
               "[--schedule-out FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  vzb::RunConfig config;
  std::string schedule_out;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else if (flag == "--work-dir") {
      config.work_dir = value;
    } else if (flag == "--trace-out") {
      config.trace_out = value;
    } else if (flag == "--schedule-out") {
      schedule_out = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || config.workload.empty() || config.seconds <= 0) {
    return Usage();
  }
#ifndef NDEBUG
  const bool release = false;
#else
  const bool release = std::strcmp(VZ_BENCH_BUILD_TYPE, "Release") == 0;
#endif
  if (!release) {
    std::fprintf(stderr,
                 "vz_loadgen: refusing to measure a non-Release build (%s)\n",
                 VZ_BENCH_BUILD_TYPE);
    return 3;
  }
  vz::SetLogLevel(vz::LogLevel::kError);

  if (!schedule_out.empty()) {
    std::printf("%s\n", vzb::DumpSchedule(config, schedule_out).c_str());
    return 0;
  }

  vzb::RunReport report;
  std::string error;
  if (!vzb::RunWorkload(config, &report, &error)) {
    std::fprintf(stderr, "vz_loadgen: %s\n", error.c_str());
    return 1;
  }

  std::string reasons = "[";
  for (const std::string& reason : report.outcome.reasons()) {
    reasons += (reasons.size() > 1 ? ", \"" : "\"") + vzb::JsonEscape(reason) +
               "\"";
  }
  reasons += "]";
  std::printf(
      "{\"info\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"nproc\": %u, \"avx2\": %s, \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"schedule_digest\": \"%s\", "
      "\"spans\": %zu, \"properties\": %s, \"workload_metrics\": %s, "
      "\"failures\": %s}}\n",
      vzb::JsonEscape(config.workload).c_str(),
      static_cast<unsigned long long>(config.seed), config.seconds,
      config.trace ? 1 : 0, std::thread::hardware_concurrency(),
      vz::simd::Avx2Active() ? "true" : "false", VZ_BENCH_COMPILER,
      VZ_BENCH_BUILD_TYPE, report.schedule_digest.c_str(),
      report.tracer.size(), report.properties.Json().c_str(),
      report.workload_metrics.Json().c_str(), reasons.c_str());
  const uint64_t failed = report.outcome.failed();
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(report.outcome.attempted()),
      static_cast<unsigned long long>(failed),
      (config.trace ? report.layers : report.e2e).Json().c_str());
  return 0;
}
