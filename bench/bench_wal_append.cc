// WAL append cost across the durability dial: appends/sec and fsync-ack
// latency for fsync_interval_ms in {-1 (no fsync), 0 (self-clocked, the
// default: fsync as soon as an append is pending), 1, 5, 20} at ~2 KiB
// payloads (a framed IngestFrame request). Two passes per setting bracket
// the commit rule's price:
//   - throughput: append a burst, one WaitDurable at the end — the batch
//     ingest shape, where group commit amortises the fsync;
//   - ack: WaitDurable after every append — the synchronous RPC shape,
//     where the gather window is the ack latency floor.
// Emits one JSON object per row alongside the table.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "io/wal.h"

namespace vz {
namespace {

using Clock = std::chrono::steady_clock;

double ToMs(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

double Percentile(std::vector<double>* sorted_ms, double q) {
  if (sorted_ms->empty()) return 0.0;
  const size_t index = std::min(
      sorted_ms->size() - 1,
      static_cast<size_t>(q * static_cast<double>(sorted_ms->size())));
  return (*sorted_ms)[index];
}

struct Row {
  int64_t fsync_interval_ms = 0;
  std::string mode;
  size_t appends = 0;
  double appends_per_sec = 0.0;
  double mb_per_sec = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

void PrintRow(const Row& row) {
  std::printf("%10lld %-11s %8zu %14.0f %9.1f %10.3f %10.3f\n",
              static_cast<long long>(row.fsync_interval_ms),
              row.mode.c_str(), row.appends, row.appends_per_sec,
              row.mb_per_sec, row.p50_ms, row.p99_ms);
  std::printf("JSON {\"bench\":\"wal_append\",\"fsync_interval_ms\":%lld,"
              "\"mode\":\"%s\",\"appends\":%zu,\"appends_per_sec\":%.1f,"
              "\"mb_per_sec\":%.2f,\"p50_ms\":%.3f,\"p99_ms\":%.3f}\n",
              static_cast<long long>(row.fsync_interval_ms),
              row.mode.c_str(), row.appends, row.appends_per_sec,
              row.mb_per_sec, row.p50_ms, row.p99_ms);
}

std::string FreshWalDir(const std::string& tag) {
  const std::string dir = "/tmp/vz_bench_wal_" + tag;
  // Wipe any prior run's segments so every pass starts on segment 1.
  std::string command = "rm -rf " + dir;
  if (std::system(command.c_str()) != 0) {
    std::fprintf(stderr, "warning: could not clear %s\n", dir.c_str());
  }
  return dir;
}

io::WalRecord MakeRecord(uint64_t sequence, const std::string& payload) {
  io::WalRecord record;
  record.session_id = 1;
  record.sequence = sequence;
  record.op = 3;
  record.payload = payload;
  return record;
}

bool RunSetting(int64_t fsync_interval_ms, const std::string& payload,
                size_t burst_appends, size_t ack_appends) {
  const std::string tag = fsync_interval_ms < 0
                              ? "nofsync"
                              : std::to_string(fsync_interval_ms) + "ms";

  // --- Throughput pass: burst append, settle durability once. ---
  {
    io::WalOptions options;
    options.dir = FreshWalDir(tag + "_tp");
    options.fsync_interval_ms = fsync_interval_ms;
    auto wal = io::Wal::Open(options);
    if (!wal.ok()) {
      std::fprintf(stderr, "open failed: %s\n",
                   wal.status().ToString().c_str());
      return false;
    }
    const Clock::time_point start = Clock::now();
    uint64_t last = 0;
    for (size_t i = 0; i < burst_appends; ++i) {
      auto lsn = (*wal)->Append(MakeRecord(i + 1, payload));
      if (!lsn.ok()) {
        std::fprintf(stderr, "append failed: %s\n",
                     lsn.status().ToString().c_str());
        return false;
      }
      last = *lsn;
    }
    if (fsync_interval_ms >= 0) {
      if (Status s = (*wal)->WaitDurable(last); !s.ok()) {
        std::fprintf(stderr, "wait failed: %s\n", s.ToString().c_str());
        return false;
      }
    }
    const double elapsed_ms = ToMs(Clock::now() - start);
    Row row;
    row.fsync_interval_ms = fsync_interval_ms;
    row.mode = "throughput";
    row.appends = burst_appends;
    row.appends_per_sec =
        elapsed_ms > 0
            ? 1000.0 * static_cast<double>(burst_appends) / elapsed_ms
            : 0.0;
    row.mb_per_sec = row.appends_per_sec *
                     static_cast<double>(payload.size()) / (1024.0 * 1024.0);
    PrintRow(row);
  }

  // --- Ack pass: WaitDurable after every append (the RPC commit rule). ---
  if (fsync_interval_ms >= 0) {
    io::WalOptions options;
    options.dir = FreshWalDir(tag + "_ack");
    options.fsync_interval_ms = fsync_interval_ms;
    auto wal = io::Wal::Open(options);
    if (!wal.ok()) {
      std::fprintf(stderr, "open failed: %s\n",
                   wal.status().ToString().c_str());
      return false;
    }
    std::vector<double> latencies;
    latencies.reserve(ack_appends);
    const Clock::time_point start = Clock::now();
    for (size_t i = 0; i < ack_appends; ++i) {
      const Clock::time_point t0 = Clock::now();
      auto lsn = (*wal)->Append(MakeRecord(i + 1, payload));
      if (!lsn.ok() || !(*wal)->WaitDurable(*lsn).ok()) {
        std::fprintf(stderr, "ack append failed at %zu\n", i);
        return false;
      }
      latencies.push_back(ToMs(Clock::now() - t0));
    }
    const double elapsed_ms = ToMs(Clock::now() - start);
    std::sort(latencies.begin(), latencies.end());
    Row row;
    row.fsync_interval_ms = fsync_interval_ms;
    row.mode = "ack";
    row.appends = ack_appends;
    row.appends_per_sec =
        elapsed_ms > 0 ? 1000.0 * static_cast<double>(ack_appends) / elapsed_ms
                       : 0.0;
    row.mb_per_sec = row.appends_per_sec *
                     static_cast<double>(payload.size()) / (1024.0 * 1024.0);
    row.p50_ms = Percentile(&latencies, 0.50);
    row.p99_ms = Percentile(&latencies, 0.99);
    PrintRow(row);
  }
  return true;
}

}  // namespace
}  // namespace vz

int main() {
  using namespace vz;
  bench::Banner("WAL append: throughput and ack latency vs fsync interval",
                "payload=2 KiB, burst=8000 appends (~16 MiB, spans "
                "segments), ack=500 appends, intervals=-1/0/1/5/20 ms");

  std::printf("\n%10s %-11s %8s %14s %9s %10s %10s\n", "fsync (ms)", "mode",
              "appends", "appends/sec", "MiB/sec", "p50 (ms)", "p99 (ms)");

  const std::string payload(2048, 'x');
  for (int64_t interval : {-1, 0, 1, 5, 20}) {
    if (!RunSetting(interval, payload, 8'000, 500)) return 1;
  }
  return 0;
}
