// vz_coordinator — the query plane of a sharded deployment: fans
// DirectQuery/ClusteringQuery/MonitorStats out over N edge vz_servers,
// merges their partial answers, and keeps each edge's representatives
// (shipped by the kRepSync RPC) to skip edges none of whose
// representatives a direct query hits. It holds no video state of its own
// and refuses mutating RPCs — ingest goes to the edges.
//
//   vz_coordinator [--port P] --edge HOST:PORT [--edge HOST:PORT ...]
//                  [--boundary-scale S] [--sync-interval-ms T]
//                  [--max-connections N] [--serve-seconds T]
//
// The --edge order is part of the deployment contract: it defines the
// global SVS id space (shard index in the high bits) and the merge order,
// so every coordinator of one deployment must list the same edges in the
// same order. --boundary-scale must match the edges'
// VideoZillaOptions::boundary_scale (vz_server uses 1.8) or fan-out
// pruning will disagree with edge hit tests; an AdminTune sent through the
// coordinator replaces it with the scale the edges echo.
//
//   vz_server --port 9401 --ingest --shard-index 0 --shard-count 2 &
//   vz_server --port 9402 --ingest --shard-index 1 --shard-count 2 &
//   vz_coordinator --port 9400 --edge 127.0.0.1:9401 --edge 127.0.0.1:9402
//   vz_cli --connect 127.0.0.1:9400 --query boat
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "net/coordinator.h"

namespace {

std::atomic<bool> g_interrupted{false};

void HandleSignal(int) { g_interrupted.store(true); }

struct CoordinatorCliOptions {
  uint16_t port = 0;
  std::vector<vz::net::EdgeEndpoint> edges;
  double boundary_scale = 1.8;  // vz_server's default
  int64_t sync_interval_ms = 250;
  size_t max_connections = 8;
  // 0 = serve until SIGINT/SIGTERM; otherwise exit after this many seconds.
  int64_t serve_seconds = 0;
};

bool ParseEndpoint(const std::string& spec, vz::net::EdgeEndpoint* out) {
  const size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == spec.size()) {
    return false;
  }
  const int port = std::atoi(spec.c_str() + colon + 1);
  if (port <= 0 || port > 65535) return false;
  out->host = spec.substr(0, colon);
  out->port = static_cast<uint16_t>(port);
  return true;
}

bool ParseArgs(int argc, char** argv, CoordinatorCliOptions* options) {
  auto next_value = [&](int* i) -> const char* {
    if (*i + 1 >= argc) return nullptr;
    return argv[++*i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = nullptr;
    if (arg == "--port" && (value = next_value(&i))) {
      options->port = static_cast<uint16_t>(std::atoi(value));
    } else if (arg == "--edge" && (value = next_value(&i))) {
      vz::net::EdgeEndpoint endpoint;
      if (!ParseEndpoint(value, &endpoint)) {
        std::fprintf(stderr, "--edge wants HOST:PORT, got %s\n", value);
        return false;
      }
      options->edges.push_back(endpoint);
    } else if (arg == "--boundary-scale" && (value = next_value(&i))) {
      options->boundary_scale = std::atof(value);
    } else if (arg == "--sync-interval-ms" && (value = next_value(&i))) {
      options->sync_interval_ms = std::atoll(value);
    } else if (arg == "--max-connections" && (value = next_value(&i))) {
      options->max_connections = static_cast<size_t>(std::atoi(value));
    } else if (arg == "--serve-seconds" && (value = next_value(&i))) {
      options->serve_seconds = std::atoll(value);
    } else {
      std::fprintf(stderr, "unknown or incomplete flag: %s\n", arg.c_str());
      return false;
    }
  }
  return !options->edges.empty();
}

const char* StateName(vz::net::ShardState state) {
  switch (state) {
    case vz::net::ShardState::kHealthy:
      return "healthy";
    case vz::net::ShardState::kDegraded:
      return "degraded";
    case vz::net::ShardState::kUnreachable:
      return "unreachable";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vz;
  CoordinatorCliOptions cli;
  if (!ParseArgs(argc, argv, &cli)) {
    std::fprintf(stderr,
                 "usage: vz_coordinator [--port P] --edge HOST:PORT "
                 "[--edge HOST:PORT ...] [--boundary-scale S] "
                 "[--sync-interval-ms T] [--max-connections N] "
                 "[--serve-seconds T]\n");
    return 2;
  }

  net::CoordinatorOptions options;
  options.port = cli.port;
  options.edges = cli.edges;
  options.boundary_scale = cli.boundary_scale;
  options.sync_interval_ms = cli.sync_interval_ms;
  options.max_connections = cli.max_connections;
  net::Coordinator coordinator(options);
  if (Status s = coordinator.Start(); !s.ok()) {
    std::fprintf(stderr, "coordinator start failed: %s\n",
                 s.ToString().c_str());
    return 1;
  }
  std::printf("vz_coordinator listening on 127.0.0.1:%u over %zu edges "
              "(protocol v%u)\n",
              coordinator.port(), cli.edges.size(), net::kProtocolVersion);
  for (const net::ShardHealthInfo& shard : coordinator.shard_health()) {
    std::printf("  shard %s:%u: %s, %llu rep entries, %llu cameras\n",
                shard.host.c_str(), shard.port, StateName(shard.state),
                static_cast<unsigned long long>(shard.rep_entries),
                static_cast<unsigned long long>(shard.cameras));
  }
  std::fflush(stdout);

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  const auto started = std::chrono::steady_clock::now();
  while (!g_interrupted.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    if (cli.serve_seconds > 0 &&
        std::chrono::steady_clock::now() - started >=
            std::chrono::seconds(cli.serve_seconds)) {
      break;
    }
  }

  std::printf("shutting down\n");
  coordinator.Shutdown();
  const net::CoordinatorStats stats = coordinator.stats();
  std::printf("served %llu requests over %llu connections (%llu shed, "
              "%llu request errors)\n",
              static_cast<unsigned long long>(stats.requests_served),
              static_cast<unsigned long long>(stats.connections_accepted),
              static_cast<unsigned long long>(stats.connections_shed),
              static_cast<unsigned long long>(stats.request_errors));
  std::printf("fan-out: %llu legs (%llu failed, %llu pruned), %llu "
              "degraded answers\n",
              static_cast<unsigned long long>(stats.fanout_legs),
              static_cast<unsigned long long>(stats.fanout_failures),
              static_cast<unsigned long long>(stats.pruned_legs),
              static_cast<unsigned long long>(stats.degraded_answers));
  std::printf("rep-sync: %llu entries indexed, %llu update rounds, %llu "
              "probes\n",
              static_cast<unsigned long long>(stats.rep_entries),
              static_cast<unsigned long long>(stats.rep_sync_updates),
              static_cast<unsigned long long>(stats.probes_sent));
  return 0;
}
