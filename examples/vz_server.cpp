// vz_server — the networked serving front end: builds a simulated
// deployment (for the verifier's ground truth), wraps a VideoZilla instance
// in the binary RPC server, and serves ingestion and queries over TCP until
// interrupted.
//
//   vz_server [--port P] [--downtown N] [--highway N] [--stations N]
//             [--harbors N] [--minutes M] [--seed S] [--ingest]
//             [--shard-index I --shard-count N]
//             [--load PATH] [--max-connections N] [--max-inflight N]
//             [--serve-seconds T] [--io-timeout-ms T] [--idle-timeout-ms T]
//             [--dedup-window N] [--wal-dir PATH] [--wal-fsync-ms T]
//             [--sync-replication] [--standby-of HOST:PORT]
//             [--read-only-on-disk-error 0|1]
//
// The deployment flags must match the client's so both sides describe the
// same simulated world: the server needs it for verification ground truth,
// the client for query features and (without --ingest/--load) the frames it
// streams in. By default the index starts empty and is populated over the
// wire, e.g.:
//
//   vz_server --port 9400 --downtown 4 --harbors 2 &
//   vz_cli --connect 127.0.0.1:9400 --downtown 4 --harbors 2 --query boat
//
// Durability: --wal-dir makes every ingest ack durable (logged + fsynced,
// replayed on restart from the same directory). Group commit is
// self-clocked by default: an ack waits for one fsync, which every append
// racing it shares; --wal-fsync-ms T opts into a T ms gather window before
// each fsync (fewer fsyncs, but no ack returns sooner than T). A warm
// standby tails a WAL-backed primary and promotes itself onto its own
// --port when the primary stays unreachable:
//
//   vz_server --port 9400 --wal-dir /tmp/vz-a --sync-replication &
//   vz_server --port 9400 --wal-dir /tmp/vz-b --standby-of 127.0.0.1:9400 &
//
// Sharding: with --ingest, --shard-index I --shard-count N pre-ingests only
// shard I of the deployment's round-robin camera split — one vz_server per
// shard plus a vz_coordinator over them is the sharded topology
// (scripts/run_cluster.sh boots it end to end).
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/videozilla.h"
#include "io/svs_snapshot.h"
#include "net/server.h"
#include "sim/dataset.h"
#include "sim/verifier.h"

namespace {

std::atomic<bool> g_interrupted{false};

void HandleSignal(int) { g_interrupted.store(true); }

struct ServerCliOptions {
  uint16_t port = 0;
  size_t downtown = 2;
  size_t highway = 2;
  size_t stations = 1;
  size_t harbors = 1;
  int64_t minutes = 5;
  uint64_t seed = 7;
  bool ingest = false;
  // With --ingest: pre-ingest only shard `shard_index` of the deployment's
  // round-robin camera split into `shard_count` shards (0 = unsharded).
  size_t shard_index = 0;
  size_t shard_count = 0;
  std::string load_path;
  size_t max_connections = 8;
  size_t max_inflight = 0;
  // 0 = serve until SIGINT/SIGTERM; otherwise exit after this many seconds.
  int64_t serve_seconds = 0;
  // Supervision knobs (0 keeps the ServerOptions default).
  int64_t io_timeout_ms = 0;    // read+write frame deadlines
  int64_t idle_timeout_ms = 0;  // idle eviction; clients Ping to stay alive
  size_t dedup_window = 0;      // exactly-once window per client session
  // Durability + replication.
  std::string wal_dir;          // empty = no WAL (acks are memory-only)
  int64_t wal_fsync_ms = -1;    // gather window; <0 keeps the default (0)
  bool sync_replication = false;
  std::string standby_of;       // "host:port" of the primary to tail
  // Disk failure model: 1 (default) sheds writes into read-only degraded
  // mode after the first disk fault; 0 keeps refusing per-op only.
  bool read_only_on_disk_error = true;
};

bool ParseArgs(int argc, char** argv, ServerCliOptions* options) {
  auto next_value = [&](int* i) -> const char* {
    if (*i + 1 >= argc) return nullptr;
    return argv[++*i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = nullptr;
    if (arg == "--port" && (value = next_value(&i))) {
      options->port = static_cast<uint16_t>(std::atoi(value));
    } else if (arg == "--downtown" && (value = next_value(&i))) {
      options->downtown = static_cast<size_t>(std::atoi(value));
    } else if (arg == "--highway" && (value = next_value(&i))) {
      options->highway = static_cast<size_t>(std::atoi(value));
    } else if (arg == "--stations" && (value = next_value(&i))) {
      options->stations = static_cast<size_t>(std::atoi(value));
    } else if (arg == "--harbors" && (value = next_value(&i))) {
      options->harbors = static_cast<size_t>(std::atoi(value));
    } else if (arg == "--minutes" && (value = next_value(&i))) {
      options->minutes = std::atoll(value);
    } else if (arg == "--seed" && (value = next_value(&i))) {
      options->seed = static_cast<uint64_t>(std::atoll(value));
    } else if (arg == "--ingest") {
      options->ingest = true;
    } else if (arg == "--shard-index" && (value = next_value(&i))) {
      options->shard_index = static_cast<size_t>(std::atoi(value));
    } else if (arg == "--shard-count" && (value = next_value(&i))) {
      options->shard_count = static_cast<size_t>(std::atoi(value));
    } else if (arg == "--load" && (value = next_value(&i))) {
      options->load_path = value;
    } else if (arg == "--max-connections" && (value = next_value(&i))) {
      options->max_connections = static_cast<size_t>(std::atoi(value));
    } else if (arg == "--max-inflight" && (value = next_value(&i))) {
      options->max_inflight = static_cast<size_t>(std::atoi(value));
    } else if (arg == "--serve-seconds" && (value = next_value(&i))) {
      options->serve_seconds = std::atoll(value);
    } else if (arg == "--io-timeout-ms" && (value = next_value(&i))) {
      options->io_timeout_ms = std::atoll(value);
    } else if (arg == "--idle-timeout-ms" && (value = next_value(&i))) {
      options->idle_timeout_ms = std::atoll(value);
    } else if (arg == "--dedup-window" && (value = next_value(&i))) {
      options->dedup_window = static_cast<size_t>(std::atoi(value));
    } else if (arg == "--wal-dir" && (value = next_value(&i))) {
      options->wal_dir = value;
    } else if (arg == "--wal-fsync-ms" && (value = next_value(&i))) {
      options->wal_fsync_ms = std::atoll(value);
    } else if (arg == "--sync-replication") {
      options->sync_replication = true;
    } else if (arg == "--standby-of" && (value = next_value(&i))) {
      options->standby_of = value;
    } else if (arg == "--read-only-on-disk-error" &&
               (value = next_value(&i))) {
      options->read_only_on_disk_error = std::atoi(value) != 0;
    } else {
      std::fprintf(stderr, "unknown or incomplete flag: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vz;
  ServerCliOptions cli;
  if (!ParseArgs(argc, argv, &cli)) {
    std::fprintf(stderr,
                 "usage: vz_server [--port P] [--downtown N] [--highway N] "
                 "[--stations N] [--harbors N] [--minutes M] [--seed S] "
                 "[--ingest] [--shard-index I --shard-count N] "
                 "[--load PATH] [--max-connections N] "
                 "[--max-inflight N] [--serve-seconds T] "
                 "[--io-timeout-ms T] [--idle-timeout-ms T] "
                 "[--dedup-window N]\n");
    return 2;
  }

  sim::DeploymentOptions dep_options;
  dep_options.cities = 1;
  dep_options.downtown_per_city = cli.downtown;
  dep_options.highway_cameras = cli.highway;
  dep_options.train_stations = cli.stations;
  dep_options.harbors = cli.harbors;
  dep_options.feed_duration_ms = cli.minutes * 60 * 1000;
  dep_options.fps = 1.0;
  dep_options.seed = cli.seed;
  sim::Deployment deployment(dep_options);
  // Materialize the world (and its ground-truth log) up front so the
  // verifier has the same view whether frames arrive locally or remotely.
  (void)deployment.observations();

  core::VideoZillaOptions options;
  options.segmenter.t_max_ms =
      std::max<int64_t>(30'000, cli.minutes * 60'000 / 5);
  options.segmenter.t_split_ms = options.segmenter.t_max_ms / 10;
  options.boundary_scale = 1.8;
  options.enable_keyframe_selection = false;
  if (cli.max_inflight > 0) {
    options.admission.max_in_flight = cli.max_inflight;
    options.admission.max_queue = 1;
  }
  core::VideoZilla vz(options);

  if (!cli.load_path.empty()) {
    core::SvsStore loaded;
    if (Status s = io::LoadSvsStore(cli.load_path, &loaded); !s.ok()) {
      std::fprintf(stderr, "load failed: %s\n", s.ToString().c_str());
      return 1;
    }
    if (Status s = vz.RestoreFromSvsStore(loaded); !s.ok()) {
      std::fprintf(stderr, "restore failed: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("restored %zu SVSs from %s\n", vz.svs_store().size(),
                cli.load_path.c_str());
  } else if (cli.ingest) {
    if (cli.shard_count > 0) {
      if (cli.shard_index >= cli.shard_count) {
        std::fprintf(stderr, "--shard-index %zu out of range for "
                     "--shard-count %zu\n",
                     cli.shard_index, cli.shard_count);
        return 2;
      }
      const auto shards = deployment.PartitionCameras(cli.shard_count);
      if (Status s = deployment.IngestShard(&vz, shards[cli.shard_index]);
          !s.ok()) {
        std::fprintf(stderr, "shard ingest failed: %s\n",
                     s.ToString().c_str());
        return 1;
      }
      std::printf("pre-ingested shard %zu/%zu: %zu SVSs across %zu "
                  "cameras\n",
                  cli.shard_index, cli.shard_count, vz.svs_store().size(),
                  vz.cameras().size());
    } else {
      if (Status s = deployment.IngestAll(&vz); !s.ok()) {
        std::fprintf(stderr, "ingest failed: %s\n", s.ToString().c_str());
        return 1;
      }
      std::printf("pre-ingested %zu SVSs across %zu cameras\n",
                  vz.svs_store().size(), vz.cameras().size());
    }
  }

  sim::HeavyModel heavy;
  sim::SimObjectVerifier verifier(&deployment.space(), &deployment.log(),
                                  &heavy);
  vz.SetVerifier(&verifier);

  net::ServerOptions server_options;
  server_options.port = cli.port;
  server_options.max_connections = cli.max_connections;
  if (cli.io_timeout_ms > 0) {
    server_options.read_timeout_ms = cli.io_timeout_ms;
    server_options.write_timeout_ms = cli.io_timeout_ms;
  }
  if (cli.idle_timeout_ms > 0) {
    server_options.idle_timeout_ms = cli.idle_timeout_ms;
  }
  if (cli.dedup_window > 0) server_options.dedup_window = cli.dedup_window;
  server_options.wal_dir = cli.wal_dir;
  if (cli.wal_fsync_ms >= 0) {
    server_options.wal_fsync_interval_ms = cli.wal_fsync_ms;
  }
  server_options.sync_replication = cli.sync_replication;
  server_options.read_only_on_disk_error = cli.read_only_on_disk_error;
  if (!cli.standby_of.empty()) {
    const size_t colon = cli.standby_of.rfind(':');
    if (colon == std::string::npos) {
      std::fprintf(stderr, "--standby-of wants HOST:PORT, got %s\n",
                   cli.standby_of.c_str());
      return 2;
    }
    server_options.standby_of_host = cli.standby_of.substr(0, colon);
    server_options.standby_of_port = static_cast<uint16_t>(
        std::atoi(cli.standby_of.c_str() + colon + 1));
  }
  net::Server server(&vz, server_options);
  if (Status s = server.Start(); !s.ok()) {
    std::fprintf(stderr, "server start failed: %s\n", s.ToString().c_str());
    return 1;
  }
  if (server.role() == net::ServerRole::kStandby) {
    std::printf("vz_server standby tailing %s (wal: %s); will promote onto "
                "port %u if the primary stays unreachable\n",
                cli.standby_of.c_str(), cli.wal_dir.c_str(), cli.port);
  } else {
    std::printf("vz_server listening on 127.0.0.1:%u (protocol v%u%s)\n",
                server.port(), net::kProtocolVersion,
                cli.wal_dir.empty() ? ""
                                    : (", wal: " + cli.wal_dir).c_str());
  }
  std::fflush(stdout);

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  const auto started = std::chrono::steady_clock::now();
  // Auto-promotion is driven from here, never from inside the replication
  // thread: consecutive 100ms polls that each saw new WalShip failures mean
  // the primary is gone (not one flaky exchange), so the standby takes over
  // its serving duties on the configured port.
  uint64_t last_replication_errors = 0;
  int failing_polls = 0;
  constexpr int kPromoteAfterFailingPolls = 20;  // ~2s of sustained failure
  while (!g_interrupted.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    if (server.role() == net::ServerRole::kStandby) {
      const uint64_t errors = server.stats().replication_errors;
      failing_polls = errors > last_replication_errors ? failing_polls + 1 : 0;
      last_replication_errors = errors;
      if (failing_polls >= kPromoteAfterFailingPolls) {
        if (Status s = server.Promote(); s.ok()) {
          std::printf("primary unreachable for %d polls: promoted, now "
                      "listening on 127.0.0.1:%u\n",
                      failing_polls, server.port());
          std::fflush(stdout);
        } else {
          // Likely the old primary still holds the port (split-brain
          // guard): keep tailing and try again later.
          std::fprintf(stderr, "promotion failed: %s\n",
                       s.ToString().c_str());
          failing_polls = 0;
        }
      }
    }
    if (cli.serve_seconds > 0 &&
        std::chrono::steady_clock::now() - started >=
            std::chrono::seconds(cli.serve_seconds)) {
      break;
    }
  }

  std::printf("shutting down (draining in-flight requests)\n");
  // Snapshot the registry before the drain empties it: on a live server
  // this is the operator's view of who is connected and how busy they are.
  const std::vector<net::ConnectionInfo> connections =
      server.connection_stats();
  server.Shutdown();
  const net::ServerStats stats = server.stats();
  std::printf("served %llu requests over %llu connections "
              "(%llu shed, %llu request errors)\n",
              static_cast<unsigned long long>(stats.requests_served),
              static_cast<unsigned long long>(stats.connections_accepted),
              static_cast<unsigned long long>(stats.connections_shed),
              static_cast<unsigned long long>(stats.request_errors));
  std::printf("supervision: %llu idle evictions, %llu slow evictions, "
              "%llu pings; exactly-once: %llu duplicates replayed across "
              "%llu sessions (%llu evicted)\n",
              static_cast<unsigned long long>(stats.connections_evicted_idle),
              static_cast<unsigned long long>(stats.connections_evicted_slow),
              static_cast<unsigned long long>(stats.pings_served),
              static_cast<unsigned long long>(stats.duplicates_replayed),
              static_cast<unsigned long long>(stats.sessions_active),
              static_cast<unsigned long long>(stats.sessions_evicted));
  if (!cli.wal_dir.empty()) {
    const char* role = stats.role == net::ServerRole::kPrimary ? "primary"
                       : stats.role == net::ServerRole::kStandby
                           ? "standby"
                           : "promoted";
    std::printf("durability (%s): %llu appends, %llu fsyncs, lsn %llu "
                "(%llu durable), %llu replayed on recovery, %llu B "
                "salvaged, %llu checkpoints\n",
                role, static_cast<unsigned long long>(stats.wal_appends),
                static_cast<unsigned long long>(stats.wal_fsyncs),
                static_cast<unsigned long long>(stats.wal_last_lsn),
                static_cast<unsigned long long>(stats.wal_durable_lsn),
                static_cast<unsigned long long>(stats.wal_replayed_records),
                static_cast<unsigned long long>(stats.wal_salvaged_bytes),
                static_cast<unsigned long long>(stats.wal_checkpoints));
    if (!cli.standby_of.empty()) {
      std::printf("replication: lag %llu records, %llu ship errors\n",
                  static_cast<unsigned long long>(
                      stats.replication_lag_records),
                  static_cast<unsigned long long>(stats.replication_errors));
    }
    if (stats.disk_io_errors > 0 || stats.disk_fsync_failures > 0 ||
        stats.checkpoints_quarantined > 0 || stats.disk_full ||
        stats.read_only) {
      std::printf("disk health: %llu io errors, %llu fsync failures, "
                  "%llu checkpoints quarantined%s%s\n",
                  static_cast<unsigned long long>(stats.disk_io_errors),
                  static_cast<unsigned long long>(stats.disk_fsync_failures),
                  static_cast<unsigned long long>(
                      stats.checkpoints_quarantined),
                  stats.disk_full ? " [disk full]" : "",
                  stats.read_only ? " [READ-ONLY]" : "");
    }
  }
  for (const net::ConnectionInfo& conn : connections) {
    std::printf("  conn #%llu: age %llds, idle %lldms, %llu rpcs, "
                "%llu B in / %llu B out\n",
                static_cast<unsigned long long>(conn.id),
                static_cast<long long>(conn.age_ms / 1000),
                static_cast<long long>(conn.idle_ms),
                static_cast<unsigned long long>(conn.rpcs),
                static_cast<unsigned long long>(conn.bytes_in),
                static_cast<unsigned long long>(conn.bytes_out));
  }
  return 0;
}
