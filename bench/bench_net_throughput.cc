// Serving-layer throughput: requests/sec and p50/p99 latency of the binary
// RPC path over loopback TCP versus the same calls made in process, at 1, 4
// and 16 concurrent clients. Two workloads bracket the cost spectrum: a
// stats poll (pure framing + dispatch overhead) and a DirectQuery against a
// pre-ingested deployment (real query compute, where the wire should all
// but disappear). A fourth transport prices the sharded topology: the same
// deployment split over 2 edge servers behind a coordinator (one extra hop
// plus scatter-gather fan-out and merge per query —
// scripts/run_cluster.sh boots the multi-process equivalent). Emits one
// JSON object per row alongside the usual table.
#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "net/chaos_proxy.h"
#include "net/client.h"
#include "net/coordinator.h"
#include "net/server.h"

namespace vz {
namespace {

using Clock = std::chrono::steady_clock;

double ToMs(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

struct Row {
  std::string workload;
  std::string transport;
  size_t clients = 0;
  size_t requests = 0;
  double reqs_per_sec = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

double Percentile(std::vector<double>* sorted_ms, double q) {
  if (sorted_ms->empty()) return 0.0;
  const size_t index = std::min(
      sorted_ms->size() - 1,
      static_cast<size_t>(q * static_cast<double>(sorted_ms->size())));
  return (*sorted_ms)[index];
}

/// Runs `requests_per_client` timed calls on `clients` threads; `call` is
/// (client_index, request_index) -> ok.
template <typename Fn>
Row RunWorkload(const std::string& workload, const std::string& transport,
                size_t clients, size_t requests_per_client, Fn&& call) {
  std::vector<std::vector<double>> latencies(clients);
  std::vector<std::thread> threads;
  const Clock::time_point start = Clock::now();
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      latencies[c].reserve(requests_per_client);
      for (size_t r = 0; r < requests_per_client; ++r) {
        const Clock::time_point t0 = Clock::now();
        if (!call(c, r)) return;  // drop this lane; row shows fewer requests
        latencies[c].push_back(ToMs(Clock::now() - t0));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double elapsed_ms = ToMs(Clock::now() - start);

  std::vector<double> all;
  for (const auto& lane : latencies) {
    all.insert(all.end(), lane.begin(), lane.end());
  }
  std::sort(all.begin(), all.end());
  Row row;
  row.workload = workload;
  row.transport = transport;
  row.clients = clients;
  row.requests = all.size();
  row.reqs_per_sec =
      elapsed_ms > 0 ? 1000.0 * static_cast<double>(all.size()) / elapsed_ms
                     : 0.0;
  row.p50_ms = Percentile(&all, 0.50);
  row.p99_ms = Percentile(&all, 0.99);
  return row;
}

void PrintRow(const Row& row) {
  std::printf("%-13s %-11s %8zu %9zu %12.0f %10.3f %10.3f\n",
              row.workload.c_str(), row.transport.c_str(), row.clients,
              row.requests, row.reqs_per_sec, row.p50_ms, row.p99_ms);
  std::printf("JSON {\"bench\":\"net_throughput\",\"workload\":\"%s\","
              "\"transport\":\"%s\",\"clients\":%zu,\"requests\":%zu,"
              "\"reqs_per_sec\":%.1f,\"p50_ms\":%.3f,\"p99_ms\":%.3f}\n",
              row.workload.c_str(), row.transport.c_str(), row.clients,
              row.requests, row.reqs_per_sec, row.p50_ms, row.p99_ms);
}

}  // namespace
}  // namespace vz

int main() {
  using namespace vz;
  bench::Banner("Serving layer: loopback RPC vs in-process vs chaos proxy "
                "vs 2-edge coordinator",
                "deployment=16 cameras x 8 min, workloads=stats poll + "
                "DirectQuery, clients=1/4/16, proxy runs fault-free, "
                "coordinator fans out over 2 edge shards");

  bench::EndToEndRig rig;
  Rng rng(3);
  const FeatureVector query =
      rig.deployment.MakeQueryFeature(sim::kBoat, &rng);

  net::ServerOptions server_options;
  server_options.max_connections = 32;  // loopback + proxied pools coexist
  net::Server server(&rig.system, server_options);
  if (Status s = server.Start(); !s.ok()) {
    std::fprintf(stderr, "server start failed: %s\n", s.ToString().c_str());
    return 1;
  }

  // A fault-free chaos proxy in the path prices the relay itself (one extra
  // hop, two pump threads per connection, per-chunk fault rolls that all
  // come up clean) — the baseline tax every chaos drill pays.
  net::ChaosProxyOptions proxy_options;
  proxy_options.upstream_port = server.port();
  net::ChaosProxy proxy(proxy_options);
  if (Status s = proxy.Start(); !s.ok()) {
    std::fprintf(stderr, "proxy start failed: %s\n", s.ToString().c_str());
    return 1;
  }

  // The sharded topology: the same deployment split round-robin over 2 edge
  // shards behind a coordinator. Prices scatter-gather fan-out + merge (and
  // the rep-sync-pruned fan-out on direct queries) against the single-node
  // rows above. Background sync is off so rows time queries, not sync churn.
  const auto edge_shards = rig.deployment.PartitionCameras(2);
  std::vector<std::unique_ptr<core::VideoZilla>> edge_systems;
  std::vector<std::unique_ptr<net::Server>> edge_servers;
  net::CoordinatorOptions coord_options;
  coord_options.sync_interval_ms = 0;
  coord_options.max_connections = 32;
  coord_options.boundary_scale = bench::BenchVzOptions().boundary_scale;
  for (const auto& shard : edge_shards) {
    edge_systems.push_back(
        std::make_unique<core::VideoZilla>(bench::BenchVzOptions()));
    if (Status s = rig.deployment.IngestShard(edge_systems.back().get(),
                                              shard);
        !s.ok()) {
      std::fprintf(stderr, "shard ingest failed: %s\n",
                   s.ToString().c_str());
      return 1;
    }
    net::ServerOptions edge_options;
    edge_options.max_connections = 32;
    edge_servers.push_back(std::make_unique<net::Server>(
        edge_systems.back().get(), edge_options));
    if (Status s = edge_servers.back()->Start(); !s.ok()) {
      std::fprintf(stderr, "edge start failed: %s\n", s.ToString().c_str());
      return 1;
    }
    coord_options.edges.push_back({"127.0.0.1", edge_servers.back()->port()});
  }
  net::Coordinator coordinator(coord_options);
  if (Status s = coordinator.Start(); !s.ok()) {
    std::fprintf(stderr, "coordinator start failed: %s\n",
                 s.ToString().c_str());
    return 1;
  }

  std::printf("\n%-13s %-11s %8s %9s %12s %10s %10s\n", "workload",
              "transport", "clients", "requests", "reqs/sec", "p50 (ms)",
              "p99 (ms)");

  const std::vector<size_t> kClientCounts = {1, 4, 16};
  constexpr size_t kStatsRequests = 2'000;
  constexpr size_t kQueryRequests = 20;

  for (size_t clients : kClientCounts) {
    PrintRow(RunWorkload(
        "stats_poll", "in-process", clients, kStatsRequests,
        [&](size_t, size_t) {
          // The in-process equivalent of the Monitor RPC body.
          volatile uint64_t sink = rig.system.ingest_stats().frames_offered +
                                   rig.system.svs_store().size();
          (void)sink;
          return true;
        }));
    std::vector<net::Client> pool;
    for (size_t c = 0; c < clients; ++c) {
      auto client = net::Client::Connect("127.0.0.1", server.port());
      if (!client.ok()) {
        std::fprintf(stderr, "connect failed: %s\n",
                     client.status().ToString().c_str());
        return 1;
      }
      pool.push_back(std::move(*client));
    }
    std::vector<net::Client> proxied;
    for (size_t c = 0; c < clients; ++c) {
      auto client = net::Client::Connect("127.0.0.1", proxy.port());
      if (!client.ok()) {
        std::fprintf(stderr, "proxied connect failed: %s\n",
                     client.status().ToString().c_str());
        return 1;
      }
      proxied.push_back(std::move(*client));
    }
    std::vector<net::Client> sharded;
    for (size_t c = 0; c < clients; ++c) {
      auto client = net::Client::Connect("127.0.0.1", coordinator.port());
      if (!client.ok()) {
        std::fprintf(stderr, "coordinator connect failed: %s\n",
                     client.status().ToString().c_str());
        return 1;
      }
      sharded.push_back(std::move(*client));
    }
    PrintRow(RunWorkload("stats_poll", "loopback", clients, kStatsRequests,
                         [&](size_t c, size_t) {
                           return pool[c].MonitorStats().ok();
                         }));
    PrintRow(RunWorkload("stats_poll", "chaos-proxy", clients, kStatsRequests,
                         [&](size_t c, size_t) {
                           return proxied[c].MonitorStats().ok();
                         }));
    PrintRow(RunWorkload("stats_poll", "coordinator", clients, kStatsRequests,
                         [&](size_t c, size_t) {
                           return sharded[c].MonitorStats().ok();
                         }));
    PrintRow(RunWorkload("direct_query", "in-process", clients,
                         kQueryRequests, [&](size_t, size_t) {
                           return rig.system.DirectQuery(query).ok();
                         }));
    PrintRow(RunWorkload("direct_query", "loopback", clients, kQueryRequests,
                         [&](size_t c, size_t) {
                           return pool[c].DirectQuery(query).ok();
                         }));
    PrintRow(RunWorkload("direct_query", "chaos-proxy", clients,
                         kQueryRequests, [&](size_t c, size_t) {
                           return proxied[c].DirectQuery(query).ok();
                         }));
    PrintRow(RunWorkload("direct_query", "coordinator", clients,
                         kQueryRequests, [&](size_t c, size_t) {
                           return sharded[c].DirectQuery(query).ok();
                         }));
  }

  // --- Protocol v5: per-frame vs batched ingest, and push delivery. ---
  // Fresh systems per row: the rig's system is already populated and its
  // per-camera monotone-timestamp guard would reject replayed frames. The
  // frames carry no detections, so both rows pay identical (near-zero)
  // ingest compute and the comparison isolates the per-RPC wire overhead —
  // the thing kIngestBatch amortizes. (With real detection-laden frames the
  // wire all but disappears behind segment-finalization compute, which the
  // core benches price.)
  const core::CameraId ingest_camera = rig.deployment.cameras().front().camera;
  const size_t ingest_frames = 4'096;
  constexpr size_t kIngestBatch = 16;
  std::vector<core::FrameObservation> wire_frames;
  wire_frames.reserve(ingest_frames);
  for (size_t i = 0; i < ingest_frames; ++i) {
    core::FrameObservation frame;
    frame.camera = ingest_camera;
    frame.timestamp_ms = static_cast<int64_t>(i) * 1'000;
    frame.frame_id = static_cast<int64_t>(i);
    wire_frames.push_back(frame);
  }
  double per_frame_fps = 0.0;
  double batched_fps = 0.0;
  for (int batched = 0; batched < 2; ++batched) {
    core::VideoZilla ingest_system(bench::BenchVzOptions());
    net::Server ingest_server(&ingest_system, net::ServerOptions{});
    if (Status s = ingest_server.Start(); !s.ok()) {
      std::fprintf(stderr, "ingest server start failed: %s\n",
                   s.ToString().c_str());
      return 1;
    }
    auto ingest_client_or =
        net::Client::Connect("127.0.0.1", ingest_server.port());
    if (!ingest_client_or.ok()) {
      std::fprintf(stderr, "ingest connect failed: %s\n",
                   ingest_client_or.status().ToString().c_str());
      return 1;
    }
    net::Client ingest_client = std::move(*ingest_client_or);
    if (Status s = ingest_client.CameraStart(ingest_camera); !s.ok()) {
      std::fprintf(stderr, "camera start failed: %s\n", s.ToString().c_str());
      return 1;
    }
    Row row;
    if (batched == 0) {
      row = RunWorkload("ingest_frame", "loopback", 1, ingest_frames,
                        [&](size_t, size_t r) {
                          return ingest_client.IngestFrame(wire_frames[r])
                              .ok();
                        });
      per_frame_fps = row.reqs_per_sec;
    } else {
      row = RunWorkload(
          "ingest_batch16", "loopback", 1, ingest_frames / kIngestBatch,
          [&](size_t, size_t r) {
            std::vector<core::FrameObservation> batch(
                wire_frames.begin() + static_cast<long>(r * kIngestBatch),
                wire_frames.begin() +
                    static_cast<long>((r + 1) * kIngestBatch));
            auto reply = ingest_client.IngestBatch(batch);
            return reply.ok() && reply->rejected == 0;
          });
      batched_fps = row.reqs_per_sec * static_cast<double>(kIngestBatch);
    }
    PrintRow(row);
    ingest_client.Close();
    ingest_server.Shutdown();
  }
  std::printf("\nbatched ingest: %.2fx frames/sec over per-frame "
              "(%.0f vs %.0f)\n",
              per_frame_fps > 0 ? batched_fps / per_frame_fps : 0.0,
              batched_fps, per_frame_fps);

  // Subscribe delivery latency: time from the segment-finalizing ingest RPC
  // leaving one client to the match push arriving on another client's
  // connection. Each round ingests a single frame far past t_max so the
  // open segment finalizes immediately; push_poll_ms=1 so the row prices
  // the engine + wire rather than the drain poll. reqs/sec is left 0 — this
  // is an event-latency row, not a throughput row.
  {
    core::VideoZilla push_system(bench::BenchVzOptions());
    net::ServerOptions push_options;
    push_options.push_poll_ms = 1;
    net::Server push_server(&push_system, push_options);
    if (Status s = push_server.Start(); !s.ok()) {
      std::fprintf(stderr, "push server start failed: %s\n",
                   s.ToString().c_str());
      return 1;
    }
    auto subscriber_or = net::Client::Connect("127.0.0.1", push_server.port());
    auto ingester_or = net::Client::Connect("127.0.0.1", push_server.port());
    if (!subscriber_or.ok() || !ingester_or.ok()) {
      std::fprintf(stderr, "push bench connect failed\n");
      return 1;
    }
    net::Client subscriber = std::move(*subscriber_or);
    net::Client ingester = std::move(*ingester_or);

    std::mutex mu;
    std::condition_variable cv;
    std::vector<Clock::time_point> arrivals;
    net::SubscribeRequest request;
    request.query = query;
    request.threshold = 1e12;  // match-all: the row times delivery, not eval
    auto sub_id =
        subscriber.Subscribe(request, [&](const net::PushEvent&) {
          std::lock_guard<std::mutex> lock(mu);
          arrivals.push_back(Clock::now());
          cv.notify_all();
        });
    if (!sub_id.ok()) {
      std::fprintf(stderr, "subscribe failed: %s\n",
                   sub_id.status().ToString().c_str());
      return 1;
    }
    const core::CameraId camera = rig.deployment.cameras().front().camera;
    if (Status s = ingester.CameraStart(camera); !s.ok()) {
      std::fprintf(stderr, "camera start failed: %s\n", s.ToString().c_str());
      return 1;
    }
    constexpr size_t kPushRounds = 64;
    std::vector<double> push_latencies;
    int64_t ts = 0;
    for (size_t r = 0; r <= kPushRounds; ++r, ts += 300'000) {
      size_t before = 0;
      {
        std::lock_guard<std::mutex> lock(mu);
        before = arrivals.size();
      }
      core::FrameObservation frame;
      frame.camera = camera;
      frame.timestamp_ms = ts;
      frame.frame_id = 10'000'000 + static_cast<int64_t>(r);
      core::DetectedObject object;
      object.feature = query;
      frame.objects.push_back(object);
      const Clock::time_point t0 = Clock::now();
      if (!ingester.IngestFrame(frame).ok()) break;
      if (r == 0) continue;  // the first frame only opens the segment
      std::unique_lock<std::mutex> lock(mu);
      if (!cv.wait_for(lock, std::chrono::seconds(5),
                       [&] { return arrivals.size() > before; })) {
        break;
      }
      push_latencies.push_back(ToMs(arrivals[before] - t0));
    }
    std::sort(push_latencies.begin(), push_latencies.end());
    Row row;
    row.workload = "push_latency";
    row.transport = "loopback";
    row.clients = 1;
    row.requests = push_latencies.size();
    row.p50_ms = Percentile(&push_latencies, 0.50);
    row.p99_ms = Percentile(&push_latencies, 0.99);
    PrintRow(row);
    subscriber.Close();
    ingester.Close();
    push_server.Shutdown();
  }

  const net::CoordinatorStats coord_stats = coordinator.stats();
  coordinator.Shutdown();
  for (auto& edge : edge_servers) edge->Shutdown();
  std::printf("\ncoordinator totals: %llu requests, %llu fan-out legs "
              "(%llu failed, %llu pruned), %llu degraded answers\n",
              static_cast<unsigned long long>(coord_stats.requests_served),
              static_cast<unsigned long long>(coord_stats.fanout_legs),
              static_cast<unsigned long long>(coord_stats.fanout_failures),
              static_cast<unsigned long long>(coord_stats.pruned_legs),
              static_cast<unsigned long long>(coord_stats.degraded_answers));
  proxy.Shutdown();
  server.Shutdown();
  const net::ServerStats stats = server.stats();
  std::printf("\nserver totals: %llu requests, %llu connections, %llu "
              "request errors\n",
              static_cast<unsigned long long>(stats.requests_served),
              static_cast<unsigned long long>(stats.connections_accepted),
              static_cast<unsigned long long>(stats.request_errors));
  return 0;
}
