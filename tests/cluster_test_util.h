#ifndef VZ_TESTS_CLUSTER_TEST_UTIL_H_
#define VZ_TESTS_CLUSTER_TEST_UTIL_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/statusor.h"
#include "core/videozilla.h"
#include "net/client.h"
#include "net/coordinator.h"
#include "net/server.h"
#include "sim/dataset.h"

namespace vz::net {

/// In-process sharded deployment for the cluster drills: N edge shards (one
/// `VideoZilla` + `Server` pair each, cameras split round-robin by
/// `Deployment::PartitionCameras`) plus one `Coordinator` fanning out over
/// them. Lives in tests/ because `vz_sim` cannot link `vz_net`.
///
/// Edges are fed in-process (`IngestShard`) before their servers start
/// serving, so booting a cluster is fast and identical across incarnations;
/// the coordinator runs with its background sync thread disabled — drills
/// drive `Coordinator::PollEdgesNow()` by hand so every health-ladder
/// transition happens at a deterministic point in the test.
class TestCluster {
 public:
  /// `deployment` is borrowed and must outlive the cluster; `num_edges`
  /// edges each own one round-robin camera shard.
  TestCluster(sim::Deployment* deployment, size_t num_edges,
              const core::VideoZillaOptions& system_options)
      : deployment_(deployment),
        system_options_(system_options),
        shards_(deployment->PartitionCameras(num_edges)) {}

  /// Boots every edge: builds its `VideoZilla`, ingests its camera shard,
  /// then starts its server on a kernel-picked port.
  Status StartEdges() {
    for (size_t i = 0; i < shards_.size(); ++i) {
      systems_.push_back(
          std::make_unique<core::VideoZilla>(system_options_));
      VZ_RETURN_IF_ERROR(
          deployment_->IngestShard(systems_.back().get(), shards_[i]));
      servers_.push_back(
          std::make_unique<Server>(systems_.back().get(), ServerOptions{}));
      VZ_RETURN_IF_ERROR(servers_.back()->Start());
      edge_ports_.push_back(servers_.back()->port());
    }
    return Status::OK();
  }

  /// Boots the coordinator over `endpoints` (the edges' own listen ports
  /// when empty — pass proxy ports to interpose a chaos proxy per edge).
  /// Index options are copied from the edges' system options so coordinator
  /// hit tests agree with edge hit tests, and the background sync thread is
  /// disabled (see class comment).
  Status StartCoordinator(CoordinatorOptions options = {},
                          std::vector<EdgeEndpoint> endpoints = {}) {
    if (endpoints.empty()) {
      for (uint16_t port : edge_ports_) {
        endpoints.push_back({"127.0.0.1", port});
      }
    }
    options.edges = std::move(endpoints);
    options.omd = system_options_.omd;
    options.inter = system_options_.inter;
    options.boundary_scale = system_options_.boundary_scale;
    options.sync_interval_ms = 0;
    coordinator_ = std::make_unique<Coordinator>(options);
    return coordinator_->Start();
  }

  /// `kill -9` for edge `i`: no drain, connections torn mid-frame.
  void KillEdge(size_t i) { servers_[i]->Kill(); }

  /// A fresh `Server` incarnation over the same (unchanged) `VideoZilla`,
  /// re-bound to the same port — the restarted-edge half of the drill.
  Status RestartEdge(size_t i) {
    ServerOptions options;
    options.port = edge_ports_[i];
    servers_[i] = std::make_unique<Server>(systems_[i].get(), options);
    return servers_[i]->Start();
  }

  Coordinator& coordinator() { return *coordinator_; }
  Server& server(size_t i) { return *servers_[i]; }
  core::VideoZilla& system(size_t i) { return *systems_[i]; }
  uint16_t edge_port(size_t i) const { return edge_ports_[i]; }
  size_t num_edges() const { return shards_.size(); }

  /// The cameras edge `i` owns, in round-robin assignment order.
  const std::vector<core::CameraId>& shard_cameras(size_t i) const {
    return shards_[i];
  }

  /// A client session against the coordinator. The generous I/O budget
  /// covers a fan-out answer waiting out a slow (proxied) edge leg.
  StatusOr<Client> Connect(uint64_t session_id = 0) const {
    ClientOptions options;
    options.connect_timeout_ms = 2'000;
    options.io_timeout_ms = 30'000;
    options.session_id = session_id;
    options.backoff_seed = 17;
    return Client::Connect("127.0.0.1", coordinator_->port(), options);
  }

 private:
  sim::Deployment* deployment_;
  core::VideoZillaOptions system_options_;
  std::vector<std::vector<core::CameraId>> shards_;
  std::vector<std::unique_ptr<core::VideoZilla>> systems_;
  std::vector<std::unique_ptr<Server>> servers_;
  std::vector<uint16_t> edge_ports_;
  // Declared last: destroyed first, so the coordinator shuts down while the
  // edges it holds connections to are still alive.
  std::unique_ptr<Coordinator> coordinator_;
};

}  // namespace vz::net

#endif  // VZ_TESTS_CLUSTER_TEST_UTIL_H_
