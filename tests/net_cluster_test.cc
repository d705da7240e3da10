// Sharded-deployment drills for the coordinator (see DESIGN.md, "Sharded
// deployment"):
//   1. a seeded kill -9 of one edge mid-query: answers during the outage are
//      best-effort partials (degraded + excluded cameras + lowered completed
//      fraction), never errors; the health ladder evicts the dead edge; a
//      restarted edge re-syncs its representatives and rejoins with answers
//      bit-identical to a fault-free control — across VZ_CLUSTER_SEEDS
//      (default 10) kill/victim combinations;
//   2. representative-index fan-out pruning never changes an answer (a
//      pruned shard could not have contributed anything), also after an
//      AdminTune through the coordinator widens the edges' boundaries or
//      switches them to an index mode that does not answer from cluster
//      representatives;
//   3. scatter-gather merge determinism: with edge clocks on a SimClock and
//      delay-only chaos proxies reordering which edge answers first, the
//      merged answer is bit-identical across response orders and edge
//      thread counts;
//   4. the coordinator is a read-only query plane: mutating and replication
//      RPCs are refused with kFailedPrecondition;
//   5. fan-out timing: legs to healthy edges overlap, legs that must dial
//      blackholed edges do so side by side, and a stale pooled connection
//      is absorbed by the leg's own reconnect.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "common/rng.h"
#include "common/sim_clock.h"
#include "core/videozilla.h"
#include "net/chaos_proxy.h"
#include "net/client.h"
#include "net/coordinator.h"
#include "sim/dataset.h"
#include "cluster_test_util.h"

namespace vz::net {
namespace {

using core::VideoZillaOptions;

size_t EnvSeedCount(const char* name, size_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr) return fallback;
  const long parsed = std::strtol(value, nullptr, 10);
  return parsed > 0 ? static_cast<size_t>(parsed) : fallback;
}

sim::DeploymentOptions SmallDeployment() {
  sim::DeploymentOptions options;
  options.cities = 1;
  options.downtown_per_city = 1;
  options.highway_cameras = 2;
  options.train_stations = 1;
  options.harbors = 1;
  options.feed_duration_ms = 90'000;
  options.fps = 1.0;
  options.feature_dim = 32;
  options.seed = 29;
  return options;
}

VideoZillaOptions SmallSystemOptions() {
  VideoZillaOptions options;
  options.segmenter.t_max_ms = 20'000;
  options.enable_keyframe_selection = false;
  options.ingest.expected_feature_dim = 32;
  return options;
}

/// The kill drill consults every shard unconditionally: pruning would let a
/// victim whose representatives miss the query escape being fanned out to,
/// and the drill's assertions need the dead shard in the consult set.
CoordinatorOptions DrillCoordinatorOptions() {
  CoordinatorOptions options;
  options.prune_direct_fanout = false;
  return options;
}

/// Field-by-field equality of two merged direct answers — "bit-identical"
/// in the drills' sense (exact doubles included: both sides must have
/// summed the same per-shard values in the same shard order).
void ExpectDirectEq(const core::DirectQueryResult& got,
                    const core::DirectQueryResult& want) {
  EXPECT_EQ(got.candidate_svss, want.candidate_svss);
  EXPECT_EQ(got.matched_svss, want.matched_svss);
  EXPECT_EQ(got.total_gpu_ms, want.total_gpu_ms);
  EXPECT_EQ(got.bottleneck_camera_gpu_ms, want.bottleneck_camera_gpu_ms);
  EXPECT_EQ(got.per_camera_gpu_ms, want.per_camera_gpu_ms);
  EXPECT_EQ(got.frames_processed, want.frames_processed);
  EXPECT_EQ(got.cameras_searched, want.cameras_searched);
  EXPECT_EQ(got.degraded, want.degraded);
  EXPECT_EQ(got.excluded_cameras, want.excluded_cameras);
  EXPECT_EQ(got.timed_out, want.timed_out);
  EXPECT_EQ(got.completed_fraction, want.completed_fraction);
}

void ExpectClusteringEq(const core::ClusteringQueryResult& got,
                        const core::ClusteringQueryResult& want) {
  EXPECT_EQ(got.similar_svss, want.similar_svss);
  EXPECT_EQ(got.cameras_contributing, want.cameras_contributing);
  EXPECT_EQ(got.degraded, want.degraded);
  EXPECT_EQ(got.excluded_cameras, want.excluded_cameras);
  EXPECT_EQ(got.timed_out, want.timed_out);
  EXPECT_EQ(got.completed_fraction, want.completed_fraction);
  EXPECT_EQ(got.fast_omd_routed, want.fast_omd_routed);
}

/// `ids` minus everything owned by `shard` (global ids keep their relative
/// order — exactly what a merge without that shard's leg produces).
std::vector<core::SvsId> WithoutShard(const std::vector<core::SvsId>& ids,
                                      size_t shard) {
  std::vector<core::SvsId> kept;
  for (core::SvsId id : ids) {
    if (ShardOfSvsId(id) != shard) kept.push_back(id);
  }
  return kept;
}

/// First id in `ids` owned by `shard`, if any.
std::optional<core::SvsId> FirstOwnedBy(const std::vector<core::SvsId>& ids,
                                        size_t shard) {
  for (core::SvsId id : ids) {
    if (ShardOfSvsId(id) == shard) return id;
  }
  return std::nullopt;
}

// Drill 1: kill an edge mid-query, answer from the survivors, evict, then
// restart and rejoin. The coordinator must behave exactly like a single
// node with one stalled camera: degrade the answer, never error, and
// converge back to the fault-free answer once the shard is whole again.
TEST(NetClusterTest, SeededEdgeKillDegradesThenRecoversBitIdentical) {
  sim::Deployment deployment(SmallDeployment());
  deployment.observations();  // materialize once, shared by every cluster
  const size_t kEdges = 3;

  // Fault-free control cluster, booted once: every seed must converge to
  // its answer.
  TestCluster control(&deployment, kEdges, SmallSystemOptions());
  ASSERT_TRUE(control.StartEdges().ok());
  ASSERT_TRUE(control.StartCoordinator(DrillCoordinatorOptions()).ok());
  // The initial sync pass fed the coordinator-local representative index.
  EXPECT_GT(control.coordinator().stats().rep_entries, 0u);
  auto control_connected = control.Connect(100);
  ASSERT_TRUE(control_connected.ok());
  Client control_client = std::move(*control_connected);

  // The drill's filtered-id assertions need a query with candidates; which
  // object class produces them depends on the deployment, so scan.
  Rng query_rng(11);
  FeatureVector query;
  StatusOr<core::DirectQueryResult> expected =
      Status::NotFound("no matching object class");
  for (int object_class = 0; object_class < 8; ++object_class) {
    query = deployment.MakeQueryFeature(object_class, &query_rng);
    expected = control_client.DirectQuery(query);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    if (!expected->candidate_svss.empty()) break;
  }
  EXPECT_FALSE(expected->degraded);
  EXPECT_EQ(expected->completed_fraction, 1.0);
  ASSERT_FALSE(expected->candidate_svss.empty());

  const size_t seeds = EnvSeedCount("VZ_CLUSTER_SEEDS", 10);
  for (size_t seed = 0; seed < seeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const size_t victim = seed % kEdges;

    TestCluster cluster(&deployment, kEdges, SmallSystemOptions());
    ASSERT_TRUE(cluster.StartEdges().ok());
    ASSERT_TRUE(cluster.StartCoordinator(DrillCoordinatorOptions()).ok());
    auto connected = cluster.Connect(200 + seed);
    ASSERT_TRUE(connected.ok());
    Client client = std::move(*connected);

    // Sanity: the fault-free answer matches the control bit for bit.
    auto before = client.DirectQuery(query);
    ASSERT_TRUE(before.ok()) << before.status().ToString();
    ExpectDirectEq(*before, *expected);

    // --- Kill the victim abruptly. ---
    cluster.KillEdge(victim);

    std::vector<core::CameraId> victim_cameras =
        cluster.shard_cameras(victim);
    std::sort(victim_cameras.begin(), victim_cameras.end());

    // A query during the outage: still consulted (not yet evicted), so the
    // dead leg fails inside the query — the answer is a best-effort partial
    // from the survivors, never an error.
    auto during = client.DirectQuery(query);
    ASSERT_TRUE(during.ok()) << during.status().ToString();
    EXPECT_TRUE(during->degraded);
    EXPECT_DOUBLE_EQ(during->completed_fraction,
                     static_cast<double>(kEdges - 1) / kEdges);
    EXPECT_EQ(during->excluded_cameras, victim_cameras);
    EXPECT_EQ(during->candidate_svss,
              WithoutShard(expected->candidate_svss, victim));
    EXPECT_EQ(during->matched_svss,
              WithoutShard(expected->matched_svss, victim));

    // The failed leg demoted the victim; one sync pass (another failure)
    // crosses unreachable_after = 2 and evicts it.
    EXPECT_EQ(cluster.coordinator().shard_health()[victim].state,
              ShardState::kDegraded);
    EXPECT_EQ(cluster.coordinator().PollEdgesNow(), kEdges - 1);
    EXPECT_EQ(cluster.coordinator().shard_health()[victim].state,
              ShardState::kUnreachable);

    // The ladder travels the wire: MonitorStats carries the shard table.
    auto monitor = client.MonitorStats();
    ASSERT_TRUE(monitor.ok()) << monitor.status().ToString();
    ASSERT_EQ(monitor->serving.shards.size(), kEdges);
    EXPECT_EQ(monitor->serving.shards[victim].state,
              ShardState::kUnreachable);

    // Post-eviction: the dead shard is no longer consulted, so the legs
    // that do run all complete — but the answer still declares what is
    // missing.
    auto evicted = client.DirectQuery(query);
    ASSERT_TRUE(evicted.ok()) << evicted.status().ToString();
    EXPECT_TRUE(evicted->degraded);
    EXPECT_EQ(evicted->completed_fraction, 1.0);
    EXPECT_EQ(evicted->excluded_cameras, victim_cameras);
    EXPECT_EQ(evicted->candidate_svss,
              WithoutShard(expected->candidate_svss, victim));

    // A by-id clustering query whose target lives on the dead shard: an
    // empty, fully degraded partial — still OK, not an error. Metadata, by
    // contrast, is not a query and errs.
    const std::optional<core::SvsId> victim_id =
        FirstOwnedBy(expected->candidate_svss, victim);
    if (victim_id.has_value()) {
      auto orphaned = client.ClusteringQuery(*victim_id);
      ASSERT_TRUE(orphaned.ok()) << orphaned.status().ToString();
      EXPECT_TRUE(orphaned->degraded);
      EXPECT_TRUE(orphaned->similar_svss.empty());
      EXPECT_EQ(orphaned->completed_fraction, 0.0);
      EXPECT_EQ(orphaned->excluded_cameras, victim_cameras);

      auto meta = client.GetMetaData(*victim_id);
      ASSERT_FALSE(meta.ok());
      EXPECT_EQ(meta.status().code(), StatusCode::kUnavailable);
    }

    // --- Restart the edge on its old port: the same (unchanged) system
    // --- behind a fresh server incarnation. ---
    ASSERT_TRUE(cluster.RestartEdge(victim).ok());

    // The next pass probes it (PollEdgesNow ignores backoff), re-syncs its
    // representatives and re-admits it.
    EXPECT_EQ(cluster.coordinator().PollEdgesNow(), kEdges);
    EXPECT_EQ(cluster.coordinator().shard_health()[victim].state,
              ShardState::kHealthy);

    // Rejoined: bit-identical to the fault-free control again.
    auto after = client.DirectQuery(query);
    ASSERT_TRUE(after.ok()) << after.status().ToString();
    ExpectDirectEq(*after, *expected);

    const core::SvsId target = expected->candidate_svss.front();
    auto expected_similar = control_client.ClusteringQuery(target);
    ASSERT_TRUE(expected_similar.ok());
    auto similar = client.ClusteringQuery(target);
    ASSERT_TRUE(similar.ok()) << similar.status().ToString();
    ExpectClusteringEq(*similar, *expected_similar);

    client.Close();
  }
}

// Drill 2: fan-out pruning through the coordinator-local representative
// index must never change an answer — a pruned shard is one none of whose
// representatives pass the hit test, and such a shard's own edge query
// would have returned nothing either.
TEST(NetClusterTest, RepresentativePruningNeverChangesAnswers) {
  sim::Deployment deployment(SmallDeployment());
  deployment.observations();
  const size_t kEdges = 3;

  TestCluster cluster(&deployment, kEdges, SmallSystemOptions());
  ASSERT_TRUE(cluster.StartEdges().ok());
  // Pruning coordinator over the edges directly...
  CoordinatorOptions pruning;
  pruning.prune_direct_fanout = true;
  ASSERT_TRUE(cluster.StartCoordinator(pruning).ok());
  auto connected = cluster.Connect(400);
  ASSERT_TRUE(connected.ok());
  Client pruned_client = std::move(*connected);

  // ...and an unpruned control coordinator over the very same edges.
  std::vector<EdgeEndpoint> endpoints;
  for (size_t i = 0; i < kEdges; ++i) {
    endpoints.push_back({"127.0.0.1", cluster.edge_port(i)});
  }
  CoordinatorOptions unpruned = DrillCoordinatorOptions();
  unpruned.omd = SmallSystemOptions().omd;
  unpruned.inter = SmallSystemOptions().inter;
  unpruned.boundary_scale = SmallSystemOptions().boundary_scale;
  unpruned.edges = endpoints;
  unpruned.sync_interval_ms = 0;
  Coordinator control(unpruned);
  ASSERT_TRUE(control.Start().ok());
  auto control_connected = Client::Connect("127.0.0.1", control.port());
  ASSERT_TRUE(control_connected.ok());
  Client control_client = std::move(*control_connected);

  Rng rng(23);
  for (int object_class = 0; object_class < 6; ++object_class) {
    SCOPED_TRACE("object class " + std::to_string(object_class));
    const FeatureVector query =
        deployment.MakeQueryFeature(object_class, &rng);
    auto got = pruned_client.DirectQuery(query);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    auto want = control_client.DirectQuery(query);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    EXPECT_EQ(got->candidate_svss, want->candidate_svss);
    EXPECT_EQ(got->matched_svss, want->matched_svss);
    EXPECT_EQ(got->total_gpu_ms, want->total_gpu_ms);
    EXPECT_EQ(got->frames_processed, want->frames_processed);
    EXPECT_EQ(got->degraded, want->degraded);
    EXPECT_EQ(got->completed_fraction, want->completed_fraction);
  }

  control_client.Close();
  pruned_client.Close();
  control.Shutdown();
}

// Drill 2b: the coordinator prunes at the tuning it fanned out. An
// AdminTune through it that widens the edges' boundaries, or puts them in
// an index mode whose candidates do not all come from a shipped
// representative (kFlatSvs, kFlat), must not leave pruning behind: answers
// stay equal to an unpruned control over the same edges in every phase.
TEST(NetClusterTest, PruningFollowsTuningFannedOutThroughTheCoordinator) {
  sim::Deployment deployment(SmallDeployment());
  deployment.observations();
  const size_t kEdges = 3;

  TestCluster cluster(&deployment, kEdges, SmallSystemOptions());
  ASSERT_TRUE(cluster.StartEdges().ok());
  CoordinatorOptions pruning;
  pruning.prune_direct_fanout = true;
  ASSERT_TRUE(cluster.StartCoordinator(pruning).ok());
  auto connected = cluster.Connect(410);
  ASSERT_TRUE(connected.ok());
  Client pruned_client = std::move(*connected);

  std::vector<EdgeEndpoint> endpoints;
  for (size_t i = 0; i < kEdges; ++i) {
    endpoints.push_back({"127.0.0.1", cluster.edge_port(i)});
  }
  CoordinatorOptions unpruned = DrillCoordinatorOptions();
  unpruned.edges = endpoints;
  unpruned.sync_interval_ms = 0;
  Coordinator control(unpruned);
  ASSERT_TRUE(control.Start().ok());
  auto control_connected = Client::Connect("127.0.0.1", control.port());
  ASSERT_TRUE(control_connected.ok());
  Client control_client = std::move(*control_connected);

  Rng rng(23);
  std::vector<FeatureVector> queries;
  for (int object_class = 0; object_class < 6; ++object_class) {
    queries.push_back(deployment.MakeQueryFeature(object_class, &rng));
  }
  // Every phase's answers equal the control's; returns the legs the pruning
  // coordinator pruned over the phase.
  const auto expect_answers_match = [&](const std::string& phase) {
    SCOPED_TRACE(phase);
    const uint64_t pruned_before =
        cluster.coordinator().stats().pruned_legs;
    for (size_t q = 0; q < queries.size(); ++q) {
      SCOPED_TRACE("object class " + std::to_string(q));
      auto got = pruned_client.DirectQuery(queries[q]);
      EXPECT_TRUE(got.ok()) << got.status().ToString();
      auto want = control_client.DirectQuery(queries[q]);
      EXPECT_TRUE(want.ok()) << want.status().ToString();
      if (!got.ok() || !want.ok()) continue;
      EXPECT_EQ(got->candidate_svss, want->candidate_svss);
      EXPECT_EQ(got->matched_svss, want->matched_svss);
      EXPECT_EQ(got->frames_processed, want->frames_processed);
      EXPECT_EQ(got->degraded, want->degraded);
    }
    return cluster.coordinator().stats().pruned_legs - pruned_before;
  };
  const auto tune = [&](const AdminTuneRequest& request) {
    auto echoed = pruned_client.AdminTune(request);
    EXPECT_TRUE(echoed.ok()) << echoed.status().ToString();
    return echoed.ok();
  };

  EXPECT_GT(expect_answers_match("as started"), 0u);

  AdminTuneRequest wider;
  wider.boundary_scale = 2.0;
  ASSERT_TRUE(tune(wider));
  expect_answers_match("boundary scale 2.0");

  AdminTuneRequest flat;
  flat.index_mode = static_cast<uint32_t>(core::IndexMode::kFlat);
  ASSERT_TRUE(tune(flat));
  EXPECT_EQ(expect_answers_match("flat"), 0u);

  AdminTuneRequest flat_svs;
  flat_svs.index_mode = static_cast<uint32_t>(core::IndexMode::kFlatSvs);
  ASSERT_TRUE(tune(flat_svs));
  EXPECT_EQ(expect_answers_match("flat SVS"), 0u);

  // Back to the hierarchy at the options' scale: pruning resumes.
  AdminTuneRequest restored;
  restored.index_mode = static_cast<uint32_t>(core::IndexMode::kHierarchical);
  restored.boundary_scale = 1.0;
  ASSERT_TRUE(tune(restored));
  EXPECT_GT(expect_answers_match("restored"), 0u);

  control_client.Close();
  pruned_client.Close();
  control.Shutdown();
}

// Drill 3 (merge determinism): with every edge behind a delay-only chaos
// proxy, which shard answers first varies per proxy seed — and with edge
// clocks pinned to a SimClock, the travelling deadline budgets can never
// fire. Across response orders and edge thread counts the merged answer
// must be bit-identical: merging is by shard index, never completion order.
TEST(NetClusterTest, MergeIsBitIdenticalAcrossArrivalOrderAndThreadCounts) {
  sim::Deployment deployment(SmallDeployment());
  deployment.observations();
  const size_t kEdges = 3;
  const size_t kReorderSeeds = 3;

  Rng query_rng(13);
  const FeatureVector query = deployment.MakeQueryFeature(1, &query_rng);

  std::optional<core::DirectQueryResult> baseline_direct;
  std::optional<core::ClusteringQueryResult> baseline_similar;

  for (size_t num_threads : {size_t{1}, size_t{4}}) {
    for (size_t seed = 0; seed < kReorderSeeds; ++seed) {
      SCOPED_TRACE("threads " + std::to_string(num_threads) + " seed " +
                   std::to_string(seed));

      SimClock clock;  // never advanced: deadlines travel but cannot fire
      SimClockTimeSource time_source(&clock);
      VideoZillaOptions system_options = SmallSystemOptions();
      system_options.num_threads = num_threads;
      system_options.time_source = &time_source;

      TestCluster cluster(&deployment, kEdges, system_options);
      ASSERT_TRUE(cluster.StartEdges().ok());

      // One delay-only proxy per edge: frames arrive intact but late, per
      // a seed that changes which leg completes first.
      std::vector<std::unique_ptr<ChaosProxy>> proxies;
      std::vector<EdgeEndpoint> endpoints;
      for (size_t i = 0; i < kEdges; ++i) {
        ChaosProxyOptions proxy_options;
        proxy_options.upstream_port = cluster.edge_port(i);
        proxy_options.chunk_bytes = 512;
        proxy_options.faults.seed = 1'000 * (seed + 1) + i;
        proxy_options.faults.delay_probability = 0.6;
        proxy_options.faults.delay_ms = 3;
        proxies.push_back(std::make_unique<ChaosProxy>(proxy_options));
        ASSERT_TRUE(proxies.back()->Start().ok());
        endpoints.push_back({"127.0.0.1", proxies.back()->port()});
      }
      ASSERT_TRUE(cluster.StartCoordinator({}, endpoints).ok());
      auto connected = cluster.Connect(500 + seed);
      ASSERT_TRUE(connected.ok());
      Client client = std::move(*connected);

      core::QueryConstraints constraints;
      constraints.deadline_ms = 60'000;
      auto direct = client.DirectQuery(query, constraints);
      ASSERT_TRUE(direct.ok()) << direct.status().ToString();
      EXPECT_FALSE(direct->degraded);
      EXPECT_FALSE(direct->timed_out);
      EXPECT_EQ(direct->completed_fraction, 1.0);

      if (!baseline_direct.has_value()) {
        baseline_direct = *direct;
        ASSERT_FALSE(baseline_direct->candidate_svss.empty());
      } else {
        ExpectDirectEq(*direct, *baseline_direct);
      }

      auto similar = client.ClusteringQuery(
          baseline_direct->candidate_svss.front(), constraints);
      ASSERT_TRUE(similar.ok()) << similar.status().ToString();
      if (!baseline_similar.has_value()) {
        baseline_similar = *similar;
      } else {
        ExpectClusteringEq(*similar, *baseline_similar);
      }

      client.Close();
      for (auto& proxy : proxies) proxy->Shutdown();
    }
  }
}

// Drill 4: the coordinator is a read-only query plane — ingest, camera
// lifecycle, snapshots and the edge-to-edge replication RPCs are all
// refused with kFailedPrecondition (and the connection survives the
// refusal: it is an RPC error, not a protocol violation).
TEST(NetClusterTest, CoordinatorRefusesMutatingAndReplicationRpcs) {
  sim::Deployment deployment(SmallDeployment());
  deployment.observations();

  TestCluster cluster(&deployment, 2, SmallSystemOptions());
  ASSERT_TRUE(cluster.StartEdges().ok());
  ASSERT_TRUE(cluster.StartCoordinator().ok());
  auto connected = cluster.Connect(600);
  ASSERT_TRUE(connected.ok());
  Client client = std::move(*connected);

  EXPECT_EQ(client.CameraStart("rogue").code(),
            StatusCode::kFailedPrecondition);
  core::FrameObservation obs = deployment.observations().front();
  EXPECT_EQ(client.IngestFrame(obs).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(client.Flush().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(client.SaveSnapshot("/tmp/never-written.vzss").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(client.WalShip(0, 1, 0).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(client.RepSync(0).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(client.CheckpointFetch().status().code(),
            StatusCode::kFailedPrecondition);

  // The connection is still good: reads keep working after every refusal.
  auto monitor = client.MonitorStats();
  ASSERT_TRUE(monitor.ok()) << monitor.status().ToString();
  EXPECT_EQ(monitor->serving.shards.size(), 2u);

  client.Close();
}

// The coordinator's Monitor reply describes its own front end — the pings
// it answered and the client connections it supervises — not the edges'.
TEST(NetClusterTest, CoordinatorMonitorReportsItsOwnFrontEnd) {
  sim::Deployment deployment(SmallDeployment());
  deployment.observations();

  TestCluster cluster(&deployment, 2, SmallSystemOptions());
  ASSERT_TRUE(cluster.StartEdges().ok());
  ASSERT_TRUE(cluster.StartCoordinator().ok());
  auto connected = cluster.Connect(700);
  ASSERT_TRUE(connected.ok());
  Client client = std::move(*connected);

  ASSERT_TRUE(client.Ping().ok());
  auto monitor = client.MonitorStats();
  ASSERT_TRUE(monitor.ok()) << monitor.status().ToString();
  EXPECT_GE(monitor->serving.pings_served, 1u);
  EXPECT_EQ(monitor->serving.connections_accepted, 1u);
  // This client's connection is the only one, with its Hello and Ping.
  ASSERT_EQ(monitor->serving.connections.size(), 1u);
  EXPECT_GE(monitor->serving.connections[0].rpcs, 2u);
  EXPECT_GT(monitor->serving.connections[0].bytes_in, 0u);

  client.Close();
}

// Drill 5a: every leg's first attempt is on the wire before any reply is
// awaited. Behind delay-only proxies each round trip costs ~2 x 100 ms, so
// legs sent one after another would take at least three times one edge's
// round trip; overlapping legs take about one.
TEST(NetClusterTest, FanOutLegsOverlap) {
  sim::Deployment deployment(SmallDeployment());
  deployment.observations();
  const size_t kEdges = 3;

  TestCluster cluster(&deployment, kEdges, SmallSystemOptions());
  ASSERT_TRUE(cluster.StartEdges().ok());
  std::vector<std::unique_ptr<ChaosProxy>> proxies;
  std::vector<EdgeEndpoint> endpoints;
  for (size_t i = 0; i < kEdges; ++i) {
    ChaosProxyOptions proxy_options;
    proxy_options.upstream_port = cluster.edge_port(i);
    proxy_options.faults.seed = 7'000 + i;
    proxy_options.faults.delay_probability = 1.0;
    proxy_options.faults.delay_ms = 100;
    proxies.push_back(std::make_unique<ChaosProxy>(proxy_options));
    ASSERT_TRUE(proxies.back()->Start().ok());
    endpoints.push_back({"127.0.0.1", proxies.back()->port()});
  }
  ASSERT_TRUE(
      cluster.StartCoordinator(DrillCoordinatorOptions(), endpoints).ok());
  auto connected = cluster.Connect(800);
  ASSERT_TRUE(connected.ok());
  Client client = std::move(*connected);

  Rng query_rng(17);
  const FeatureVector query = deployment.MakeQueryFeature(0, &query_rng);
  auto warm_up = client.DirectQuery(query);
  ASSERT_TRUE(warm_up.ok()) << warm_up.status().ToString();
  ASSERT_FALSE(warm_up->degraded);

  // The same query straight to each edge through its proxy.
  std::chrono::steady_clock::duration slowest_edge{};
  for (size_t i = 0; i < kEdges; ++i) {
    auto edge = Client::Connect("127.0.0.1", proxies[i]->port());
    ASSERT_TRUE(edge.ok()) << edge.status().ToString();
    const auto sent = std::chrono::steady_clock::now();
    ASSERT_TRUE(edge->DirectQuery(query).ok());
    slowest_edge =
        std::max(slowest_edge, std::chrono::steady_clock::now() - sent);
  }

  const auto sent = std::chrono::steady_clock::now();
  auto fanned = client.DirectQuery(query);
  const auto elapsed = std::chrono::steady_clock::now() - sent;
  ASSERT_TRUE(fanned.ok()) << fanned.status().ToString();
  EXPECT_FALSE(fanned->degraded);
  EXPECT_EQ(fanned->candidate_svss, warm_up->candidate_svss);
  EXPECT_LT(elapsed, slowest_edge * 3 / 2);

  client.Close();
  for (auto& proxy : proxies) proxy->Shutdown();
}

// Drill 5b: with a cold pool, every leg must dial, and a blackholed edge
// holds each of its two handshake attempts (the dial's one reconnect) for
// the full 300 ms I/O budget. Dials side by side answer in ~600 ms; dials
// one after another would take at least 1,200 ms.
TEST(NetClusterTest, LegsDialBlackholedEdgesSideBySide) {
  sim::Deployment deployment(SmallDeployment());
  deployment.observations();
  const size_t kEdges = 2;

  TestCluster cluster(&deployment, kEdges, SmallSystemOptions());
  ASSERT_TRUE(cluster.StartEdges().ok());
  std::vector<std::unique_ptr<ChaosProxy>> proxies;
  std::vector<EdgeEndpoint> endpoints;
  for (size_t i = 0; i < kEdges; ++i) {
    ChaosProxyOptions proxy_options;
    proxy_options.upstream_port = cluster.edge_port(i);
    proxy_options.faults.seed = 9'000 + i;
    proxy_options.faults.blackhole_probability = 1.0;
    proxies.push_back(std::make_unique<ChaosProxy>(proxy_options));
    ASSERT_TRUE(proxies.back()->Start().ok());
    endpoints.push_back({"127.0.0.1", proxies.back()->port()});
  }
  CoordinatorOptions options = DrillCoordinatorOptions();
  options.edge_io_timeout_ms = 300;
  // The start-up sync fails once per edge: both stay eligible (one failure
  // short of eviction) with nothing pooled.
  ASSERT_TRUE(cluster.StartCoordinator(options, endpoints).ok());
  Coordinator& coordinator = cluster.coordinator();
  std::vector<core::CameraId> all_cameras;
  for (size_t i = 0; i < kEdges; ++i) {
    ASSERT_TRUE(coordinator.registry().Eligible(i));
    // No sync ever got through, so hand the registry each shard's cameras
    // for the degraded answer to list.
    coordinator.registry().RecordCameras(i, cluster.shard_cameras(i));
    all_cameras.insert(all_cameras.end(), cluster.shard_cameras(i).begin(),
                       cluster.shard_cameras(i).end());
  }
  std::sort(all_cameras.begin(), all_cameras.end());
  auto connected = cluster.Connect(900);
  ASSERT_TRUE(connected.ok());
  Client client = std::move(*connected);

  Rng query_rng(19);
  const FeatureVector query = deployment.MakeQueryFeature(0, &query_rng);
  const uint64_t failures_before = coordinator.stats().fanout_failures;
  const auto sent = std::chrono::steady_clock::now();
  auto answer = client.DirectQuery(query);
  const auto elapsed = std::chrono::steady_clock::now() - sent;
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_TRUE(answer->degraded);
  EXPECT_EQ(answer->completed_fraction, 0.0);
  EXPECT_TRUE(answer->candidate_svss.empty());
  EXPECT_EQ(answer->excluded_cameras, all_cameras);
  EXPECT_EQ(coordinator.stats().fanout_failures - failures_before, kEdges);
  EXPECT_LT(elapsed, std::chrono::milliseconds(900));

  client.Close();
  for (auto& proxy : proxies) proxy->Shutdown();
}

// Drill 5c: an edge restarted between two queries leaves the coordinator a
// pooled connection to its dead incarnation. The leg's one reconnect
// absorbs it: the answer is whole, and the shard never looks unhealthy.
TEST(NetClusterTest, StalePooledConnectionIsAbsorbedByTheLegsReconnect) {
  sim::Deployment deployment(SmallDeployment());
  deployment.observations();
  const size_t kEdges = 2;

  TestCluster cluster(&deployment, kEdges, SmallSystemOptions());
  ASSERT_TRUE(cluster.StartEdges().ok());
  ASSERT_TRUE(cluster.StartCoordinator(DrillCoordinatorOptions()).ok());
  auto connected = cluster.Connect(1'000);
  ASSERT_TRUE(connected.ok());
  Client client = std::move(*connected);

  Rng query_rng(23);
  const FeatureVector query = deployment.MakeQueryFeature(0, &query_rng);
  auto before = client.DirectQuery(query);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  EXPECT_FALSE(before->degraded);

  cluster.KillEdge(0);
  ASSERT_TRUE(cluster.RestartEdge(0).ok());

  // No PollEdgesNow in between: the query meets the stale connection.
  const uint64_t failures_before =
      cluster.coordinator().stats().fanout_failures;
  auto after = client.DirectQuery(query);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  ExpectDirectEq(*after, *before);
  EXPECT_EQ(cluster.coordinator().stats().fanout_failures, failures_before);
  EXPECT_EQ(cluster.coordinator().shard_health()[0].state,
            ShardState::kHealthy);

  client.Close();
}

}  // namespace
}  // namespace vz::net
