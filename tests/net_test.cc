// Loopback tests of the networked serving layer: a real TCP server and
// clients on 127.0.0.1. The headline contract is transparency — a remote
// ingest-then-query round trip must be bit-identical to the same operations
// in process — plus the serving-specific behaviours: concurrent clients,
// deadline expiry over the wire, connection- and admission-level shedding
// with client backoff, the Hello version check, and graceful-shutdown
// draining of in-flight requests. The front-end protocol cases run against
// an edge server and against a coordinator over one edge.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/socket.h"
#include "core/videozilla.h"
#include "net/client.h"
#include "net/coordinator.h"
#include "net/server.h"
#include "net/wire.h"
#include "sim/dataset.h"
#include "sim/verifier.h"

namespace vz::net {
namespace {

using core::VideoZilla;
using core::VideoZillaOptions;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

sim::DeploymentOptions SmallDeployment() {
  sim::DeploymentOptions options;
  options.cities = 1;
  options.downtown_per_city = 1;
  options.highway_cameras = 1;
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

// A rig owning one system; either ingested in process or served over TCP.
struct Rig {
  std::unique_ptr<sim::Deployment> deployment;
  std::unique_ptr<VideoZilla> system;
  std::unique_ptr<sim::HeavyModel> heavy;
  std::unique_ptr<sim::SimObjectVerifier> verifier;

  explicit Rig(const VideoZillaOptions& options = SmallSystemOptions()) {
    deployment = std::make_unique<sim::Deployment>(SmallDeployment());
    (void)deployment->observations();
    system = std::make_unique<VideoZilla>(options);
    heavy = std::make_unique<sim::HeavyModel>();
    verifier = std::make_unique<sim::SimObjectVerifier>(
        &deployment->space(), &deployment->log(), heavy.get());
    system->SetVerifier(verifier.get());
  }
};

// Streams the rig's deployment into a server through `client` — the same
// camera-start / per-frame / flush sequence Deployment::IngestAll runs
// in process.
void IngestOverWire(Rig* rig, Client* client) {
  for (const auto& info : rig->deployment->cameras()) {
    ASSERT_TRUE(client->CameraStart(info.camera).ok());
  }
  for (const auto& observation : rig->deployment->observations()) {
    ASSERT_TRUE(client->IngestFrame(observation).ok());
  }
  ASSERT_TRUE(client->Flush().ok());
}

// A verifier that blocks its first Verify call until released; later calls
// pass straight through. Lets tests pin a query mid-flight
// deterministically.
class LatchedVerifier : public core::ObjectVerifier {
 public:
  explicit LatchedVerifier(core::ObjectVerifier* inner) : inner_(inner) {}

  Verification Verify(const core::Svs& svs,
                      const FeatureVector& query_feature) override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (!first_seen_) {
        first_seen_ = true;
        entered_ = true;
        entered_cv_.notify_all();
        release_cv_.wait(lock, [this] { return released_; });
      }
    }
    return inner_->Verify(svs, query_feature);
  }

  void WaitEntered() {
    std::unique_lock<std::mutex> lock(mu_);
    entered_cv_.wait(lock, [this] { return entered_; });
  }

  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    release_cv_.notify_all();
  }

 private:
  core::ObjectVerifier* inner_;
  std::mutex mu_;
  std::condition_variable entered_cv_;
  std::condition_variable release_cv_;
  bool first_seen_ = false;
  bool entered_ = false;
  bool released_ = false;
};

// A verifier that records the threads verification runs on. Its first call
// waits (up to 2 s) for a second thread to arrive, so a pool with a free
// worker shows up as two threads however fast one lane alone could drain
// the candidates; a pool with none runs on one thread after the wait.
class ThreadRecordingVerifier : public core::ObjectVerifier {
 public:
  explicit ThreadRecordingVerifier(core::ObjectVerifier* inner)
      : inner_(inner) {}

  Verification Verify(const core::Svs& svs,
                      const FeatureVector& query_feature) override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      threads_.insert(std::this_thread::get_id());
      cv_.notify_all();
      if (!waited_) {
        waited_ = true;
        cv_.wait_for(lock, std::chrono::seconds(2),
                     [this] { return threads_.size() > 1; });
      }
    }
    return inner_->Verify(svs, query_feature);
  }

  size_t threads() {
    std::lock_guard<std::mutex> lock(mu_);
    return threads_.size();
  }

 private:
  core::ObjectVerifier* inner_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::set<std::thread::id> threads_;
  bool waited_ = false;
};

TEST(NetTest, RemoteRoundTripBitIdenticalToInProcess) {
  // Two identical worlds: one queried in process, one ingested and queried
  // over TCP. Every result field must match exactly.
  Rig local;
  ASSERT_TRUE(local.deployment->IngestAll(local.system.get()).ok());

  Rig remote;
  ServerOptions server_options;
  server_options.idle_poll_ms = 5;
  Server server(remote.system.get(), server_options);
  ASSERT_TRUE(server.Start().ok());
  auto client_or = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client_or.ok()) << client_or.status().ToString();
  Client client = std::move(*client_or);
  EXPECT_EQ(client.server_protocol_version(), kProtocolVersion);
  IngestOverWire(&remote, &client);

  // Ingestion state converged identically.
  auto monitor = client.MonitorStats();
  ASSERT_TRUE(monitor.ok());
  const core::IngestStats& local_stats = local.system->ingest_stats();
  EXPECT_EQ(monitor->ingest.frames_offered, local_stats.frames_offered);
  EXPECT_EQ(monitor->ingest.features_extracted,
            local_stats.features_extracted);
  EXPECT_EQ(monitor->ingest.svs_created, local_stats.svs_created);
  EXPECT_EQ(monitor->svs_count, local.system->svs_store().size());
  EXPECT_EQ(monitor->camera_count, local.system->cameras().size());

  // Direct queries agree bit for bit across several object classes.
  Rng local_rng(1);
  Rng remote_rng(1);
  for (int object_class = 0; object_class < 4; ++object_class) {
    const FeatureVector local_query =
        local.deployment->MakeQueryFeature(object_class, &local_rng);
    const FeatureVector remote_query =
        remote.deployment->MakeQueryFeature(object_class, &remote_rng);
    auto in_process = local.system->DirectQuery(local_query);
    ASSERT_TRUE(in_process.ok());
    auto over_wire = client.DirectQuery(remote_query);
    ASSERT_TRUE(over_wire.ok()) << over_wire.status().ToString();
    EXPECT_EQ(over_wire->candidate_svss, in_process->candidate_svss);
    EXPECT_EQ(over_wire->matched_svss, in_process->matched_svss);
    EXPECT_EQ(over_wire->total_gpu_ms, in_process->total_gpu_ms);
    EXPECT_EQ(over_wire->bottleneck_camera_gpu_ms,
              in_process->bottleneck_camera_gpu_ms);
    EXPECT_EQ(over_wire->per_camera_gpu_ms, in_process->per_camera_gpu_ms);
    EXPECT_EQ(over_wire->frames_processed, in_process->frames_processed);
    EXPECT_EQ(over_wire->cameras_searched, in_process->cameras_searched);
    EXPECT_EQ(over_wire->degraded, in_process->degraded);
    EXPECT_EQ(over_wire->timed_out, in_process->timed_out);
    EXPECT_EQ(over_wire->completed_fraction, in_process->completed_fraction);
  }

  // Clustering query by id and by map agree too.
  const auto ids = local.system->svs_store().AllIds();
  ASSERT_FALSE(ids.empty());
  auto in_process = local.system->ClusteringQuery(ids[0]);
  ASSERT_TRUE(in_process.ok());
  auto over_wire = client.ClusteringQuery(ids[0]);
  ASSERT_TRUE(over_wire.ok()) << over_wire.status().ToString();
  EXPECT_EQ(over_wire->similar_svss, in_process->similar_svss);
  EXPECT_EQ(over_wire->cameras_contributing,
            in_process->cameras_contributing);
  EXPECT_EQ(over_wire->fast_omd_routed, in_process->fast_omd_routed);
  {
    auto svs = local.system->svs_store().Get(ids[0]);
    ASSERT_TRUE(svs.ok());
    auto by_map_local = local.system->ClusteringQuery((*svs)->features());
    ASSERT_TRUE(by_map_local.ok());
    auto by_map_wire = client.ClusteringQuery((*svs)->features());
    ASSERT_TRUE(by_map_wire.ok());
    EXPECT_EQ(by_map_wire->similar_svss, by_map_local->similar_svss);
  }

  // Metadata agrees for every SVS.
  for (core::SvsId id : ids) {
    auto local_meta = local.system->GetMetaData(id);
    ASSERT_TRUE(local_meta.ok());
    auto wire_meta = client.GetMetaData(id);
    ASSERT_TRUE(wire_meta.ok());
    EXPECT_EQ(wire_meta->camera, local_meta->camera);
    EXPECT_EQ(wire_meta->start_ms, local_meta->start_ms);
    EXPECT_EQ(wire_meta->end_ms, local_meta->end_ms);
    EXPECT_EQ(wire_meta->num_frames, local_meta->num_frames);
  }
  auto missing = client.GetMetaData(999'999);
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);

  // Camera health agrees.
  auto health = client.CameraHealthReport();
  ASSERT_TRUE(health.ok());
  const auto local_health = local.system->CameraHealthReport();
  ASSERT_EQ(health->size(), local_health.size());
  for (size_t i = 0; i < health->size(); ++i) {
    EXPECT_EQ((*health)[i].camera, local_health[i].first);
    EXPECT_EQ((*health)[i].health, local_health[i].second);
  }

  client.Close();
  server.Shutdown();
}

TEST(NetTest, ConcurrentClientsGetConsistentAnswers) {
  Rig rig;
  ASSERT_TRUE(rig.deployment->IngestAll(rig.system.get()).ok());
  ServerOptions server_options;
  server_options.max_connections = 4;
  server_options.idle_poll_ms = 5;
  Server server(rig.system.get(), server_options);
  ASSERT_TRUE(server.Start().ok());

  Rng rng(2);
  const FeatureVector query = rig.deployment->MakeQueryFeature(0, &rng);
  auto expected = rig.system->DirectQuery(query);
  ASSERT_TRUE(expected.ok());

  constexpr int kClients = 4;
  constexpr int kRoundsPerClient = 5;
  std::vector<std::thread> threads;
  std::vector<int> failures(kClients, 0);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto client = Client::Connect("127.0.0.1", server.port());
      if (!client.ok()) {
        failures[c] = 1;
        return;
      }
      for (int round = 0; round < kRoundsPerClient; ++round) {
        auto result = client->DirectQuery(query);
        if (!result.ok() ||
            result->matched_svss != expected->matched_svss ||
            result->total_gpu_ms != expected->total_gpu_ms) {
          failures[c] = 2;
          return;
        }
        if (!client->MonitorStats().ok() ||
            !client->QueryLoadStats().ok()) {
          failures[c] = 3;
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures, std::vector<int>(kClients, 0));
  const ServerStats stats = server.stats();
  EXPECT_GE(stats.connections_accepted, static_cast<uint64_t>(kClients));
  EXPECT_GE(stats.requests_served,
            static_cast<uint64_t>(kClients * kRoundsPerClient));
  server.Shutdown();
}

TEST(NetTest, ExpiredDeadlineYieldsTimedOutPartialOverWire) {
  Rig rig;
  ASSERT_TRUE(rig.deployment->IngestAll(rig.system.get()).ok());
  Server server(rig.system.get(), {});
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());

  // A zero budget is already expired on entry: the wire must carry the
  // deadline out and the timed-out partial result back — never an error.
  Rng rng(3);
  core::QueryConstraints constraints;
  constraints.deadline_ms = 0;
  auto direct =
      client->DirectQuery(rig.deployment->MakeQueryFeature(0, &rng),
                          constraints);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  EXPECT_TRUE(direct->timed_out);
  EXPECT_EQ(direct->completed_fraction, 0.0);
  EXPECT_TRUE(direct->matched_svss.empty());

  const auto ids = rig.system->svs_store().AllIds();
  ASSERT_FALSE(ids.empty());
  auto clustering = client->ClusteringQuery(ids[0], constraints);
  ASSERT_TRUE(clustering.ok());
  EXPECT_TRUE(clustering->timed_out);

  // The server-side load counters saw both timeouts; readable over the wire.
  auto load = client->QueryLoadStats();
  ASSERT_TRUE(load.ok());
  EXPECT_GE(load->timed_out, 2u);
  server.Shutdown();
}

TEST(NetTest, AdmissionShedTravelsAsResourceExhaustedWithRetryAfter) {
  VideoZillaOptions options = SmallSystemOptions();
  options.admission.max_in_flight = 1;
  options.admission.max_queue = 0;
  options.admission.retry_after_hint_ms = 37;
  Rig rig(options);
  ASSERT_TRUE(rig.deployment->IngestAll(rig.system.get()).ok());
  LatchedVerifier latched(rig.verifier.get());
  rig.system->SetVerifier(&latched);

  ServerOptions server_options;
  server_options.max_connections = 4;
  server_options.idle_poll_ms = 5;
  Server server(rig.system.get(), server_options);
  ASSERT_TRUE(server.Start().ok());

  // A probe drawn from the store guarantees a non-empty candidate set, so
  // the query is certain to enter the (latched) verifier.
  const auto ids = rig.system->svs_store().AllIds();
  ASSERT_FALSE(ids.empty());
  auto probe_svs = rig.system->svs_store().Get(ids[0]);
  ASSERT_TRUE(probe_svs.ok());
  const FeatureVector query = (*probe_svs)->features().vector(0);

  // Client A parks a query inside the verifier, holding the only admission
  // slot.
  std::thread holder([&] {
    auto client = Client::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(client.ok());
    auto result = client->DirectQuery(query);
    EXPECT_TRUE(result.ok());
  });
  latched.WaitEntered();

  // Client B without retries is shed immediately with the admission status.
  {
    ClientOptions no_retry;
    no_retry.max_shed_retries = 0;
    auto client = Client::Connect("127.0.0.1", server.port(), no_retry);
    ASSERT_TRUE(client.ok());
    auto shed = client->DirectQuery(query);
    ASSERT_FALSE(shed.ok());
    EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
  }

  // Client C retries with backoff seeded by the server's 37 ms hint; once A
  // is released its retry succeeds.
  std::thread retrier([&] {
    ClientOptions retry;
    retry.max_shed_retries = 50;
    retry.backoff_cap_ms = 50;
    retry.backoff_jitter = 0;  // exact backoff arithmetic below
    auto client = Client::Connect("127.0.0.1", server.port(), retry);
    ASSERT_TRUE(client.ok());
    auto result = client->DirectQuery(query);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_GE(client->call_stats().shed_retries, 1u);
    // The first backoff already honors the wire hint.
    EXPECT_GE(client->call_stats().backoff_ms_total, 37);
  });
  // Hold the latch until C has been shed at least twice (A's shed plus one
  // of C's), then let A finish.
  while (rig.system->query_load_stats().shed < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  latched.Release();
  holder.join();
  retrier.join();
  EXPECT_GE(rig.system->query_load_stats().shed, 2u);
  server.Shutdown();
}

TEST(NetTest, ConnectionShedIsRetryableAndHonorsRetryAfter) {
  Rig rig;
  ASSERT_TRUE(rig.deployment->IngestAll(rig.system.get()).ok());
  ServerOptions server_options;
  server_options.max_connections = 1;
  server_options.shed_retry_after_ms = 21;
  server_options.idle_poll_ms = 5;
  Server server(rig.system.get(), server_options);
  ASSERT_TRUE(server.Start().ok());

  auto first = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(first.ok());
  // Keep the connection demonstrably live, not just open.
  ASSERT_TRUE(first->MonitorStats().ok());

  // Without retries the second connection is shed at the Hello.
  {
    ClientOptions no_retry;
    no_retry.max_shed_retries = 0;
    auto second = Client::Connect("127.0.0.1", server.port(), no_retry);
    ASSERT_FALSE(second.ok());
    EXPECT_EQ(second.status().code(), StatusCode::kResourceExhausted);
  }

  // With retries, the shed client backs off (seeded by the 21 ms wire hint)
  // until the first client leaves, then gets the slot and works.
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    first->Close();
  });
  ClientOptions retry;
  retry.max_shed_retries = 50;
  retry.backoff_cap_ms = 40;
  retry.backoff_jitter = 0;  // exact backoff arithmetic below
  auto second = Client::Connect("127.0.0.1", server.port(), retry);
  releaser.join();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_GE(second->call_stats().shed_retries, 1u);
  EXPECT_GE(second->call_stats().backoff_ms_total, 21);
  EXPECT_TRUE(second->MonitorStats().ok());
  EXPECT_GE(server.stats().connections_shed, 2u);
  server.Shutdown();
}

VideoZillaOptions FourLaneSystemOptions() {
  VideoZillaOptions options = SmallSystemOptions();
  options.num_threads = 4;
  return options;
}

// Clients that give up at the first shed.
std::vector<Client> ConnectWithoutShedRetries(uint16_t port, size_t count) {
  ClientOptions no_retry;
  no_retry.max_shed_retries = 0;
  std::vector<Client> clients;
  for (size_t i = 0; i < count; ++i) {
    auto client = Client::Connect("127.0.0.1", port, no_retry);
    EXPECT_TRUE(client.ok()) << "client " << i << ": "
                             << client.status().ToString();
    if (!client.ok()) break;
    clients.push_back(std::move(*client));
  }
  return clients;
}

TEST(NetTest, ParallelEdgeAdmitsMaxConnectionsClients) {
  // The query pool's size does not cap connections: a 4-lane edge at the
  // default max_connections serves all 8.
  Rig rig(FourLaneSystemOptions());
  const ServerOptions defaults;
  Server server(rig.system.get(), defaults);
  ASSERT_TRUE(server.Start().ok());

  std::vector<Client> clients =
      ConnectWithoutShedRetries(server.port(), defaults.max_connections);
  ASSERT_EQ(clients.size(), defaults.max_connections);
  for (Client& client : clients) EXPECT_TRUE(client.Ping().ok());
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.connections_shed, 0u);
  EXPECT_EQ(stats.connections_active, defaults.max_connections);
  server.Shutdown();
}

TEST(NetTest, OpenConnectionsLeaveVerificationItsPoolLanes) {
  // Open connections hold no query-pool worker, so a DirectQuery served
  // beside them still verifies its candidates on more than one lane.
  Rig rig(FourLaneSystemOptions());
  ASSERT_TRUE(rig.deployment->IngestAll(rig.system.get()).ok());
  ThreadRecordingVerifier recording(rig.verifier.get());
  rig.system->SetVerifier(&recording);
  Server server(rig.system.get(), {});
  ASSERT_TRUE(server.Start().ok());

  std::vector<Client> clients = ConnectWithoutShedRetries(server.port(), 3);
  ASSERT_EQ(clients.size(), 3u);
  Rng rng(2);
  auto result = clients[0].DirectQuery(
      rig.deployment->MakeQueryFeature(sim::kTruck, &rng));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_GE(result->candidate_svss.size(), 2u);
  EXPECT_GT(recording.threads(), 1u);
  clients.clear();
  server.Shutdown();
}

TEST(NetTest, GracefulShutdownDrainsInFlightRequest) {
  Rig rig;
  ASSERT_TRUE(rig.deployment->IngestAll(rig.system.get()).ok());
  LatchedVerifier latched(rig.verifier.get());
  rig.system->SetVerifier(&latched);
  ServerOptions server_options;
  server_options.idle_poll_ms = 5;
  Server server(rig.system.get(), server_options);
  ASSERT_TRUE(server.Start().ok());

  // Probe from the store: guarantees candidates, so the query parks in the
  // latched verifier.
  const auto ids = rig.system->svs_store().AllIds();
  ASSERT_FALSE(ids.empty());
  auto probe_svs = rig.system->svs_store().Get(ids[0]);
  ASSERT_TRUE(probe_svs.ok());
  const FeatureVector query = (*probe_svs)->features().vector(0);
  auto client_or = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client_or.ok());
  Client client = std::move(*client_or);

  StatusOr<core::DirectQueryResult> in_flight =
      Status::Internal("not yet run");
  std::thread querier([&] { in_flight = client.DirectQuery(query); });
  latched.WaitEntered();

  // Shutdown must block until the parked query completes and its response
  // is on the wire — not cut the connection under it.
  std::thread shutter([&] { server.Shutdown(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  latched.Release();
  shutter.join();
  querier.join();
  ASSERT_TRUE(in_flight.ok()) << in_flight.status().ToString();
  EXPECT_FALSE(in_flight->candidate_svss.empty());
  EXPECT_EQ(in_flight->completed_fraction, 1.0);
  EXPECT_FALSE(in_flight->timed_out);

  // The listener is gone: new connections are refused outright.
  ClientOptions no_retry;
  no_retry.max_shed_retries = 0;
  no_retry.max_reconnects = 0;
  EXPECT_FALSE(
      Client::Connect("127.0.0.1", server.port(), no_retry).ok());
}

// --- Asynchronous calls. ---

io::BinaryWriter DirectQueryRequest(const FeatureVector& feature) {
  io::BinaryWriter request;
  io::Encode(&request, feature);
  io::Encode(&request, core::QueryConstraints{});
  return request;
}

TEST(NetTest, StartedCallsAwaitedInReverseOrderMatchBlockingAnswers) {
  Rig rig;
  ASSERT_TRUE(rig.deployment->IngestAll(rig.system.get()).ok());
  Server server(rig.system.get(), {});
  ASSERT_TRUE(server.Start().ok());
  auto client_or = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client_or.ok()) << client_or.status().ToString();
  Client client = std::move(*client_or);

  // Every request is on the wire before any reply is collected.
  constexpr size_t kCalls = 8;
  Rng rng(3);
  std::vector<FeatureVector> queries;
  std::vector<Client::Pending> calls;
  for (size_t i = 0; i < kCalls; ++i) {
    queries.push_back(
        rig.deployment->MakeQueryFeature(static_cast<int>(i % 4), &rng));
    calls.push_back(client.Start(MsgType::kDirectQuery,
                                 DirectQueryRequest(queries[i]).buffer()));
  }
  for (size_t i = kCalls; i-- > 0;) {
    SCOPED_TRACE("call " + std::to_string(i));
    auto reply = client.Await(calls[i]);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    io::BinaryReader reader(std::move(*reply));
    auto awaited = io::Decode<core::DirectQueryResult>(&reader);
    ASSERT_TRUE(awaited.ok()) << awaited.status().ToString();
    auto blocking = client.DirectQuery(queries[i]);
    ASSERT_TRUE(blocking.ok()) << blocking.status().ToString();
    EXPECT_EQ(awaited->candidate_svss, blocking->candidate_svss);
    EXPECT_EQ(awaited->matched_svss, blocking->matched_svss);
    EXPECT_EQ(awaited->total_gpu_ms, blocking->total_gpu_ms);
    EXPECT_EQ(awaited->per_camera_gpu_ms, blocking->per_camera_gpu_ms);
    EXPECT_EQ(awaited->frames_processed, blocking->frames_processed);
    EXPECT_EQ(awaited->cameras_searched, blocking->cameras_searched);
    EXPECT_EQ(awaited->completed_fraction, blocking->completed_fraction);
  }
  const ClientCallStats stats = client.call_stats();
  EXPECT_EQ(stats.requests_sent, 2 * kCalls);
  EXPECT_EQ(stats.transport_failures, 0u);
  // A reply is handed out once.
  EXPECT_EQ(client.Await(calls[0]).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_FALSE(client.Retryable(calls[0]));
  client.Close();
  server.Shutdown();
}

TEST(NetTest, AwaitResolvesToATransportFailureWhenTheServerDies) {
  Rig rig;
  ASSERT_TRUE(rig.deployment->IngestAll(rig.system.get()).ok());
  LatchedVerifier latched(rig.verifier.get());
  rig.system->SetVerifier(&latched);
  Server server(rig.system.get(), {});
  ASSERT_TRUE(server.Start().ok());

  // Probe from the store: guarantees candidates, so the query parks in the
  // latched verifier and cannot be answered before the kill.
  const auto ids = rig.system->svs_store().AllIds();
  ASSERT_FALSE(ids.empty());
  auto probe_svs = rig.system->svs_store().Get(ids[0]);
  ASSERT_TRUE(probe_svs.ok());
  const FeatureVector query = (*probe_svs)->features().vector(0);
  ClientOptions options;
  options.io_timeout_ms = 30'000;  // far beyond the bound asserted below
  auto client_or = Client::Connect("127.0.0.1", server.port(), options);
  ASSERT_TRUE(client_or.ok()) << client_or.status().ToString();
  Client client = std::move(*client_or);

  Client::Pending call =
      client.Start(MsgType::kDirectQuery, DirectQueryRequest(query).buffer());
  latched.WaitEntered();
  const auto killed_at = std::chrono::steady_clock::now();
  // Kill tears the connection down under the parked query, then waits for
  // its handler, which the release below lets finish.
  std::thread killer([&] { server.Kill(); });
  auto reply = client.Await(call);
  const auto waited = std::chrono::steady_clock::now() - killed_at;
  latched.Release();
  killer.join();

  ASSERT_FALSE(reply.ok());
  const StatusCode code = reply.status().code();
  EXPECT_TRUE(code == StatusCode::kDataLoss ||
              code == StatusCode::kUnavailable)
      << reply.status().ToString();
  EXPECT_LT(waited, std::chrono::seconds(10));
  EXPECT_EQ(client.call_stats().transport_failures, 1u);

  // The lost connection is within the reconnect budget; Finish spends it
  // on the dead server and reports that failure instead.
  EXPECT_TRUE(client.Retryable(call));
  auto finished = client.Finish(call);
  EXPECT_FALSE(finished.ok());
  EXPECT_FALSE(client.Retryable(call));
}

TEST(NetTest, SnapshotSaveAndLoadRoundTripOverWire) {
  const std::string path = TempPath("net_snapshot.vzss");
  Rig source;
  ASSERT_TRUE(source.deployment->IngestAll(source.system.get()).ok());
  const size_t expected_svss = source.system->svs_store().size();
  Rng rng(6);
  const FeatureVector query = source.deployment->MakeQueryFeature(1, &rng);
  auto expected = source.system->DirectQuery(query);
  ASSERT_TRUE(expected.ok());
  {
    Server server(source.system.get(), {});
    ASSERT_TRUE(server.Start().ok());
    auto client = Client::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(client->SaveSnapshot(path).ok());
    // A bogus server-local path is an RPC error, not a dead connection.
    EXPECT_FALSE(client->SaveSnapshot("/no/such/dir/x.vzss").ok());
    EXPECT_TRUE(client->MonitorStats().ok());
    server.Shutdown();
  }

  // Restore into a fresh instance over the wire; queries then match the
  // source system exactly.
  Rig restored;
  Server server(restored.system.get(), {});
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  auto loaded = client->LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(*loaded, expected_svss);
  EXPECT_FALSE(client->LoadSnapshot("/no/such/file.vzss").ok());
  auto result = client->DirectQuery(query);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->matched_svss, expected->matched_svss);
  EXPECT_EQ(result->total_gpu_ms, expected->total_gpu_ms);
  server.Shutdown();
  std::remove(path.c_str());
}

// --- Backoff arithmetic (pure function, no sockets). ---

TEST(BackoffTest, NoJitterMatchesDoublingWithCap) {
  ClientOptions options;
  options.backoff_floor_ms = 10;
  options.backoff_cap_ms = 100;
  options.backoff_jitter = 0;
  EXPECT_EQ(BackoffDelayMs(options, 0, 0, nullptr), 10);
  EXPECT_EQ(BackoffDelayMs(options, 0, 1, nullptr), 20);
  EXPECT_EQ(BackoffDelayMs(options, 0, 2, nullptr), 40);
  EXPECT_EQ(BackoffDelayMs(options, 0, 3, nullptr), 80);
  EXPECT_EQ(BackoffDelayMs(options, 0, 4, nullptr), 100);  // capped
  EXPECT_EQ(BackoffDelayMs(options, 0, 20, nullptr), 100);
  // A server hint overrides the floor as the base.
  EXPECT_EQ(BackoffDelayMs(options, 37, 0, nullptr), 37);
  EXPECT_EQ(BackoffDelayMs(options, 37, 1, nullptr), 74);
}

TEST(BackoffTest, JitterShrinksWithinBoundsAndIsSeedDeterministic) {
  ClientOptions options;
  options.backoff_floor_ms = 100;
  options.backoff_cap_ms = 1'000;
  options.backoff_jitter = 0.25;
  Rng a(11), b(11), c(12);
  bool saw_difference_between_seeds = false;
  for (size_t attempt = 0; attempt < 8; ++attempt) {
    const int64_t unjittered = BackoffDelayMs(options, 0, attempt, nullptr);
    const int64_t da = BackoffDelayMs(options, 0, attempt, &a);
    const int64_t db = BackoffDelayMs(options, 0, attempt, &b);
    const int64_t dc = BackoffDelayMs(options, 0, attempt, &c);
    // Subtractive: never above the deterministic delay, never below the
    // jitter floor, and the cap stays an honest bound.
    EXPECT_LE(da, unjittered);
    EXPECT_GE(da, static_cast<int64_t>(unjittered * 0.75) - 1);
    EXPECT_LE(da, options.backoff_cap_ms);
    EXPECT_EQ(da, db);  // same seed, same stream
    if (da != dc) saw_difference_between_seeds = true;
  }
  // Two clients with different seeds must desynchronise — that is the whole
  // point of jitter.
  EXPECT_TRUE(saw_difference_between_seeds);
}

// --- Idempotency tokens: exactly-once over raw sockets. ---

// Performs the client side of the Hello exchange on a raw socket.
void RawHello(int fd) {
  io::BinaryWriter hello;
  hello.WriteU32(kProtocolVersion);
  ASSERT_TRUE(WriteFrame(fd, static_cast<uint32_t>(MsgType::kHello), 0,
                         hello.buffer())
                  .ok());
  auto ack = ReadFrame(fd);
  ASSERT_TRUE(ack.ok());
  io::BinaryReader reader(ack->payload);
  auto status = DecodeWireStatus(&reader);
  ASSERT_TRUE(status.ok());
  ASSERT_TRUE(status->status.ok());
}

// Sends one tokened request and returns (decoded status, raw payload).
StatusOr<WireFrame> RawTokenedCall(int fd, MsgType type, uint64_t session,
                                   uint64_t sequence,
                                   const std::string& body = "") {
  io::BinaryWriter payload;
  io::Encode(&payload, IdempotencyToken{session, sequence});
  VZ_RETURN_IF_ERROR(WriteFrame(fd, static_cast<uint32_t>(type), sequence,
                                payload.buffer() + body));
  return ReadFrame(fd);
}

Status RawStatusOf(const WireFrame& frame) {
  io::BinaryReader reader(frame.payload);
  auto status = DecodeWireStatus(&reader);
  if (!status.ok()) return status.status();
  return status->status;
}

TEST(NetTest, DuplicateMutatingRpcReplayedNotReapplied) {
  Rig rig;
  Server server(rig.system.get(), {});
  ASSERT_TRUE(server.Start().ok());
  auto fd = TcpConnect("127.0.0.1", server.port(), 2'000);
  ASSERT_TRUE(fd.ok());
  RawHello(fd->get());

  io::BinaryWriter body;
  body.WriteString("cam-x");
  auto first = RawTokenedCall(fd->get(), MsgType::kCameraStart, 77, 1,
                              body.buffer());
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(RawStatusOf(*first).ok());

  // The duplicate gets the cached response, byte for byte — NOT the
  // "camera already started" error a re-execution would produce.
  auto duplicate = RawTokenedCall(fd->get(), MsgType::kCameraStart, 77, 1,
                                  body.buffer());
  ASSERT_TRUE(duplicate.ok());
  EXPECT_TRUE(RawStatusOf(*duplicate).ok());
  EXPECT_EQ(duplicate->payload, first->payload);
  EXPECT_EQ(server.stats().duplicates_replayed, 1u);

  // A FRESH sequence for the same camera does re-execute — and correctly
  // fails, proving the duplicate above never reached the system.
  auto fresh = RawTokenedCall(fd->get(), MsgType::kCameraStart, 77, 2,
                              body.buffer());
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(RawStatusOf(*fresh).code(), StatusCode::kFailedPrecondition);

  // Same story for ingest: a duplicated frame RPC is absorbed at the wire,
  // before the ingestion guard ever sees it.
  const auto& observation = rig.deployment->observations().front();
  ASSERT_TRUE(
      RawStatusOf(*RawTokenedCall(fd->get(), MsgType::kCameraStart, 77, 3,
                                  [&] {
                                    io::BinaryWriter w;
                                    w.WriteString(observation.camera);
                                    return w.buffer();
                                  }()))
          .ok());
  io::BinaryWriter frame_body;
  EncodeFrameObservation(&frame_body, observation);
  for (int send = 0; send < 3; ++send) {
    auto response = RawTokenedCall(fd->get(), MsgType::kIngestFrame, 77, 4,
                                   frame_body.buffer());
    ASSERT_TRUE(response.ok());
    EXPECT_TRUE(RawStatusOf(*response).ok());
  }
  EXPECT_EQ(rig.system->ingest_stats().frames_offered, 1u);
  EXPECT_EQ(server.stats().duplicates_replayed, 3u);
  EXPECT_EQ(server.stats().sessions_active, 1u);
  server.Shutdown();
}

TEST(NetTest, DuplicateOlderThanDedupWindowRefused) {
  Rig rig;
  ServerOptions options;
  options.dedup_window = 2;
  Server server(rig.system.get(), options);
  ASSERT_TRUE(server.Start().ok());
  auto fd = TcpConnect("127.0.0.1", server.port(), 2'000);
  ASSERT_TRUE(fd.ok());
  RawHello(fd->get());

  for (uint64_t seq = 1; seq <= 3; ++seq) {
    auto response = RawTokenedCall(fd->get(), MsgType::kFlush, 9, seq);
    ASSERT_TRUE(response.ok());
    EXPECT_TRUE(RawStatusOf(*response).ok());
  }
  // Sequence 1 was trimmed out of the 2-deep window: the server can no
  // longer prove exactly-once, so it refuses loudly instead of re-applying.
  auto stale = RawTokenedCall(fd->get(), MsgType::kFlush, 9, 1);
  ASSERT_TRUE(stale.ok());
  EXPECT_EQ(RawStatusOf(*stale).code(), StatusCode::kFailedPrecondition);
  // Sequence 3 is still inside the window and replays fine.
  auto recent = RawTokenedCall(fd->get(), MsgType::kFlush, 9, 3);
  ASSERT_TRUE(recent.ok());
  EXPECT_TRUE(RawStatusOf(*recent).ok());
  server.Shutdown();
}

TEST(NetTest, DuplicateFromAnEvictedSessionRefused) {
  Rig rig;
  ServerOptions options;
  options.max_sessions = 1;
  Server server(rig.system.get(), options);
  ASSERT_TRUE(server.Start().ok());
  auto fd = TcpConnect("127.0.0.1", server.port(), 2'000);
  ASSERT_TRUE(fd.ok());
  RawHello(fd->get());

  auto first = RawTokenedCall(fd->get(), MsgType::kFlush, 77, 1);
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(RawStatusOf(*first).ok());
  // Session 88 evicts session 77, dedup window and all.
  auto other = RawTokenedCall(fd->get(), MsgType::kFlush, 88, 1);
  ASSERT_TRUE(other.ok());
  EXPECT_TRUE(RawStatusOf(*other).ok());
  EXPECT_EQ(server.stats().sessions_evicted, 1u);

  // The late duplicate can no longer be replayed, and the server still
  // knows how far session 77 got, so it refuses instead of re-executing.
  auto stale = RawTokenedCall(fd->get(), MsgType::kFlush, 77, 1);
  ASSERT_TRUE(stale.ok());
  EXPECT_EQ(RawStatusOf(*stale).code(), StatusCode::kFailedPrecondition);
  // The session's next sequence still executes.
  auto next = RawTokenedCall(fd->get(), MsgType::kFlush, 77, 2);
  ASSERT_TRUE(next.ok());
  EXPECT_TRUE(RawStatusOf(*next).ok());
  EXPECT_EQ(server.stats().duplicates_replayed, 0u);
  server.Shutdown();
}

TEST(NetTest, MutatingRpcWithoutTokenRejectedButConnectionSurvives) {
  Rig rig;
  Server server(rig.system.get(), {});
  ASSERT_TRUE(server.Start().ok());
  auto fd = TcpConnect("127.0.0.1", server.port(), 2'000);
  ASSERT_TRUE(fd.ok());
  RawHello(fd->get());

  // v2 requires a token on every mutating request; a bare payload decodes
  // as a malformed token.
  ASSERT_TRUE(
      WriteFrame(fd->get(), static_cast<uint32_t>(MsgType::kFlush), 1, "")
          .ok());
  auto bare = ReadFrame(fd->get());
  ASSERT_TRUE(bare.ok());
  EXPECT_EQ(RawStatusOf(*bare).code(), StatusCode::kInvalidArgument);

  // Session id 0 is reserved ("no token") and rejected too.
  auto zero = RawTokenedCall(fd->get(), MsgType::kFlush, 0, 1);
  ASSERT_TRUE(zero.ok());
  EXPECT_EQ(RawStatusOf(*zero).code(), StatusCode::kInvalidArgument);

  // The connection is still usable afterwards.
  auto good = RawTokenedCall(fd->get(), MsgType::kFlush, 5, 1);
  ASSERT_TRUE(good.ok());
  EXPECT_TRUE(RawStatusOf(*good).ok());
  server.Shutdown();
}

uint64_t FramesOffered(uint16_t port) {
  auto client = Client::Connect("127.0.0.1", port);
  EXPECT_TRUE(client.ok()) << client.status().ToString();
  if (!client.ok()) return ~0ull;
  auto stats = client->MonitorStats();
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  return stats.ok() ? stats->ingest.frames_offered : ~0ull;
}

// A refused kIngestBatch changes nothing. The batch's second frame is torn,
// so the RPC is answered kInvalidArgument; its first, valid frame must not
// have been ingested either, because a refused RPC is never logged and a
// recovery (or a standby) would otherwise diverge from the live server.
TEST(NetTest, RefusedIngestBatchAppliesNoFrame) {
  const std::string wal_dir = TempPath("net_refused_batch");
  std::filesystem::remove_all(wal_dir);
  ServerOptions options;
  options.wal_dir = wal_dir;
  uint64_t live_offered = 0;
  {
    Rig rig;
    Server server(rig.system.get(), options);
    ASSERT_TRUE(server.Start().ok());
    auto fd = TcpConnect("127.0.0.1", server.port(), 2'000);
    ASSERT_TRUE(fd.ok());
    RawHello(fd->get());
    const auto& observation = rig.deployment->observations().front();
    io::BinaryWriter camera;
    io::Encode(&camera, observation.camera);
    auto started = RawTokenedCall(fd->get(), MsgType::kCameraStart, 7, 1,
                                  camera.buffer());
    ASSERT_TRUE(started.ok());
    ASSERT_TRUE(RawStatusOf(*started).ok());
    const uint64_t offered_before = FramesOffered(server.port());

    io::BinaryWriter frame;
    EncodeFrameObservation(&frame, observation);
    io::BinaryWriter batch;
    io::Encode(&batch, uint32_t{2});
    batch.WriteBytes(frame.buffer());
    batch.WriteBytes(frame.buffer().substr(0, frame.buffer().size() / 2));
    auto refused = RawTokenedCall(fd->get(), MsgType::kIngestBatch, 7, 2,
                                  batch.buffer());
    ASSERT_TRUE(refused.ok());
    EXPECT_EQ(RawStatusOf(*refused).code(), StatusCode::kInvalidArgument);
    live_offered = FramesOffered(server.port());
    EXPECT_EQ(live_offered, offered_before);
    server.Shutdown();
  }
  Rig rig;
  Server restarted(rig.system.get(), options);
  ASSERT_TRUE(restarted.Start().ok());
  EXPECT_EQ(FramesOffered(restarted.port()), live_offered);
  restarted.Shutdown();
  std::filesystem::remove_all(wal_dir);
}

// A request with bytes left over after its body is malformed: a direct
// query followed by 8 extra bytes is refused, and the connection keeps
// serving the same query without them.
TEST(NetTest, TrailingBytesAfterARequestBodyAreRefused) {
  Rig rig;
  Server server(rig.system.get(), {});
  ASSERT_TRUE(server.Start().ok());
  auto fd = TcpConnect("127.0.0.1", server.port(), 2'000);
  ASSERT_TRUE(fd.ok());
  RawHello(fd->get());
  Rng rng(5);
  io::BinaryWriter request;
  io::Encode(&request, rig.deployment->MakeQueryFeature(0, &rng));
  io::Encode(&request, core::QueryConstraints{});
  const std::string body = request.buffer();
  const uint32_t type = static_cast<uint32_t>(MsgType::kDirectQuery);
  ASSERT_TRUE(WriteFrame(fd->get(), type, 1, body + std::string(8, '\0')).ok());
  auto extended = ReadFrame(fd->get());
  ASSERT_TRUE(extended.ok());
  EXPECT_EQ(RawStatusOf(*extended).code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(WriteFrame(fd->get(), type, 2, body).ok());
  auto exact = ReadFrame(fd->get());
  ASSERT_TRUE(exact.ok());
  EXPECT_TRUE(RawStatusOf(*exact).ok());
  server.Shutdown();
}

// --- Connection supervision. ---

TEST(NetTest, PingKeepsIdleConnectionAliveAndIdleOnesGetEvicted) {
  Rig rig;
  ServerOptions options;
  options.idle_timeout_ms = 60;
  options.eviction_grace_ms = 20;
  options.idle_poll_ms = 5;
  Server server(rig.system.get(), options);
  ASSERT_TRUE(server.Start().ok());

  // A client that pings through a quiet stretch 4x the idle timeout stays
  // connected — no eviction, no reconnect.
  {
    auto client = Client::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(client.ok());
    for (int i = 0; i < 12; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      ASSERT_TRUE(client->Ping().ok());
    }
    EXPECT_TRUE(client->MonitorStats().ok());
    EXPECT_EQ(client->call_stats().reconnects, 0u);
    EXPECT_EQ(client->call_stats().transport_failures, 0u);
    EXPECT_GE(client->call_stats().pings_sent, 12u);
  }
  EXPECT_GE(server.stats().pings_served, 12u);
  EXPECT_EQ(server.stats().connections_evicted_idle, 0u);

  // A silent client is evicted after idle timeout + grace; its next call
  // rides the reconnect path transparently.
  auto idler = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(idler.ok());
  ASSERT_TRUE(idler->MonitorStats().ok());
  while (server.stats().connections_evicted_idle == 0 &&
         server.stats().connections_active > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(server.stats().connections_evicted_idle, 1u);
  EXPECT_TRUE(idler->MonitorStats().ok());  // reconnected under the hood
  EXPECT_GE(idler->call_stats().reconnects, 1u);
  EXPECT_GE(idler->call_stats().transport_failures, 1u);
  server.Shutdown();
}

TEST(NetTest, ConnectionRegistryTracksTrafficAndTravelsInMonitorStats) {
  Rig rig;
  ServerOptions options;
  options.idle_poll_ms = 5;
  Server server(rig.system.get(), options);
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Flush().ok());  // mutating: creates a session
  ASSERT_TRUE(client->Ping().ok());

  const std::vector<ConnectionInfo> registry = server.connection_stats();
  ASSERT_EQ(registry.size(), 1u);
  EXPECT_GE(registry[0].rpcs, 3u);  // hello + flush + ping
  EXPECT_GT(registry[0].bytes_in, 0u);
  EXPECT_GT(registry[0].bytes_out, 0u);
  EXPECT_GE(registry[0].age_ms, registry[0].idle_ms);

  // The same registry travels inside MonitorStats for remote operators.
  auto monitor = client->MonitorStats();
  ASSERT_TRUE(monitor.ok());
  EXPECT_GE(monitor->serving.connections_accepted, 1u);
  EXPECT_GE(monitor->serving.pings_served, 1u);
  EXPECT_EQ(monitor->serving.sessions_active, 1u);
  ASSERT_EQ(monitor->serving.connections.size(), 1u);
  EXPECT_GE(monitor->serving.connections[0].rpcs, 3u);
  EXPECT_GT(monitor->serving.connections[0].bytes_in, 0u);
  server.Shutdown();
  EXPECT_EQ(server.stats().connections_active, 0u);
}

// --- The front-end protocol, against both front ends. ---

enum class FrontEnd { kServer, kCoordinator };

// The rig served through the front end under test: an edge server alone, or
// a coordinator over that one edge.
class FrontEndTest : public ::testing::TestWithParam<FrontEnd> {
 protected:
  // The read deadline and idle poll apply to the front end under test; an
  // edge behind the coordinator keeps its defaults.
  void StartFrontEnd(int64_t read_timeout_ms = 10'000,
                     int64_t idle_poll_ms = 50) {
    ServerOptions server_options;
    if (GetParam() == FrontEnd::kServer) {
      server_options.read_timeout_ms = read_timeout_ms;
      server_options.idle_poll_ms = idle_poll_ms;
    }
    server_ = std::make_unique<Server>(rig_.system.get(), server_options);
    ASSERT_TRUE(server_->Start().ok());
    if (GetParam() == FrontEnd::kServer) return;
    CoordinatorOptions options;
    options.edges = {{"127.0.0.1", server_->port()}};
    options.read_timeout_ms = read_timeout_ms;
    options.idle_poll_ms = idle_poll_ms;
    options.sync_interval_ms = 0;
    options.omd = SmallSystemOptions().omd;
    options.inter = SmallSystemOptions().inter;
    coordinator_ = std::make_unique<Coordinator>(options);
    ASSERT_TRUE(coordinator_->Start().ok());
  }

  uint16_t port() const {
    return coordinator_ != nullptr ? coordinator_->port() : server_->port();
  }

  Rig rig_;
  std::unique_ptr<Server> server_;
  // Declared last: shuts down before the edge it talks to.
  std::unique_ptr<Coordinator> coordinator_;
};

INSTANTIATE_TEST_SUITE_P(
    BothFrontEnds, FrontEndTest,
    ::testing::Values(FrontEnd::kServer, FrontEnd::kCoordinator),
    [](const ::testing::TestParamInfo<FrontEnd>& info) {
      return info.param == FrontEnd::kServer ? "Server" : "Coordinator";
    });

TEST_P(FrontEndTest, HelloVersionMismatchRejectedWithServerVersion) {
  StartFrontEnd();
  auto fd = TcpConnect("127.0.0.1", port(), 2'000);
  ASSERT_TRUE(fd.ok());
  io::BinaryWriter hello;
  hello.WriteU32(kProtocolVersion + 7);
  ASSERT_TRUE(WriteFrame(fd->get(), static_cast<uint32_t>(MsgType::kHello),
                         0, hello.buffer())
                  .ok());
  auto response = ReadFrame(fd->get());
  ASSERT_TRUE(response.ok());
  io::BinaryReader reader(response->payload);
  auto wire_status = DecodeWireStatus(&reader);
  ASSERT_TRUE(wire_status.ok());
  EXPECT_EQ(wire_status->status.code(), StatusCode::kFailedPrecondition);
  // The refusal still reports the server's own version for diagnostics.
  auto server_version = reader.ReadU32();
  ASSERT_TRUE(server_version.ok());
  EXPECT_EQ(*server_version, kProtocolVersion);
  // The connection is closed after the refusal.
  auto next = ReadFrame(fd->get());
  EXPECT_FALSE(next.ok());
}

TEST_P(FrontEndTest, RpcBeforeHelloRejectedAndConnectionClosed) {
  StartFrontEnd();
  auto fd = TcpConnect("127.0.0.1", port(), 2'000);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(
      WriteFrame(fd->get(), static_cast<uint32_t>(MsgType::kFlush), 1, "")
          .ok());
  auto response = ReadFrame(fd->get());
  ASSERT_TRUE(response.ok());
  io::BinaryReader reader(response->payload);
  auto wire_status = DecodeWireStatus(&reader);
  ASSERT_TRUE(wire_status.ok());
  EXPECT_EQ(wire_status->status.code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(ReadFrame(fd->get()).ok());
}

TEST_P(FrontEndTest, MalformedPayloadKeepsConnectionUsable) {
  ASSERT_TRUE(rig_.deployment->IngestAll(rig_.system.get()).ok());
  StartFrontEnd();
  auto fd = TcpConnect("127.0.0.1", port(), 2'000);
  ASSERT_TRUE(fd.ok());
  RawHello(fd->get());

  // A well-framed request whose payload is garbage: answered with
  // kInvalidArgument, connection stays open.
  ASSERT_TRUE(WriteFrame(fd->get(),
                         static_cast<uint32_t>(MsgType::kDirectQuery), 1,
                         "\x01garbage")
                  .ok());
  auto bad = ReadFrame(fd->get());
  ASSERT_TRUE(bad.ok());
  io::BinaryReader bad_reader(bad->payload);
  auto bad_status = DecodeWireStatus(&bad_reader);
  ASSERT_TRUE(bad_status.ok());
  EXPECT_EQ(bad_status->status.code(), StatusCode::kInvalidArgument);

  // The same connection still serves a valid request afterwards.
  ASSERT_TRUE(WriteFrame(fd->get(),
                         static_cast<uint32_t>(MsgType::kMonitorStats), 2, "")
                  .ok());
  auto good = ReadFrame(fd->get());
  ASSERT_TRUE(good.ok());
  io::BinaryReader good_reader(good->payload);
  auto good_status = DecodeWireStatus(&good_reader);
  ASSERT_TRUE(good_status.ok());
  EXPECT_TRUE(good_status->status.ok());
}

TEST_P(FrontEndTest, SlowClientTricklingAFrameIsEvicted) {
  StartFrontEnd(/*read_timeout_ms=*/60, /*idle_poll_ms=*/5);
  auto fd = TcpConnect("127.0.0.1", port(), 2'000);
  ASSERT_TRUE(fd.ok());
  RawHello(fd->get());

  // Send only the first bytes of a valid frame, then stall. Once the first
  // byte arrived, the whole frame must land within read_timeout_ms; a
  // slow-loris trickle must not hold the connection open.
  const std::string frame =
      EncodeFrame(static_cast<uint32_t>(MsgType::kMonitorStats), 1, "");
  ASSERT_TRUE(SendAll(fd->get(), frame.data(), 6).ok());
  auto next = ReadFrame(fd->get(), 2'000);
  EXPECT_FALSE(next.ok());  // the front end hung up without a response
  // The eviction is visible to remote operators.
  auto client = Client::Connect("127.0.0.1", port());
  ASSERT_TRUE(client.ok());
  auto monitor = client->MonitorStats();
  ASSERT_TRUE(monitor.ok()) << monitor.status().ToString();
  EXPECT_GE(monitor->serving.connections_evicted_slow, 1u);
}

}  // namespace
}  // namespace vz::net
