// Standing-query subscription tests (protocol v5; see DESIGN.md, "Standing
// queries and multiplexing"): a subscriber registers a query once and the
// server pushes match notifications as ingestion finalizes segments — no
// polling anywhere. The contracts under test:
//
//   - push on ingest: every finalized segment matching the standing query
//     arrives as a `kPushEvent` with dense as-delivered sequences;
//   - backpressure: a subscriber that stops reading never impedes ingest —
//     its bounded queue drops oldest and the loss surfaces as an explicit
//     gap marker (seeded engine drill over VZ_SUB_SEEDS seeds);
//   - lifecycle: unsubscribe and disconnect both reclaim all subscription
//     state;
//   - batched ingest (`kIngestBatch`) is bit-identical to per-frame ingest;
//   - `kAdminTune` applies the monitor's adjustment ladder live and echoes
//     the post-apply settings;
//   - coordinator fan-out: a subscription against the coordinator spans
//     every shard, pushes arrive with global svs ids in dense coordinator
//     sequences, every leg rides its edge's one push connection and is
//     reclaimed with its subscription, and an edge index push wakes
//     rep-sync before its interval.
#include <gtest/gtest.h>

#include <chrono>
#include <algorithm>
#include <condition_variable>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/videozilla.h"
#include "net/client.h"
#include "net/coordinator.h"
#include "net/server.h"
#include "net/subscription.h"
#include "net/wire.h"
#include "sim/dataset.h"
#include "cluster_test_util.h"

namespace vz::net {
namespace {

using core::VideoZilla;
using core::VideoZillaOptions;

size_t NumSubSeeds() {
  if (const char* env = std::getenv("VZ_SUB_SEEDS")) {
    const long parsed = std::atol(env);
    if (parsed > 0) return static_cast<size_t>(parsed);
  }
  return 12;
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

/// A standing query that matches every finalized segment: zero vector with
/// an effectively infinite threshold.
SubscribeRequest MatchAllQuery(size_t dim = 32) {
  SubscribeRequest request;
  request.query = FeatureVector(std::vector<float>(dim, 0.0f));
  request.threshold = 1e12;
  return request;
}

/// Thread-safe event sink for push callbacks: collects events and lets the
/// test block until a count is reached.
class EventSink {
 public:
  void Push(const PushEvent& event) {
    std::lock_guard<std::mutex> lock(mu_);
    events_.push_back(event);
    cv_.notify_all();
  }

  /// Blocks until at least `n` events arrived or `timeout_ms` elapsed;
  /// returns true when the count was reached.
  bool WaitForCount(size_t n, int64_t timeout_ms) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                        [&] { return events_.size() >= n; });
  }

  std::vector<PushEvent> Snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return events_;
  }

  size_t count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return events_.size();
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<PushEvent> events_;
};

/// As-delivered sequences must be dense per subscription, starting at 0 —
/// the subscriber-side proof that it saw every frame the server sent.
void ExpectDenseSequences(const std::vector<PushEvent>& events,
                          uint64_t subscription_id) {
  uint64_t expected = 0;
  for (const PushEvent& event : events) {
    EXPECT_EQ(event.subscription_id, subscription_id);
    EXPECT_EQ(event.sequence, expected) << "sequence gap at " << expected;
    ++expected;
  }
}

void IngestOverWire(sim::Deployment* deployment, Client* client) {
  for (const auto& info : deployment->cameras()) {
    ASSERT_TRUE(client->CameraStart(info.camera).ok());
  }
  for (const auto& observation : deployment->observations()) {
    ASSERT_TRUE(client->IngestFrame(observation).ok());
  }
  ASSERT_TRUE(client->Flush().ok());
}

// --- Push on ingest: the headline contract. ---

TEST(SubscribeTest, MatchesArePushedAsIngestFinalizesSegments) {
  sim::Deployment deployment(SmallDeployment());
  (void)deployment.observations();
  VideoZilla system(SmallSystemOptions());
  Server server(&system, {});
  ASSERT_TRUE(server.Start().ok());

  auto subscriber = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(subscriber.ok()) << subscriber.status().ToString();
  EXPECT_EQ(subscriber->server_protocol_version(), kProtocolVersion);

  EventSink sink;
  auto sub_id = subscriber->Subscribe(
      MatchAllQuery(), [&sink](const PushEvent& event) { sink.Push(event); });
  ASSERT_TRUE(sub_id.ok()) << sub_id.status().ToString();
  EXPECT_EQ(server.stats().subscriptions_active, 1u);

  // Ingest on a separate connection: pushes must cross connections, from
  // the ingest plane to the subscriber's own socket.
  auto ingester = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(ingester.ok());
  IngestOverWire(&deployment, &*ingester);

  // Every finalized segment matches the match-all query; no polling — the
  // sink only ever hears from the push path.
  const uint64_t segments = system.ingest_stats().svs_created;
  ASSERT_GT(segments, 0u);
  ASSERT_TRUE(sink.WaitForCount(segments, 30'000))
      << "got " << sink.count() << " of " << segments << " pushes";

  const std::vector<PushEvent> events = sink.Snapshot();
  ASSERT_EQ(events.size(), segments);
  ExpectDenseSequences(events, *sub_id);
  for (const PushEvent& event : events) {
    EXPECT_EQ(event.kind, PushKind::kMatch);
    EXPECT_FALSE(event.camera.empty());
    EXPECT_GE(event.end_ms, event.start_ms);
    EXPECT_LE(event.distance, 1e12);
  }

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.subscriptions_total, 1u);
  EXPECT_GE(stats.pushes_sent, segments);
  EXPECT_EQ(stats.push_drops, 0u);
  EXPECT_EQ(stats.push_gaps_sent, 0u);

  subscriber->Close();
  ingester->Close();
  server.Shutdown();
}

TEST(SubscribeTest, CameraFilterRestrictsMatches) {
  sim::Deployment deployment(SmallDeployment());
  (void)deployment.observations();
  VideoZilla system(SmallSystemOptions());
  Server server(&system, {});
  ASSERT_TRUE(server.Start().ok());

  auto subscriber = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(subscriber.ok());
  const std::string only_camera = deployment.cameras().front().camera;

  EventSink all_sink;
  auto all_id = subscriber->Subscribe(
      MatchAllQuery(), [&](const PushEvent& e) { all_sink.Push(e); });
  ASSERT_TRUE(all_id.ok());
  SubscribeRequest filtered = MatchAllQuery();
  filtered.has_camera_filter = true;
  filtered.cameras = {only_camera};
  EventSink filtered_sink;
  auto filtered_id = subscriber->Subscribe(
      filtered, [&](const PushEvent& e) { filtered_sink.Push(e); });
  ASSERT_TRUE(filtered_id.ok());
  EXPECT_NE(*all_id, *filtered_id);
  EXPECT_EQ(server.stats().subscriptions_active, 2u);

  auto ingester = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(ingester.ok());
  IngestOverWire(&deployment, &*ingester);

  const uint64_t segments = system.ingest_stats().svs_created;
  ASSERT_TRUE(all_sink.WaitForCount(segments, 30'000));
  // The filtered subscription saw exactly the filtered camera's share of
  // the unfiltered stream — both on the same connection, multiplexed by
  // the owning Subscribe call's correlation.
  size_t expected_filtered = 0;
  for (const PushEvent& event : all_sink.Snapshot()) {
    if (event.camera == only_camera) ++expected_filtered;
  }
  ASSERT_GT(expected_filtered, 0u);
  ASSERT_TRUE(filtered_sink.WaitForCount(expected_filtered, 30'000));
  const std::vector<PushEvent> events = filtered_sink.Snapshot();
  ASSERT_EQ(events.size(), expected_filtered);
  ExpectDenseSequences(events, *filtered_id);
  for (const PushEvent& event : events) {
    EXPECT_EQ(event.camera, only_camera);
  }

  subscriber->Close();
  ingester->Close();
  server.Shutdown();
}

TEST(SubscribeTest, StatsSubscriptionPushesCoalescedIndexUpdates) {
  sim::Deployment deployment(SmallDeployment());
  (void)deployment.observations();
  VideoZilla system(SmallSystemOptions());
  Server server(&system, {});
  ASSERT_TRUE(server.Start().ok());

  auto subscriber = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(subscriber.ok());
  SubscribeRequest request;
  request.want_matches = false;
  request.want_stats = true;
  EventSink sink;
  auto sub_id = subscriber->Subscribe(
      request, [&sink](const PushEvent& event) { sink.Push(event); });
  ASSERT_TRUE(sub_id.ok()) << sub_id.status().ToString();

  auto ingester = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(ingester.ok());
  IngestOverWire(&deployment, &*ingester);

  // The subscriber must eventually hear about the final index version; the
  // exact number of updates in between is coalescing-dependent.
  const uint64_t final_version = system.index_version();
  ASSERT_GT(final_version, 0u);
  bool saw_final = false;
  for (int waited = 0; waited < 2'000 && !saw_final; ++waited) {
    for (const PushEvent& event : sink.Snapshot()) {
      if (event.index_version == final_version) saw_final = true;
    }
    if (!saw_final) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  EXPECT_TRUE(saw_final);
  const std::vector<PushEvent> events = sink.Snapshot();
  ASSERT_FALSE(events.empty());
  ExpectDenseSequences(events, *sub_id);
  uint64_t previous = 0;
  for (const PushEvent& event : events) {
    EXPECT_EQ(event.kind, PushKind::kIndexUpdate);
    EXPECT_GT(event.index_version, previous);  // strictly advancing
    previous = event.index_version;
  }

  subscriber->Close();
  ingester->Close();
  server.Shutdown();
}

// --- Lifecycle: unsubscribe and disconnect both reclaim. ---

TEST(SubscribeTest, UnsubscribeStopsPushesAndReclaims) {
  sim::Deployment deployment(SmallDeployment());
  (void)deployment.observations();
  VideoZilla system(SmallSystemOptions());
  Server server(&system, {});
  ASSERT_TRUE(server.Start().ok());

  auto subscriber = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(subscriber.ok());
  EventSink sink;
  auto sub_id = subscriber->Subscribe(
      MatchAllQuery(), [&sink](const PushEvent& event) { sink.Push(event); });
  ASSERT_TRUE(sub_id.ok());
  EXPECT_EQ(server.stats().subscriptions_active, 1u);

  ASSERT_TRUE(subscriber->Unsubscribe(*sub_id).ok());
  EXPECT_EQ(server.stats().subscriptions_active, 0u);
  // Cancelling twice — or cancelling somebody else's id — is kNotFound.
  EXPECT_EQ(subscriber->Unsubscribe(*sub_id).code(), StatusCode::kNotFound);

  // Ingest after the unsubscribe: nothing may arrive.
  auto ingester = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(ingester.ok());
  IngestOverWire(&deployment, &*ingester);
  ASSERT_GT(system.ingest_stats().svs_created, 0u);
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_EQ(sink.count(), 0u);
  EXPECT_EQ(server.stats().pushes_sent, 0u);

  subscriber->Close();
  ingester->Close();
  server.Shutdown();
}

TEST(SubscribeTest, DisconnectReclaimsSubscriptions) {
  VideoZilla system(SmallSystemOptions());
  Server server(&system, {});
  ASSERT_TRUE(server.Start().ok());

  auto subscriber = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(subscriber.ok());
  EventSink sink;
  ASSERT_TRUE(subscriber
                  ->Subscribe(MatchAllQuery(),
                              [&sink](const PushEvent& e) { sink.Push(e); })
                  .ok());
  ASSERT_TRUE(subscriber
                  ->Subscribe(MatchAllQuery(),
                              [&sink](const PushEvent& e) { sink.Push(e); })
                  .ok());
  EXPECT_EQ(server.stats().subscriptions_active, 2u);

  // An abrupt disconnect (no Unsubscribe) must reclaim everything the
  // connection registered once the handler notices the close.
  subscriber->Close();
  for (int waited = 0;
       server.stats().subscriptions_active > 0 && waited < 1'000; ++waited) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server.stats().subscriptions_active, 0u);
  EXPECT_EQ(server.stats().subscriptions_total, 2u);
  server.Shutdown();
}

// --- Backpressure: a slow subscriber never impedes ingest. ---

TEST(SubscribeTest, SlowSubscriberDoesNotImpedeIngest) {
  sim::Deployment deployment(SmallDeployment());
  const auto& observations = deployment.observations();

  // Control: per-frame ingest latency with no subscriber at all.
  std::vector<double> control_ms;
  {
    VideoZilla system(SmallSystemOptions());
    Server server(&system, {});
    ASSERT_TRUE(server.Start().ok());
    auto client = Client::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(client.ok());
    for (const auto& info : deployment.cameras()) {
      ASSERT_TRUE(client->CameraStart(info.camera).ok());
    }
    for (const auto& observation : observations) {
      const auto start = std::chrono::steady_clock::now();
      ASSERT_TRUE(client->IngestFrame(observation).ok());
      control_ms.push_back(
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - start)
              .count());
    }
    ASSERT_TRUE(client->Flush().ok());
    client->Close();
    server.Shutdown();
  }

  // Victim run: a subscriber whose callback wedges on the very first push,
  // stalling its reader thread for the whole ingest. Tiny queue so the
  // engine exercises drop-oldest while the victim sleeps.
  ServerOptions server_options;
  server_options.subscription_queue_capacity = 4;
  VideoZilla system(SmallSystemOptions());
  Server server(&system, server_options);
  ASSERT_TRUE(server.Start().ok());

  auto subscriber = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(subscriber.ok());
  std::mutex latch_mu;
  std::condition_variable latch_cv;
  bool released = false;
  auto sub_id = subscriber->Subscribe(
      MatchAllQuery(), [&](const PushEvent&) {
        std::unique_lock<std::mutex> lock(latch_mu);
        latch_cv.wait(lock, [&] { return released; });
      });
  ASSERT_TRUE(sub_id.ok());

  auto ingester = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(ingester.ok());
  for (const auto& info : deployment.cameras()) {
    ASSERT_TRUE(ingester->CameraStart(info.camera).ok());
  }
  std::vector<double> victim_ms;
  for (const auto& observation : observations) {
    const auto start = std::chrono::steady_clock::now();
    ASSERT_TRUE(ingester->IngestFrame(observation).ok());
    victim_ms.push_back(std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - start)
                            .count());
  }
  ASSERT_TRUE(ingester->Flush().ok());

  // Ingest ran to completion at a p50 in the same ballpark as the control:
  // the wedged subscriber cost it nothing. The factor is deliberately
  // generous — this guards against ingest *blocking* on the subscriber, not
  // against scheduler noise.
  auto p50 = [](std::vector<double> samples) {
    std::nth_element(samples.begin(), samples.begin() + samples.size() / 2,
                     samples.end());
    return samples[samples.size() / 2];
  };
  EXPECT_LT(p50(victim_ms), p50(control_ms) * 20.0 + 5.0)
      << "victim p50 " << p50(victim_ms) << "ms vs control "
      << p50(control_ms) << "ms";

  // The victim is still subscribed (never evicted for being slow at the
  // push plane) and ingest finalized every segment.
  EXPECT_EQ(server.stats().subscriptions_active, 1u);
  EXPECT_GT(system.ingest_stats().svs_created, 0u);

  // Release the wedge and disconnect: everything reclaims.
  {
    std::lock_guard<std::mutex> lock(latch_mu);
    released = true;
    latch_cv.notify_all();
  }
  subscriber->Close();
  ingester->Close();
  for (int waited = 0;
       server.stats().subscriptions_active > 0 && waited < 1'000; ++waited) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server.stats().subscriptions_active, 0u);
  server.Shutdown();
}

// --- The engine's bounded-queue contract, deterministically. ---

core::Svs MakeSvs(core::SvsId id, const std::string& camera,
                  float value = 0.0f) {
  FeatureMap features;
  EXPECT_TRUE(
      features.Add(FeatureVector({value, value, value, value})).ok());
  return core::Svs(id, camera, id * 1'000, id * 1'000 + 500,
                   std::move(features));
}

TEST(SubscriptionEngineTest, GapMarkerAccountsExactDrops) {
  SubscriptionEngine::Options options;
  options.queue_capacity = 2;
  SubscriptionEngine engine(options);
  SubscribeRequest spec = MatchAllQuery(4);
  const uint64_t sub = engine.Subscribe(/*conn_id=*/1, /*correlation=*/7,
                                        spec);

  for (core::SvsId id = 0; id < 5; ++id) {
    engine.OnSegment(MakeSvs(id, "cam-a"));
  }
  // Capacity 2: ids 0..2 were dropped oldest-first; 3 and 4 survive.
  const auto deliveries = engine.Drain(1);
  ASSERT_EQ(deliveries.size(), 3u);
  EXPECT_EQ(deliveries[0].correlation, 7u);
  EXPECT_EQ(deliveries[0].event.kind, PushKind::kGap);
  EXPECT_EQ(deliveries[0].event.dropped, 3u);
  EXPECT_EQ(deliveries[0].event.sequence, 0u);
  EXPECT_EQ(deliveries[1].event.kind, PushKind::kMatch);
  EXPECT_EQ(deliveries[1].event.svs_id, 3);
  EXPECT_EQ(deliveries[1].event.sequence, 1u);
  EXPECT_EQ(deliveries[2].event.svs_id, 4);
  EXPECT_EQ(deliveries[2].event.sequence, 2u);
  EXPECT_EQ(deliveries[0].event.subscription_id, sub);

  const auto stats = engine.stats();
  EXPECT_EQ(stats.events_enqueued, 5u);
  EXPECT_EQ(stats.events_dropped, 3u);
  EXPECT_EQ(stats.gaps_recorded, 1u);
}

TEST(SubscriptionEngineTest, IndexUpdatesCoalesceInPlace) {
  SubscriptionEngine engine;
  SubscribeRequest spec;
  spec.want_matches = false;
  spec.want_stats = true;
  (void)engine.Subscribe(1, 9, spec);
  for (uint64_t version = 1; version <= 10; ++version) {
    engine.OnIndexVersion(version);
  }
  // Ten undelivered updates collapsed into one carrying the newest version.
  const auto deliveries = engine.Drain(1);
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0].event.kind, PushKind::kIndexUpdate);
  EXPECT_EQ(deliveries[0].event.index_version, 10u);
  // A stale re-announcement is ignored; a newer one is not.
  engine.OnIndexVersion(10);
  EXPECT_TRUE(engine.Drain(1).empty());
  engine.OnIndexVersion(11);
  ASSERT_EQ(engine.Drain(1).size(), 1u);
}

// A coordinator forwards its edges' pushes into its own engine: the same
// bound, drop-oldest and gap accounting apply, a dropped edge gap marker
// folds its count into the local one, and sequences and ids are the
// engine's own.
TEST(SubscriptionEngineTest, ForwardedEventsKeepTheDeliveryContract) {
  SubscriptionEngine::Options options;
  options.queue_capacity = 4;
  SubscriptionEngine engine(options);
  const uint64_t sub = engine.Subscribe(/*conn_id=*/1, /*correlation=*/5,
                                        MatchAllQuery(4));
  // As pushed by an edge: the edge's own subscription id and sequences.
  PushEvent edge_event;
  edge_event.subscription_id = 77;
  edge_event.kind = PushKind::kGap;
  edge_event.dropped = 3;
  edge_event.sequence = 12;
  EXPECT_TRUE(engine.Forward(sub, edge_event));
  edge_event.kind = PushKind::kMatch;
  edge_event.dropped = 0;
  for (core::SvsId id = 0; id < 5; ++id) {
    edge_event.svs_id = id;
    edge_event.sequence = 13 + static_cast<uint64_t>(id);
    EXPECT_TRUE(engine.Forward(sub, edge_event));
  }

  // Capacity 4: the edge's gap marker was dropped first (its 3 fold in),
  // then match 0; matches 1..4 survive behind one gap marker.
  const auto deliveries = engine.Drain(1);
  ASSERT_EQ(deliveries.size(), 5u);
  EXPECT_EQ(deliveries[0].event.kind, PushKind::kGap);
  EXPECT_EQ(deliveries[0].event.dropped, 4u);
  for (size_t i = 0; i < deliveries.size(); ++i) {
    EXPECT_EQ(deliveries[i].correlation, 5u);
    EXPECT_EQ(deliveries[i].event.subscription_id, sub);
    EXPECT_EQ(deliveries[i].event.sequence, i);
    if (i == 0) continue;
    EXPECT_EQ(deliveries[i].event.kind, PushKind::kMatch);
    EXPECT_EQ(deliveries[i].event.svs_id, static_cast<core::SvsId>(i));
  }

  // An unknown or unsubscribed id enqueues nothing.
  EXPECT_FALSE(engine.Forward(sub + 1, edge_event));
  ASSERT_TRUE(engine.Unsubscribe(1, sub).ok());
  EXPECT_FALSE(engine.Forward(sub, edge_event));
  EXPECT_FALSE(engine.WaitForWork(0));
  EXPECT_TRUE(engine.Drain(1).empty());
  const auto stats = engine.stats();
  EXPECT_EQ(stats.events_enqueued, 6u);
  EXPECT_EQ(stats.events_dropped, 2u);
}

// The seeded slow-subscriber drill: random interleavings of enqueue bursts
// and drains against a tiny queue. Whatever the schedule, the bounded-queue
// contract holds: drains respect the per-round budget, a gap marker leads
// its batch and accounts every drop exactly, drop-oldest preserves arrival
// order among survivors, and sequences stay dense as delivered.
TEST(SubscriptionEngineTest, SeededSlowSubscriberDrill) {
  const size_t seeds = NumSubSeeds();
  for (uint64_t seed = 1; seed <= seeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed * 1'000 + 3);
    SubscriptionEngine::Options options;
    options.queue_capacity = 2 + rng.UniformUint64(8);
    options.max_drain_per_subscription = 1 + rng.UniformUint64(6);
    SubscriptionEngine engine(options);
    const uint64_t sub =
        engine.Subscribe(/*conn_id=*/1, /*correlation=*/seed,
                         MatchAllQuery(4));

    core::SvsId next_svs = 0;
    uint64_t next_sequence = 0;
    uint64_t delivered_matches = 0;
    uint64_t gap_dropped_total = 0;
    core::SvsId last_delivered_svs = -1;
    const size_t rounds = 60;
    for (size_t round = 0; round < rounds; ++round) {
      if (rng.Bernoulli(0.6)) {
        const size_t burst = 1 + rng.UniformUint64(6);
        for (size_t i = 0; i < burst; ++i) {
          engine.OnSegment(MakeSvs(next_svs++, "cam-a"));
        }
      } else {
        const auto batch = engine.Drain(1);
        ASSERT_LE(batch.size(), options.max_drain_per_subscription);
        for (size_t i = 0; i < batch.size(); ++i) {
          const PushEvent& event = batch[i].event;
          EXPECT_EQ(event.subscription_id, sub);
          EXPECT_EQ(event.sequence, next_sequence++);
          if (event.kind == PushKind::kGap) {
            EXPECT_EQ(i, 0u) << "gap marker must lead its batch";
            EXPECT_GT(event.dropped, 0u);
            gap_dropped_total += event.dropped;
          } else {
            ASSERT_EQ(event.kind, PushKind::kMatch);
            // Drop-oldest keeps survivors in arrival order.
            EXPECT_GT(event.svs_id, last_delivered_svs);
            last_delivered_svs = event.svs_id;
            ++delivered_matches;
          }
        }
      }
    }
    // Drain to empty: every enqueued event is now either delivered or
    // accounted for by a gap marker.
    for (;;) {
      const auto batch = engine.Drain(1);
      if (batch.empty()) break;
      for (size_t i = 0; i < batch.size(); ++i) {
        const PushEvent& event = batch[i].event;
        EXPECT_EQ(event.sequence, next_sequence++);
        if (event.kind == PushKind::kGap) {
          EXPECT_EQ(i, 0u);
          gap_dropped_total += event.dropped;
        } else {
          EXPECT_GT(event.svs_id, last_delivered_svs);
          last_delivered_svs = event.svs_id;
          ++delivered_matches;
        }
      }
    }
    const auto stats = engine.stats();
    EXPECT_EQ(stats.events_enqueued, static_cast<uint64_t>(next_svs));
    EXPECT_EQ(stats.events_dropped, gap_dropped_total);
    EXPECT_EQ(delivered_matches + gap_dropped_total,
              static_cast<uint64_t>(next_svs));
  }
}

// --- Batched ingest: kIngestBatch vs per-frame, bit for bit. ---

TEST(SubscribeTest, IngestBatchMatchesPerFrameBitForBit) {
  sim::Deployment deployment(SmallDeployment());
  const auto& observations = deployment.observations();

  VideoZilla per_frame_system(SmallSystemOptions());
  Server per_frame_server(&per_frame_system, {});
  ASSERT_TRUE(per_frame_server.Start().ok());
  auto per_frame = Client::Connect("127.0.0.1", per_frame_server.port());
  ASSERT_TRUE(per_frame.ok());
  IngestOverWire(&deployment, &*per_frame);

  VideoZilla batched_system(SmallSystemOptions());
  Server batched_server(&batched_system, {});
  ASSERT_TRUE(batched_server.Start().ok());
  auto batched = Client::Connect("127.0.0.1", batched_server.port());
  ASSERT_TRUE(batched.ok());
  for (const auto& info : deployment.cameras()) {
    ASSERT_TRUE(batched->CameraStart(info.camera).ok());
  }
  uint64_t accepted_total = 0;
  const size_t kBatch = 16;
  for (size_t begin = 0; begin < observations.size(); begin += kBatch) {
    const size_t end = std::min(begin + kBatch, observations.size());
    std::vector<core::FrameObservation> batch(observations.begin() + begin,
                                              observations.begin() + end);
    auto reply = batched->IngestBatch(batch);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    accepted_total += reply->accepted;
    EXPECT_EQ(reply->rejected, 0u);
  }
  ASSERT_TRUE(batched->Flush().ok());

  EXPECT_EQ(accepted_total, observations.size());
  EXPECT_GT(batched_server.stats().ingest_batches, 0u);

  // Identical end state: the batch boundary is a transport detail.
  EXPECT_EQ(batched_system.ingest_stats().frames_offered,
            per_frame_system.ingest_stats().frames_offered);
  EXPECT_EQ(batched_system.ingest_stats().svs_created,
            per_frame_system.ingest_stats().svs_created);
  EXPECT_EQ(batched_system.svs_store().size(),
            per_frame_system.svs_store().size());
  Rng rng(7);
  const FeatureVector query = deployment.MakeQueryFeature(0, &rng);
  auto from_batched = batched->DirectQuery(query);
  auto from_per_frame = per_frame->DirectQuery(query);
  ASSERT_TRUE(from_batched.ok());
  ASSERT_TRUE(from_per_frame.ok());
  EXPECT_EQ(from_batched->candidate_svss, from_per_frame->candidate_svss);
  EXPECT_EQ(from_batched->matched_svss, from_per_frame->matched_svss);
  EXPECT_EQ(from_batched->total_gpu_ms, from_per_frame->total_gpu_ms);

  per_frame->Close();
  batched->Close();
  per_frame_server.Shutdown();
  batched_server.Shutdown();
}

// --- AdminTune: the monitor's adjustment ladder over the wire. ---

TEST(SubscribeTest, AdminTuneAppliesAndEchoesSettings) {
  VideoZilla system(SmallSystemOptions());
  Server server(&system, {});
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());

  // An empty request is a pure read: it echoes the current settings.
  auto before = client->AdminTune({});
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  EXPECT_DOUBLE_EQ(before->boundary_scale, 1.0);

  AdminTuneRequest tune;
  tune.boundary_scale = 1.5;
  tune.keyframe_selection = true;
  auto after = client->AdminTune(tune);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_DOUBLE_EQ(after->boundary_scale, 1.5);
  EXPECT_TRUE(after->keyframe_selection);
  EXPECT_DOUBLE_EQ(system.boundary_scale(), 1.5);
  EXPECT_TRUE(system.keyframe_selection());

  // Unset knobs are left alone by a later partial tune.
  AdminTuneRequest partial;
  partial.keyframe_selection = false;
  auto echoed = client->AdminTune(partial);
  ASSERT_TRUE(echoed.ok());
  EXPECT_DOUBLE_EQ(echoed->boundary_scale, 1.5);
  EXPECT_FALSE(echoed->keyframe_selection);

  // A non-positive boundary scale is refused before anything applies.
  AdminTuneRequest invalid;
  invalid.boundary_scale = 0.0;
  EXPECT_FALSE(client->AdminTune(invalid).ok());
  EXPECT_DOUBLE_EQ(system.boundary_scale(), 1.5);

  client->Close();
  server.Shutdown();
}

// --- Coordinator: subscriptions fan out over every shard. ---

/// Frames appended past the deployment's feed end for one camera — new
/// segments finalized *after* a subscription exists, so they must push.
void IngestLateSegment(core::VideoZilla* system, const core::CameraId& camera,
                       int64_t base_ms, int64_t base_frame_id) {
  for (int i = 0; i < 3; ++i) {
    core::FrameObservation frame;
    frame.camera = camera;
    frame.timestamp_ms = base_ms + i * 1'000;
    frame.frame_id = base_frame_id + i;
    core::DetectedObject object;
    object.feature = FeatureVector(std::vector<float>(32, 0.25f));
    frame.objects.push_back(object);
    ASSERT_TRUE(system->IngestFrame(frame).ok());
  }
  ASSERT_TRUE(system->Flush().ok());
}

TEST(CoordinatorSubscribeTest, FanOutPushesArriveWithGlobalIds) {
  sim::Deployment deployment(SmallDeployment());
  (void)deployment.observations();
  const size_t kEdges = 3;
  TestCluster cluster(&deployment, kEdges, SmallSystemOptions());
  ASSERT_TRUE(cluster.StartEdges().ok());
  ASSERT_TRUE(cluster.StartCoordinator().ok());

  auto connected = cluster.Connect(501);
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  Client client = std::move(*connected);
  EventSink sink;
  auto sub_id = client.Subscribe(
      MatchAllQuery(), [&sink](const PushEvent& event) { sink.Push(event); });
  ASSERT_TRUE(sub_id.ok()) << sub_id.status().ToString();
  EXPECT_EQ(cluster.coordinator().stats().subscriptions_active, 1u);

  // Late segments per shard, finalized after the subscription: the
  // coordinator must forward one push per finalized segment, remapped to
  // global ids. (The long silence before the late frames closes an extra
  // boundary segment per camera, so count what each edge actually created.)
  uint64_t expected_pushes = 0;
  for (size_t i = 0; i < kEdges; ++i) {
    ASSERT_FALSE(cluster.shard_cameras(i).empty());
    const uint64_t before = cluster.system(i).ingest_stats().svs_created;
    IngestLateSegment(&cluster.system(i), cluster.shard_cameras(i)[0],
                      /*base_ms=*/200'000, /*base_frame_id=*/1'000'000 + i);
    if (::testing::Test::HasFatalFailure()) return;
    const uint64_t created =
        cluster.system(i).ingest_stats().svs_created - before;
    ASSERT_GT(created, 0u) << "edge " << i;
    expected_pushes += created;
  }
  ASSERT_TRUE(sink.WaitForCount(expected_pushes, 30'000))
      << "got " << sink.count() << " of " << expected_pushes << " pushes";

  const std::vector<PushEvent> events = sink.Snapshot();
  ASSERT_EQ(events.size(), expected_pushes);
  ExpectDenseSequences(events, *sub_id);
  std::vector<bool> shard_seen(kEdges, false);
  for (const PushEvent& event : events) {
    EXPECT_EQ(event.kind, PushKind::kMatch);
    const size_t shard = ShardOfSvsId(event.svs_id);
    ASSERT_LT(shard, kEdges);
    shard_seen[shard] = true;
    // The announced camera really lives on the announced shard.
    const auto& cameras = cluster.shard_cameras(shard);
    EXPECT_NE(std::find(cameras.begin(), cameras.end(), event.camera),
              cameras.end());
  }
  for (size_t i = 0; i < kEdges; ++i) {
    EXPECT_TRUE(shard_seen[i]) << "no push from shard " << i;
  }
  const CoordinatorStats stats = cluster.coordinator().stats();
  EXPECT_GE(stats.pushes_forwarded, expected_pushes);

  // Unsubscribe reclaims the fan-out: coordinator gauge drops, and the
  // dedicated per-edge subscriptions are torn down on the edges too.
  ASSERT_TRUE(client.Unsubscribe(*sub_id).ok());
  EXPECT_EQ(cluster.coordinator().stats().subscriptions_active, 0u);

  client.Close();
}

// Every leg of every client subscription rides its edge's one push
// connection: ten standing queries over one client cost each edge no
// connection beyond the checkout pool and that push connection, so no
// edge sheds one and none loses its health.
TEST(CoordinatorSubscribeTest, SubscriptionsShareOneEdgeConnection) {
  sim::Deployment deployment(SmallDeployment());
  (void)deployment.observations();
  const size_t kEdges = 2;
  TestCluster cluster(&deployment, kEdges, SmallSystemOptions());
  ASSERT_TRUE(cluster.StartEdges().ok());
  ASSERT_TRUE(cluster.StartCoordinator().ok());

  auto connected = cluster.Connect(701);
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  Client client = std::move(*connected);
  Rng query_rng(71);
  const FeatureVector query = deployment.MakeQueryFeature(0, &query_rng);
  auto warm = client.DirectQuery(query);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();

  const size_t kSubscriptions = 10;
  for (size_t s = 0; s < kSubscriptions; ++s) {
    auto id = client.Subscribe(MatchAllQuery(), [](const PushEvent&) {});
    ASSERT_TRUE(id.ok()) << "subscription " << s << ": "
                         << id.status().ToString();
  }
  EXPECT_EQ(cluster.coordinator().stats().subscriptions_active,
            kSubscriptions);
  for (const ShardHealthInfo& shard : cluster.coordinator().shard_health()) {
    EXPECT_EQ(shard.state, ShardState::kHealthy) << "port " << shard.port;
  }
  for (size_t i = 0; i < kEdges; ++i) {
    const ServerStats stats = cluster.server(i).stats();
    EXPECT_EQ(stats.connections_shed, 0u) << "edge " << i;
    // The ten legs plus the coordinator's rep-push subscription.
    EXPECT_EQ(stats.subscriptions_active, kSubscriptions + 1)
        << "edge " << i;
  }

  auto after = client.DirectQuery(query);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_FALSE(after->degraded);
  EXPECT_TRUE(after->excluded_cameras.empty());
  client.Close();
}

// A client subscription's edge legs end with it: on Unsubscribe, on the
// client's disconnect, and on the coordinator's shutdown, which also ends
// the rep-push subscription.
TEST(CoordinatorSubscribeTest, EdgeLegsAreReclaimed) {
  sim::Deployment deployment(SmallDeployment());
  (void)deployment.observations();
  const size_t kEdges = 2;
  TestCluster cluster(&deployment, kEdges, SmallSystemOptions());
  ASSERT_TRUE(cluster.StartEdges().ok());
  ASSERT_TRUE(cluster.StartCoordinator().ok());

  // Waits until every edge holds exactly `n` subscriptions.
  auto edges_hold = [&](uint64_t n) {
    for (int waited = 0; waited < 1'000; ++waited) {
      bool all = true;
      for (size_t i = 0; i < kEdges; ++i) {
        all = all && cluster.server(i).stats().subscriptions_active == n;
      }
      if (all) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return false;
  };
  auto subscribe = [](Client* client) {
    auto id = client->Subscribe(MatchAllQuery(), [](const PushEvent&) {});
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    return id.ok() ? *id : 0;
  };
  // The rep-push subscription alone.
  ASSERT_TRUE(edges_hold(1));

  auto unsubscriber = cluster.Connect(801);
  ASSERT_TRUE(unsubscriber.ok());
  const uint64_t id = subscribe(&*unsubscriber);
  EXPECT_TRUE(edges_hold(2));
  ASSERT_TRUE(unsubscriber->Unsubscribe(id).ok());
  EXPECT_TRUE(edges_hold(1)) << "legs outlived Unsubscribe";

  auto leaver = cluster.Connect(802);
  ASSERT_TRUE(leaver.ok());
  (void)subscribe(&*leaver);
  (void)subscribe(&*leaver);
  EXPECT_TRUE(edges_hold(3));
  leaver->Close();
  EXPECT_TRUE(edges_hold(1)) << "legs outlived their client's connection";

  (void)subscribe(&*unsubscriber);
  EXPECT_TRUE(edges_hold(2));
  cluster.coordinator().Shutdown();
  EXPECT_TRUE(edges_hold(0)) << "subscriptions outlived the coordinator";
  unsubscriber->Close();
}

TEST(CoordinatorSubscribeTest, AdminTuneFansOutToEveryEdge) {
  sim::Deployment deployment(SmallDeployment());
  (void)deployment.observations();
  const size_t kEdges = 3;
  TestCluster cluster(&deployment, kEdges, SmallSystemOptions());
  ASSERT_TRUE(cluster.StartEdges().ok());
  ASSERT_TRUE(cluster.StartCoordinator().ok());

  auto connected = cluster.Connect(601);
  ASSERT_TRUE(connected.ok());
  Client client = std::move(*connected);
  AdminTuneRequest tune;
  tune.boundary_scale = 1.25;
  auto reply = client.AdminTune(tune);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_DOUBLE_EQ(reply->boundary_scale, 1.25);
  for (size_t i = 0; i < kEdges; ++i) {
    EXPECT_DOUBLE_EQ(cluster.system(i).boundary_scale(), 1.25)
        << "edge " << i;
  }
  client.Close();
}

// An edge index push must wake the coordinator's rep-sync long before its
// interval: with a 30 s interval, fresh representatives can only appear via
// the push path.
TEST(CoordinatorSubscribeTest, RepPushWakesSyncBeforeTheInterval) {
  sim::Deployment deployment(SmallDeployment());
  (void)deployment.observations();

  VideoZilla edge(SmallSystemOptions());
  Server edge_server(&edge, {});
  ASSERT_TRUE(edge_server.Start().ok());

  CoordinatorOptions options;
  options.edges = {{"127.0.0.1", edge_server.port()}};
  options.sync_interval_ms = 30'000;  // the interval alone would sleep past
                                      // the whole test
  options.omd = SmallSystemOptions().omd;
  options.inter = SmallSystemOptions().inter;
  Coordinator coordinator(options);
  ASSERT_TRUE(coordinator.Start().ok());
  // The startup pass (empty edge) established the stats watcher; the edge
  // has nothing to sync yet.
  EXPECT_EQ(coordinator.stats().rep_entries, 0u);

  // Ingest through the edge server: its index version advances, the watcher
  // pushes, and the coordinator's sync thread wakes off-interval.
  auto ingester = Client::Connect("127.0.0.1", edge_server.port());
  ASSERT_TRUE(ingester.ok());
  IngestOverWire(&deployment, &*ingester);

  bool woke = false;
  for (int waited = 0; waited < 1'000 && !woke; ++waited) {
    const CoordinatorStats stats = coordinator.stats();
    woke = stats.rep_push_wakeups > 0 && stats.rep_entries > 0;
    if (!woke) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const CoordinatorStats stats = coordinator.stats();
  EXPECT_GT(stats.rep_push_wakeups, 0u);
  EXPECT_GT(stats.rep_entries, 0u);
  EXPECT_GT(stats.rep_sync_updates, 0u);

  ingester->Close();
  coordinator.Shutdown();
  edge_server.Shutdown();
}

}  // namespace
}  // namespace vz::net
