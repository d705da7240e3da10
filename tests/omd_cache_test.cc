#include "core/omd_cache.h"

#include <gtest/gtest.h>

#include <string>
#include <unordered_set>
#include <vector>

#include "core/monitor.h"
#include "core/omd.h"
#include "core/videozilla.h"
#include "sim/dataset.h"
#include "sim/object_class.h"
#include "sim/verifier.h"
#include "test_util.h"

namespace vz::core {
namespace {

using ::vz::testing::MakeMap;

constexpr OmdMode kThr = OmdMode::kThresholded;
constexpr OmdMode kExact = OmdMode::kExact;

TEST(OmdDistanceCacheTest, MissThenInsertThenHit) {
  OmdDistanceCache cache(8);
  EXPECT_FALSE(cache.Lookup(1, 2, kThr, 0.6).has_value());
  cache.Insert(1, 2, kThr, 0.6, 3.5);
  auto hit = cache.Lookup(1, 2, kThr, 0.6);
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(*hit, 3.5);
  const OmdCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.capacity, 8u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
}

TEST(OmdDistanceCacheTest, KeyIsSymmetricInIdOrder) {
  OmdDistanceCache cache(8);
  cache.Insert(7, 3, kThr, 0.6, 1.25);
  auto hit = cache.Lookup(3, 7, kThr, 0.6);
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(*hit, 1.25);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(OmdDistanceCacheTest, KeyIncludesModeAndAlpha) {
  // A thresholded value must never answer an exact lookup (the monitor's
  // "accurate OMD" adjustment re-keys every pair), nor a different alpha.
  OmdDistanceCache cache(8);
  cache.Insert(1, 2, kThr, 0.6, 2.0);
  EXPECT_FALSE(cache.Lookup(1, 2, kExact, 0.6).has_value());
  EXPECT_FALSE(cache.Lookup(1, 2, kThr, 1.0).has_value());
  EXPECT_TRUE(cache.Lookup(1, 2, kThr, 0.6).has_value());
  cache.Insert(1, 2, kExact, 1.0, 4.0);
  EXPECT_EQ(cache.size(), 2u);  // distinct entries for distinct configs
  EXPECT_DOUBLE_EQ(*cache.Lookup(1, 2, kExact, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(*cache.Lookup(1, 2, kThr, 0.6), 2.0);
}

TEST(OmdDistanceCacheTest, EvictsLeastRecentlyUsedAtCapacity) {
  OmdDistanceCache cache(2);
  cache.Insert(1, 2, kThr, 0.6, 1.0);
  cache.Insert(3, 4, kThr, 0.6, 2.0);
  // Touch (1, 2) so (3, 4) becomes the LRU entry.
  EXPECT_TRUE(cache.Lookup(1, 2, kThr, 0.6).has_value());
  cache.Insert(5, 6, kThr, 0.6, 3.0);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(cache.Lookup(1, 2, kThr, 0.6).has_value());
  EXPECT_FALSE(cache.Lookup(3, 4, kThr, 0.6).has_value());  // evicted
  EXPECT_TRUE(cache.Lookup(5, 6, kThr, 0.6).has_value());
}

TEST(OmdDistanceCacheTest, OverwriteUpdatesExistingEntry) {
  OmdDistanceCache cache(8);
  cache.Insert(1, 2, kThr, 0.6, 1.0);
  cache.Insert(1, 2, kThr, 0.6, 9.0);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_DOUBLE_EQ(*cache.Lookup(1, 2, kThr, 0.6), 9.0);
}

TEST(OmdDistanceCacheTest, InvalidateSvsDropsEveryPairInvolvingIt) {
  OmdDistanceCache cache(16);
  cache.Insert(1, 2, kThr, 0.6, 1.0);
  cache.Insert(1, 3, kThr, 0.6, 2.0);
  cache.Insert(1, 3, kExact, 1.0, 2.5);  // second config, same pair
  cache.Insert(2, 3, kThr, 0.6, 3.0);
  cache.InvalidateSvs(1);
  EXPECT_FALSE(cache.Lookup(1, 2, kThr, 0.6).has_value());
  EXPECT_FALSE(cache.Lookup(1, 3, kThr, 0.6).has_value());
  EXPECT_FALSE(cache.Lookup(1, 3, kExact, 1.0).has_value());
  // Pairs not involving id 1 survive.
  EXPECT_TRUE(cache.Lookup(2, 3, kThr, 0.6).has_value());
  EXPECT_EQ(cache.stats().invalidations, 3u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(OmdDistanceCacheTest, ClearAndResetStats) {
  OmdDistanceCache cache(8);
  cache.Insert(1, 2, kThr, 0.6, 1.0);
  cache.Insert(3, 4, kThr, 0.6, 2.0);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().invalidations, 2u);
  cache.ResetStats();
  const OmdCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.insertions, 0u);
  EXPECT_EQ(stats.invalidations, 0u);
}

TEST(OmdDistanceCacheTest, TokenGuardedInsertRejectsFiredToken) {
  // Regression: a distance computed under an expired deadline may rest on a
  // partially filled ground matrix or an aborted solve. Memoizing it would
  // poison every later query for the pair, so the guarded insert must drop
  // it (and count the drop) instead.
  OmdDistanceCache cache(8);
  CancelToken fired;
  fired.Cancel();
  cache.Insert(1, 2, kThr, 0.6, 99.0, &fired);
  EXPECT_FALSE(cache.Lookup(1, 2, kThr, 0.6).has_value());
  EXPECT_EQ(cache.size(), 0u);
  const OmdCacheStats stats = cache.stats();
  EXPECT_EQ(stats.insertions, 0u);
  EXPECT_EQ(stats.rejected_inserts, 1u);
}

TEST(OmdDistanceCacheTest, TokenGuardedInsertAcceptsLiveAndNullTokens) {
  OmdDistanceCache cache(8);
  CancelToken live;  // never fires
  cache.Insert(1, 2, kThr, 0.6, 3.0, &live);
  cache.Insert(3, 4, kThr, 0.6, 4.0, /*cancel=*/nullptr);
  EXPECT_DOUBLE_EQ(*cache.Lookup(1, 2, kThr, 0.6), 3.0);
  EXPECT_DOUBLE_EQ(*cache.Lookup(3, 4, kThr, 0.6), 4.0);
  const OmdCacheStats stats = cache.stats();
  EXPECT_EQ(stats.insertions, 2u);
  EXPECT_EQ(stats.rejected_inserts, 0u);
}

TEST(OmdDistanceCacheTest, TokenExpiringAfterComputeStillRejects) {
  // The race the guard exists for: the deadline fires between the solve and
  // the insert. The guard re-checks at insert time, so the late value is
  // still dropped.
  SimClock clock;
  SimClockTimeSource source(&clock);
  OmdDistanceCache cache(8);
  CancelToken token(Deadline::AfterMs(&source, 10));
  cache.Insert(1, 2, kThr, 0.6, 1.0, &token);  // live: accepted
  clock.AdvanceMs(10);                         // deadline passes
  cache.Insert(3, 4, kThr, 0.6, 2.0, &token);  // fired: rejected
  EXPECT_TRUE(cache.Lookup(1, 2, kThr, 0.6).has_value());
  EXPECT_FALSE(cache.Lookup(3, 4, kThr, 0.6).has_value());
  EXPECT_EQ(cache.stats().rejected_inserts, 1u);
}

TEST(OmdDistanceCacheTest, ResetStatsClearsRejectedInserts) {
  OmdDistanceCache cache(8);
  CancelToken fired;
  fired.Cancel();
  cache.Insert(1, 2, kThr, 0.6, 1.0, &fired);
  EXPECT_EQ(cache.stats().rejected_inserts, 1u);
  cache.ResetStats();
  EXPECT_EQ(cache.stats().rejected_inserts, 0u);
}

TEST(SvsMetricSharedCacheTest, SecondDistanceIsServedFromCache) {
  SvsStore store;
  const SvsId a = store.Create("cam", 0, 10, MakeMap(8, 4, 0.0, 0.3, 21));
  const SvsId b = store.Create("cam", 10, 20, MakeMap(8, 4, 4.0, 0.3, 22));
  OmdCalculator calc;
  OmdDistanceCache cache(16);
  SvsMetric metric(&store, &calc);
  metric.set_shared_cache(&cache);
  const double d1 = metric.Distance(static_cast<int>(a), static_cast<int>(b));
  EXPECT_EQ(metric.num_distance_evals(), 1u);
  const double d2 = metric.Distance(static_cast<int>(b), static_cast<int>(a));
  EXPECT_EQ(metric.num_distance_evals(), 1u);  // symmetric cache hit
  EXPECT_DOUBLE_EQ(d1, d2);
  EXPECT_EQ(cache.stats().hits, 1u);
  // A mode switch on the calculator re-keys the pair: full recompute.
  calc.set_mode(OmdMode::kExact);
  metric.Distance(static_cast<int>(a), static_cast<int>(b));
  EXPECT_EQ(metric.num_distance_evals(), 2u);
}

TEST(SvsMetricSharedCacheTest, InvalidateCacheClearsSharedCache) {
  SvsStore store;
  const SvsId a = store.Create("cam", 0, 10, MakeMap(6, 4, 0.0, 0.3, 23));
  const SvsId b = store.Create("cam", 10, 20, MakeMap(6, 4, 2.0, 0.3, 24));
  OmdCalculator calc;
  OmdDistanceCache cache(16);
  SvsMetric metric(&store, &calc);
  metric.set_shared_cache(&cache);
  metric.Distance(static_cast<int>(a), static_cast<int>(b));
  EXPECT_EQ(cache.size(), 1u);
  metric.InvalidateCache();
  EXPECT_EQ(cache.size(), 0u);
  metric.Distance(static_cast<int>(a), static_cast<int>(b));
  EXPECT_EQ(metric.num_distance_evals(), 2u);
}

// The solver is not bit-symmetric: OMD(a, b) and OMD(b, a) may differ in the
// last bits. A memoizing metric must return the same bits for a pair no
// matter which orientation was asked first — those of a cold metric.
void ExpectOrientationIndependent(bool shared) {
  SvsStore store;
  for (int i = 0; i < 6; ++i) {
    store.Create("cam", i * 10, i * 10 + 10,
                 MakeMap(5 + 3 * static_cast<size_t>(i), 6, 0.4 * i, 0.5,
                         60 + static_cast<uint64_t>(i)));
  }
  OmdCalculator calc;
  const int n = static_cast<int>(store.size());
  for (int a = 0; a < n; ++a) {
    for (int b = 0; b < n; ++b) {
      if (a == b) continue;
      SCOPED_TRACE(std::to_string(a) + ", " + std::to_string(b));
      OmdDistanceCache warm_cache(64);
      SvsMetric warm(&store, &calc);
      if (shared) warm.set_shared_cache(&warm_cache);
      (void)warm.Distance(b, a);
      const double memoized = warm.Distance(a, b);
      OmdDistanceCache cold_cache(64);
      SvsMetric cold(&store, &calc);
      if (shared) cold.set_shared_cache(&cold_cache);
      EXPECT_EQ(memoized, cold.Distance(a, b));
    }
  }
}

TEST(SvsMetricOrientationTest, PrivateMemoIgnoresAskingOrder) {
  ExpectOrientationIndependent(/*shared=*/false);
}

TEST(SvsMetricOrientationTest, SharedCacheIgnoresAskingOrder) {
  ExpectOrientationIndependent(/*shared=*/true);
}

// --- System-level behaviour through VideoZilla / PerformanceMonitor. ---

sim::DeploymentOptions SmallDeployment() {
  sim::DeploymentOptions options;
  options.cities = 1;
  options.downtown_per_city = 1;
  options.highway_cameras = 1;
  options.train_stations = 1;
  options.harbors = 1;
  options.feed_duration_ms = 60'000;
  options.fps = 1.0;
  options.feature_dim = 32;
  options.seed = 5;
  return options;
}

VideoZillaOptions FastVzOptions() {
  VideoZillaOptions options;
  options.segmenter.t_max_ms = 30'000;
  options.segmenter.t_split_ms = 10'000;
  options.omd.max_vectors = 64;
  options.intra.recluster_interval = 2;
  options.boundary_scale = 1.3;
  options.enable_keyframe_selection = false;
  return options;
}

class OmdCacheSystemTest : public ::testing::Test {
 protected:
  OmdCacheSystemTest() : deployment_(SmallDeployment()), system_(FastVzOptions()) {
    EXPECT_TRUE(deployment_.IngestAll(&system_).ok());
  }

  sim::Deployment deployment_;
  VideoZilla system_;
};

TEST_F(OmdCacheSystemTest, RepeatedClusteringQueryHitsTheCache) {
  ASSERT_GT(system_.svs_store().size(), 1u);
  // kIntraOnly forces the flat OMD-scan fallback — the cached path.
  system_.SetIndexMode(IndexMode::kIntraOnly);
  system_.omd_cache().ResetStats();
  auto first = system_.ClusteringQuery(SvsId{0});
  ASSERT_TRUE(first.ok());
  const OmdCacheStats cold = system_.omd_cache().stats();
  EXPECT_GT(cold.insertions, 0u);
  auto second = system_.ClusteringQuery(SvsId{0});
  ASSERT_TRUE(second.ok());
  const OmdCacheStats warm = system_.omd_cache().stats();
  EXPECT_GT(warm.hits, cold.hits);
  EXPECT_GT(warm.hit_rate(), 0.0);
  // Cached answers change nothing about the result.
  EXPECT_EQ(first->similar_svss, second->similar_svss);
  EXPECT_EQ(first->cameras_contributing, second->cameras_contributing);
}

// The flat fallback memoizes (target, candidate) pairs into the cache the
// intra indices read. It must store the bits a cold metric computes, lower
// id first, or a later insert would read different bits than a replica that
// never served the query.
TEST_F(OmdCacheSystemTest, FlatFallbackCachesPairsLowerIdFirst) {
  ASSERT_GT(system_.svs_store().size(), 2u);
  system_.SetIndexMode(IndexMode::kIntraOnly);
  system_.omd_cache().Clear();
  const SvsId target = static_cast<SvsId>(system_.svs_store().size() - 1);
  auto result = system_.ClusteringQuery(target);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->fast_omd_routed);
  const OmdOptions& omd = system_.omd().options();
  for (SvsId id = 0; id < target; ++id) {
    SCOPED_TRACE("candidate " + std::to_string(id));
    auto cached = system_.omd_cache().Lookup(target, id, omd.mode,
                                             omd.threshold_alpha);
    ASSERT_TRUE(cached.has_value());
    // Whichever orientation a cold metric is asked, it solves the pair
    // lower id first.
    SvsMetric forward(&system_.svs_store(), &system_.omd());
    SvsMetric backward(&system_.svs_store(), &system_.omd());
    EXPECT_EQ(*cached, forward.Distance(static_cast<int>(id),
                                        static_cast<int>(target)));
    EXPECT_EQ(*cached, backward.Distance(static_cast<int>(target),
                                         static_cast<int>(id)));
  }
}

// A by-id clustering query memoizes its target-to-entry solves in the
// instance's one memo: a repeat on an unchanged index solves nothing, and
// after one camera's representatives change only pairs with its new entries
// may solve.
TEST_F(OmdCacheSystemTest, RepeatedClusteringQueryByIdReusesItsSolves) {
  ASSERT_EQ(system_.index_mode(), IndexMode::kHierarchical);
  ASSERT_GT(system_.inter_index().size(), 0u);
  const SvsId target = 0;
  auto svs = system_.svs_store().Get(target);
  ASSERT_TRUE(svs.ok());
  const FeatureMap& map = (*svs)->features();
  auto first = system_.ClusteringQuery(target);
  ASSERT_TRUE(first.ok());
  uint64_t solves = system_.omd().num_computations();
  auto second = system_.ClusteringQuery(target);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(system_.omd().num_computations(), solves);
  EXPECT_EQ(second->similar_svss, first->similar_svss);

  // The same map without its id has no identity, so it is solved afresh.
  auto by_map = system_.ClusteringQuery(map);
  ASSERT_TRUE(by_map.ok());
  EXPECT_GT(system_.omd().num_computations(), solves);
  EXPECT_EQ(by_map->similar_svss, first->similar_svss);

  // Re-derive the representatives of a camera with no entry in the target's
  // group, so the nearest entry survives the update.
  const InterCameraIndex& inter = system_.inter_index();
  auto group = inter.GroupOfNearest(map, target);
  ASSERT_TRUE(group.ok());
  std::unordered_set<CameraId> in_group;
  for (size_t idx : (*group)->entry_indices) {
    in_group.insert(inter.entries()[idx].camera);
  }
  CameraId updated;
  for (const CameraId& camera : system_.cameras()) {
    if (in_group.count(camera) == 0) {
      updated = camera;
      break;
    }
  }
  ASSERT_FALSE(updated.empty());
  const uint64_t version = system_.index_version();
  const int64_t base_ms = system_.now_ms() + 1000;
  for (int i = 0; i < 300 && system_.index_version() == version; ++i) {
    FrameObservation frame;
    frame.camera = updated;
    frame.timestamp_ms = base_ms + i * 1000;
    frame.frame_id = 2'000'000 + i;
    DetectedObject object;
    object.feature = FeatureVector(std::vector<float>(32, 0.5f));
    frame.objects.push_back(object);
    ASSERT_TRUE(system_.IngestFrame(frame).ok());
  }
  ASSERT_NE(system_.index_version(), version);
  size_t new_entries = 0;
  for (const auto& entry : inter.entries()) {
    new_entries += entry.camera == updated ? 1 : 0;
  }
  solves = system_.omd().num_computations();
  ASSERT_TRUE(system_.ClusteringQuery(target).ok());
  EXPECT_LE(system_.omd().num_computations() - solves, new_entries);
}

TEST_F(OmdCacheSystemTest, IngestingAnSvsInvalidatesItsCachedPairs) {
  // SVS ids are dense and monotonic, so the next ingested SVS gets id ==
  // store.size(). Poison the cache for that id; creation must drop it.
  const SvsId next_id = static_cast<SvsId>(system_.svs_store().size());
  const OmdOptions& omd = system_.omd().options();
  system_.omd_cache().Insert(next_id, 0, omd.mode, omd.threshold_alpha, 123.0);
  ASSERT_TRUE(system_.omd_cache()
                  .Lookup(next_id, 0, omd.mode, omd.threshold_alpha)
                  .has_value());
  // Feed fresh frames into an existing camera and flush out the segment.
  const int64_t base_ms = system_.now_ms() + 60'000;
  for (int i = 0; i < 4; ++i) {
    FrameObservation frame;
    frame.camera = "harbor-0";
    frame.timestamp_ms = base_ms + i * 1000;
    frame.frame_id = 1'000'000 + i;
    DetectedObject object;
    object.feature = FeatureVector(std::vector<float>(32, 0.5f));
    frame.objects.push_back(object);
    ASSERT_TRUE(system_.IngestFrame(frame).ok());
  }
  ASSERT_TRUE(system_.Flush().ok());
  ASSERT_GT(system_.svs_store().size(), static_cast<size_t>(next_id));
  EXPECT_FALSE(system_.omd_cache()
                   .Lookup(next_id, 0, omd.mode, omd.threshold_alpha)
                   .has_value())
      << "stale pair survived ingestion of SVS " << next_id;
}

TEST_F(OmdCacheSystemTest, MonitorExposesCacheCounters) {
  PerformanceMonitor monitor(&system_, MonitorOptions(),
                             [](const FeatureVector&) {
                               return std::vector<SvsId>();
                             });
  system_.SetIndexMode(IndexMode::kIntraOnly);
  system_.omd_cache().ResetStats();
  ASSERT_TRUE(system_.ClusteringQuery(SvsId{0}).ok());
  ASSERT_TRUE(system_.ClusteringQuery(SvsId{0}).ok());
  const OmdCacheStats via_monitor = monitor.omd_cache_stats();
  const OmdCacheStats via_system = system_.omd_cache().stats();
  EXPECT_EQ(via_monitor.hits, via_system.hits);
  EXPECT_EQ(via_monitor.misses, via_system.misses);
  EXPECT_GT(via_monitor.hits, 0u);
  EXPECT_EQ(via_monitor.capacity, OmdDistanceCache::kDefaultCapacity);
}

}  // namespace
}  // namespace vz::core
