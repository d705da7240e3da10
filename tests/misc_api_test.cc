// Coverage for small public APIs that the larger suites exercise only
// incidentally: metric memoization, calculator knobs, store orderings, and
// logging levels.
#include <gtest/gtest.h>

#include "common/logging.h"
#include "core/omd.h"
#include "test_util.h"

namespace vz {
namespace {

using ::vz::testing::MakeMap;

TEST(ListMetricTest, MemoizationCountsMissesOnly) {
  std::vector<FeatureMap> maps;
  maps.push_back(MakeMap(8, 4, 0.0, 0.3, 1));
  maps.push_back(MakeMap(8, 4, 3.0, 0.3, 2));
  maps.push_back(MakeMap(8, 4, 6.0, 0.3, 3));
  core::OmdCalculator calc;
  core::SvsMetric cached(core::ListItems(maps), &calc,
                         core::SvsMetricOptions{.memoize = true});
  core::SvsMetric uncached(core::ListItems(maps), &calc,
                           core::SvsMetricOptions{.memoize = false});

  const double d1 = cached.Distance(0, 1);
  const double d2 = cached.Distance(1, 0);  // symmetric cache hit
  EXPECT_DOUBLE_EQ(d1, d2);
  EXPECT_EQ(cached.num_distance_evals(), 1u);

  uncached.Distance(0, 1);
  uncached.Distance(1, 0);
  EXPECT_EQ(uncached.num_distance_evals(), 2u);

  // Lower bound never exceeds the distance (exact-mode property is covered
  // elsewhere; here just the plumbing).
  EXPECT_GE(cached.Distance(0, 2), 0.0);
  EXPECT_GE(cached.LowerBound(0, 2), 0.0);
  EXPECT_DOUBLE_EQ(cached.Distance(1, 1), 0.0);
  cached.ResetCounters();
  EXPECT_EQ(cached.num_distance_evals(), 0u);
}

TEST(ListMetricTest, ReplacedItemsKeepTheirIdentitiesPairs) {
  std::vector<FeatureMap> maps;
  maps.push_back(MakeMap(6, 4, 0.0, 0.3, 4));
  maps.push_back(MakeMap(6, 4, 5.0, 0.3, 5));
  maps.push_back(MakeMap(6, 4, 50.0, 0.3, 6));
  core::OmdCalculator calc;
  core::SvsMetric metric({{&maps[0], maps[0].Centroid(), 10},
                          {&maps[1], maps[1].Centroid(), 11}},
                         &calc);
  const double d = metric.Distance(0, 1);
  EXPECT_GT(d, 0.0);
  const double before = metric.LowerBound(0, 1);
  EXPECT_GT(before, 0.0);
  // The same maps in another order: the identity pair is memoized.
  metric.set_items({{&maps[1], maps[1].Centroid(), 11},
                    {&maps[0], maps[0].Centroid(), 10}});
  EXPECT_EQ(metric.Distance(0, 1), d);
  EXPECT_EQ(metric.num_distance_evals(), 1u);
  // A new map under a new identity: solved, and bounded by its centroid.
  metric.set_items({{&maps[0], maps[0].Centroid(), 10},
                    {&maps[2], maps[2].Centroid(), 12}});
  EXPECT_GT(metric.LowerBound(0, 1), before);
  EXPECT_GT(metric.Distance(0, 1), d);
  EXPECT_EQ(metric.num_distance_evals(), 2u);
}

TEST(OmdCalculatorKnobsTest, CounterAndModeAdjustments) {
  core::OmdCalculator calc;
  const FeatureMap a = MakeMap(6, 4, 0.0, 0.3, 7);
  const FeatureMap b = MakeMap(6, 4, 2.0, 0.3, 8);
  ASSERT_TRUE(calc.Distance(a, b).ok());
  EXPECT_EQ(calc.num_computations(), 1u);
  calc.ResetCounter();
  EXPECT_EQ(calc.num_computations(), 0u);

  // Alpha is clamped into a sane range.
  calc.set_threshold_alpha(5.0);
  EXPECT_DOUBLE_EQ(calc.options().threshold_alpha, 1.0);
  calc.set_threshold_alpha(-1.0);
  EXPECT_GT(calc.options().threshold_alpha, 0.0);

  // Mode switch takes effect: exact >= thresholded on the same pair.
  calc.set_threshold_alpha(0.5);
  calc.set_mode(core::OmdMode::kThresholded);
  auto approx = calc.Distance(a, b);
  calc.set_mode(core::OmdMode::kExact);
  auto exact = calc.Distance(a, b);
  ASSERT_TRUE(approx.ok());
  ASSERT_TRUE(exact.ok());
  EXPECT_LE(*approx, *exact + 1e-9);
}

TEST(SvsStoreOrderingTest, IdsForCameraPreserveCreationOrder) {
  core::SvsStore store;
  const core::SvsId a0 = store.Create("a", 0, 10, MakeMap(3, 2, 0, 1, 9));
  const core::SvsId b0 = store.Create("b", 0, 10, MakeMap(3, 2, 0, 1, 10));
  const core::SvsId a1 = store.Create("a", 10, 20, MakeMap(3, 2, 0, 1, 11));
  EXPECT_EQ(store.IdsForCamera("a"),
            (std::vector<core::SvsId>{a0, a1}));
  EXPECT_EQ(store.IdsForCamera("b"), (std::vector<core::SvsId>{b0}));
  EXPECT_TRUE(store.IdsForCamera("ghost").empty());
  EXPECT_EQ(store.AllIds(), (std::vector<core::SvsId>{a0, b0, a1}));
}

TEST(SvsMetadataTest, AccessFrequencyUsesElapsedHours) {
  core::SvsStore store;
  const core::SvsId id = store.Create("cam", 0, 1000, MakeMap(3, 2, 0, 1, 12));
  auto svs = store.GetMutable(id);
  ASSERT_TRUE(svs.ok());
  (*svs)->RecordAccess(500);
  (*svs)->RecordAccess(800);
  // Two accesses over one simulated hour.
  const core::SvsMetadata meta = (*svs)->Metadata(3'600'000);
  EXPECT_EQ(meta.access_count, 2u);
  EXPECT_NEAR(meta.access_frequency, 2.0, 1e-9);
  EXPECT_EQ(meta.last_access_ms, 800);
}

TEST(LoggingTest, LevelGateControlsEmission) {
  const LogLevel saved = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  // These must not crash regardless of gating.
  VZ_LOG(Debug) << "suppressed " << 1;
  VZ_LOG(Error) << "emitted " << 2;
  SetLogLevel(saved);
}

}  // namespace
}  // namespace vz
