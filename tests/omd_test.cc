#include "core/omd.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/videozilla.h"
#include "sim/dataset.h"
#include "sim/object_class.h"
#include "test_util.h"

namespace vz::core {
namespace {

using ::vz::testing::MakeMap;

TEST(OmdCalculatorTest, IdenticalMapsHaveZeroDistance) {
  OmdCalculator calc;
  const FeatureMap map = MakeMap(10, 8, 1.0, 0.5, 1);
  auto d = calc.Distance(map, map);
  ASSERT_TRUE(d.ok());
  EXPECT_NEAR(*d, 0.0, 1e-9);
  EXPECT_EQ(calc.num_computations(), 1u);
}

TEST(OmdCalculatorTest, SingletonMapsReduceToEuclidean) {
  OmdOptions options;
  options.mode = OmdMode::kExact;
  OmdCalculator calc(options);
  FeatureMap a;
  ASSERT_TRUE(a.Add(FeatureVector({0.0f, 0.0f})).ok());
  FeatureMap b;
  ASSERT_TRUE(b.Add(FeatureVector({3.0f, 4.0f})).ok());
  auto d = calc.Distance(a, b);
  ASSERT_TRUE(d.ok());
  EXPECT_NEAR(*d, 5.0, 1e-9);
}

TEST(OmdCalculatorTest, EmptyMapsAreHandled) {
  OmdOptions options;
  options.mode = OmdMode::kExact;
  OmdCalculator calc(options);
  FeatureMap empty;
  FeatureMap one;
  ASSERT_TRUE(one.Add(FeatureVector({3.0f, 4.0f})).ok());
  auto both = calc.Distance(empty, empty);
  ASSERT_TRUE(both.ok());
  EXPECT_DOUBLE_EQ(*both, 0.0);
  // One empty side acts as a zero vector.
  auto single = calc.Distance(empty, one);
  ASSERT_TRUE(single.ok());
  EXPECT_NEAR(*single, 5.0, 1e-9);
}

TEST(OmdCalculatorTest, DimensionMismatchRejected) {
  OmdCalculator calc;
  FeatureMap a;
  ASSERT_TRUE(a.Add(FeatureVector({0.0f})).ok());
  FeatureMap b;
  ASSERT_TRUE(b.Add(FeatureVector({0.0f, 0.0f})).ok());
  EXPECT_FALSE(calc.Distance(a, b).ok());
}

TEST(OmdCalculatorTest, ThresholdedLowerBoundsExact) {
  const FeatureMap a = MakeMap(15, 6, 0.0, 1.0, 2);
  const FeatureMap b = MakeMap(15, 6, 3.0, 1.0, 3);
  OmdOptions exact_options;
  exact_options.mode = OmdMode::kExact;
  OmdCalculator exact(exact_options);
  for (double alpha : {0.3, 0.6, 0.9}) {
    OmdOptions approx_options;
    approx_options.mode = OmdMode::kThresholded;
    approx_options.threshold_alpha = alpha;
    OmdCalculator approx(approx_options);
    auto de = exact.Distance(a, b);
    auto da = approx.Distance(a, b);
    ASSERT_TRUE(de.ok());
    ASSERT_TRUE(da.ok());
    EXPECT_LE(*da, *de + 1e-9) << "alpha " << alpha;
  }
}

TEST(OmdCalculatorTest, AlphaOneMatchesExact) {
  const FeatureMap a = MakeMap(12, 5, 0.0, 1.0, 4);
  const FeatureMap b = MakeMap(12, 5, 2.0, 1.0, 5);
  OmdOptions exact_options;
  exact_options.mode = OmdMode::kExact;
  OmdOptions one_options;
  one_options.mode = OmdMode::kThresholded;
  one_options.threshold_alpha = 1.0;
  OmdCalculator exact(exact_options);
  OmdCalculator one(one_options);
  auto de = exact.Distance(a, b);
  auto d1 = one.Distance(a, b);
  ASSERT_TRUE(de.ok());
  ASSERT_TRUE(d1.ok());
  // At alpha = 1 only the strictly-max-distance pairs route through the
  // transshipment vertex at exactly the max cost, so values coincide.
  EXPECT_NEAR(*de, *d1, 1e-6);
}

TEST(OmdCalculatorTest, SubsamplingKeepsDistanceClose) {
  const FeatureMap a = MakeMap(100, 4, 0.0, 0.5, 6);
  const FeatureMap b = MakeMap(100, 4, 5.0, 0.5, 7);
  OmdOptions full_options;
  full_options.mode = OmdMode::kExact;
  full_options.max_vectors = 100;
  OmdOptions sub_options;
  sub_options.mode = OmdMode::kExact;
  sub_options.max_vectors = 20;
  OmdCalculator full(full_options);
  OmdCalculator sub(sub_options);
  auto df = full.Distance(a, b);
  auto ds = sub.Distance(a, b);
  ASSERT_TRUE(df.ok());
  ASSERT_TRUE(ds.ok());
  // Two tight blobs 5*sqrt(4)=10 apart: subsampling barely moves the value.
  EXPECT_NEAR(*df, *ds, 0.5);
}

// Property sweep: OCD is a lower bound of OMD (Sec. 4.3) on random pairs.
class OcdLowerBoundTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OcdLowerBoundTest, OcdNeverExceedsExactOmd) {
  Rng rng(GetParam());
  const FeatureMap a =
      MakeMap(12, 6, rng.UniformDouble(-3.0, 3.0), 1.5, GetParam() * 2 + 1);
  const FeatureMap b =
      MakeMap(9, 6, rng.UniformDouble(-3.0, 3.0), 1.5, GetParam() * 2 + 2);
  OmdOptions options;
  options.mode = OmdMode::kExact;
  OmdCalculator calc(options);
  auto omd = calc.Distance(a, b);
  ASSERT_TRUE(omd.ok());
  EXPECT_LE(ObjectCentroidDistance(a, b), *omd + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OcdLowerBoundTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(SvsMetricTest, DistanceAndLowerBoundOverStore) {
  SvsStore store;
  const SvsId a = store.Create("cam", 0, 10, MakeMap(8, 4, 0.0, 0.3, 11));
  const SvsId b = store.Create("cam", 10, 20, MakeMap(8, 4, 4.0, 0.3, 12));
  // OCD lower-bounds the *exact* OMD; with the thresholded approximation
  // (which under-estimates) it is only a heuristic (see Sec. 4.3 note in
  // DESIGN.md), so this invariant is asserted in exact mode.
  OmdOptions options;
  options.mode = OmdMode::kExact;
  OmdCalculator calc(options);
  SvsMetric metric(&store, &calc);
  const double d = metric.Distance(static_cast<int>(a), static_cast<int>(b));
  EXPECT_GT(d, 0.0);
  EXPECT_LE(metric.LowerBound(static_cast<int>(a), static_cast<int>(b)),
            d + 1e-6);
  EXPECT_DOUBLE_EQ(metric.Distance(static_cast<int>(a), static_cast<int>(a)),
                   0.0);
}

TEST(SvsMetricTest, MemoizationAvoidsRecomputation) {
  SvsStore store;
  const SvsId a = store.Create("cam", 0, 10, MakeMap(8, 4, 0.0, 0.3, 13));
  const SvsId b = store.Create("cam", 10, 20, MakeMap(8, 4, 4.0, 0.3, 14));
  OmdCalculator calc;
  SvsMetric metric(&store, &calc);
  const double d1 = metric.Distance(static_cast<int>(a), static_cast<int>(b));
  EXPECT_EQ(metric.num_distance_evals(), 1u);
  const double d2 = metric.Distance(static_cast<int>(b), static_cast<int>(a));
  EXPECT_EQ(metric.num_distance_evals(), 1u);  // symmetric cache hit
  EXPECT_DOUBLE_EQ(d1, d2);
  metric.InvalidateCache();
  metric.Distance(static_cast<int>(a), static_cast<int>(b));
  EXPECT_EQ(metric.num_distance_evals(), 2u);
}

TEST(SvsMetricTest, QuerySupportsMapsOutsideTheStore) {
  SvsStore store;
  store.Create("cam", 0, 10, MakeMap(8, 4, 0.0, 0.3, 15));
  OmdCalculator calc;
  SvsMetric metric(&store, &calc);
  const FeatureMap query = MakeMap(5, 4, 0.1, 0.3, 16);
  const SvsMetric::Query target(&metric, &query);
  const double d = target.Distance(0);
  EXPECT_GE(d, 0.0);
  EXPECT_LT(d, 2.0);  // both maps sit near the origin
  EXPECT_GE(target.LowerBound(0), 0.0);
  // A query without an identity is solved every time, and a query search
  // counts nothing in the metric.
  EXPECT_EQ(target.Distance(0), d);
  EXPECT_EQ(calc.num_computations(), 2u);
  EXPECT_EQ(metric.num_distance_evals(), 0u);
  EXPECT_EQ(metric.cache().size(), 0u);
}

TEST(SvsMetricTest, MemoizationCanBeDisabled) {
  SvsStore store;
  const SvsId a = store.Create("cam", 0, 10, MakeMap(6, 4, 0.0, 0.3, 17));
  const SvsId b = store.Create("cam", 10, 20, MakeMap(6, 4, 2.0, 0.3, 18));
  OmdCalculator calc;
  SvsMetricOptions options;
  options.memoize = false;
  SvsMetric metric(&store, &calc, options);
  metric.Distance(static_cast<int>(a), static_cast<int>(b));
  metric.Distance(static_cast<int>(a), static_cast<int>(b));
  EXPECT_EQ(metric.num_distance_evals(), 2u);
}

// Property sweep: the quantized shadow tier is a certified lower bound on
// the solver's distance in *both* modes, across random geometry.
class QuantizedBoundTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(QuantizedBoundTest, QuantizedBoundNeverExceedsSolvedOmd) {
  const uint64_t seed = GetParam();
  Rng rng(seed);
  const size_t dim = 3 + seed % 9;
  const size_t na = 3 + seed % 7;
  const size_t nb = 2 + seed % 11;
  const FeatureMap a =
      MakeMap(na, dim, rng.UniformDouble(-4.0, 4.0), 1.0, seed * 3 + 1);
  const FeatureMap b =
      MakeMap(nb, dim, rng.UniformDouble(-4.0, 4.0), 1.0, seed * 3 + 2);
  for (OmdMode mode : {OmdMode::kExact, OmdMode::kThresholded}) {
    OmdOptions options;
    options.mode = mode;
    options.threshold_alpha = mode == OmdMode::kThresholded ? 0.6 : 1.0;
    OmdCalculator calc(options);
    auto omd = calc.Distance(a, b);
    ASSERT_TRUE(omd.ok());
    const double bound = QuantizedOmdLowerBound(a, b, options);
    EXPECT_GE(bound, 0.0);
    EXPECT_LE(bound, *omd + 1e-9)
        << "seed=" << seed << " mode=" << static_cast<int>(mode);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QuantizedBoundTest,
                         ::testing::Range<uint64_t>(1, 21));

TEST(QuantizedBoundTest, WellSeparatedMapsGetPositiveBound) {
  // Two tight blobs far apart: the int8 shadow resolves the gap easily, so
  // the tier must certify a non-trivial bound (otherwise it never prunes).
  const FeatureMap a = MakeMap(8, 6, 0.0, 0.2, 31);
  const FeatureMap b = MakeMap(8, 6, 10.0, 0.2, 32);
  OmdOptions options;
  options.mode = OmdMode::kExact;
  OmdCalculator calc(options);
  auto omd = calc.Distance(a, b);
  ASSERT_TRUE(omd.ok());
  const double bound = QuantizedOmdLowerBound(a, b, options);
  EXPECT_GT(bound, 0.5 * *omd);
  EXPECT_LE(bound, *omd + 1e-9);
}

TEST(QuantizedBoundTest, DeclinesWhenItCannotCertify) {
  OmdOptions options;
  options.mode = OmdMode::kExact;
  // Oversized map: the solver would subsample, so no bound.
  options.max_vectors = 4;
  const FeatureMap big_a = MakeMap(8, 4, 0.0, 0.3, 41);
  const FeatureMap big_b = MakeMap(8, 4, 6.0, 0.3, 42);
  EXPECT_DOUBLE_EQ(QuantizedOmdLowerBound(big_a, big_b, options), 0.0);
  options.max_vectors = 256;
  // Missing shadow (non-finite input invalidates it).
  FeatureMap poisoned;
  ASSERT_TRUE(poisoned
                  .Add(FeatureVector(
                      {1.0f, std::numeric_limits<float>::quiet_NaN()}))
                  .ok());
  EXPECT_FALSE(poisoned.quantized().has_value());
  FeatureMap clean;
  ASSERT_TRUE(clean.Add(FeatureVector({5.0f, 5.0f})).ok());
  EXPECT_DOUBLE_EQ(QuantizedOmdLowerBound(poisoned, clean, options), 0.0);
  // Empty and dimension-mismatched pairs.
  FeatureMap empty;
  EXPECT_DOUBLE_EQ(QuantizedOmdLowerBound(empty, clean, options), 0.0);
  FeatureMap other_dim;
  ASSERT_TRUE(other_dim.Add(FeatureVector({1.0f, 2.0f, 3.0f})).ok());
  EXPECT_DOUBLE_EQ(QuantizedOmdLowerBound(other_dim, clean, options), 0.0);
}

TEST(SvsMetricTest, FailedDistanceReturnsInfinityPoison) {
  SvsStore store;
  const SvsId a = store.Create("cam", 0, 10, MakeMap(6, 4, 0.0, 0.3, 51));
  OmdCalculator calc;
  SvsMetric metric(&store, &calc);
  // Unknown id: must read as maximally far, never as "identical".
  const double unknown = metric.Distance(static_cast<int>(a), 9999);
  EXPECT_TRUE(std::isinf(unknown));
  EXPECT_GT(unknown, 0.0);
  EXPECT_EQ(metric.failed_distances(), 1u);
  // Dimension-mismatched stored maps: the solve fails, same poison.
  const SvsId b = store.Create("cam", 10, 20, MakeMap(6, 7, 0.0, 0.3, 52));
  const double mismatched =
      metric.Distance(static_cast<int>(a), static_cast<int>(b));
  EXPECT_TRUE(std::isinf(mismatched));
  EXPECT_EQ(metric.failed_distances(), 2u);
}

TEST(SvsMetricTest, QuantizedPruneTightensButNeverExceedsDistance) {
  SvsStore store;
  std::vector<SvsId> ids;
  for (uint64_t s = 0; s < 6; ++s) {
    ids.push_back(store.Create("cam", static_cast<int64_t>(s) * 10,
                               static_cast<int64_t>(s) * 10 + 10,
                               MakeMap(6 + s, 5, s * 2.5, 0.8, 60 + s)));
  }
  OmdOptions options;
  options.mode = OmdMode::kExact;
  OmdCalculator calc(options);
  SvsMetricOptions on_options;
  on_options.quantized_prune = true;
  SvsMetricOptions off_options;
  off_options.quantized_prune = false;
  SvsMetric on(&store, &calc, on_options);
  SvsMetric off(&store, &calc, off_options);
  for (size_t i = 0; i < ids.size(); ++i) {
    for (size_t j = i + 1; j < ids.size(); ++j) {
      const int a = static_cast<int>(ids[i]);
      const int b = static_cast<int>(ids[j]);
      const double d = on.Distance(a, b);
      const double with_prune = on.LowerBound(a, b);
      const double ocd_only = off.LowerBound(a, b);
      EXPECT_LE(with_prune, d + 1e-6) << "pair " << i << "," << j;
      EXPECT_GE(with_prune, ocd_only) << "pair " << i << "," << j;
    }
  }
}

// The ISSUE-level invariant: the quantized tier is pruning-only. Two systems
// differing only in `quantized_prune` must answer DirectQuery and
// ClusteringQuery identically on identical corpora, across seeds.
class QuantizedPruneInvarianceTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(QuantizedPruneInvarianceTest, QueriesIdenticalWithPruneOnAndOff) {
  const uint64_t seed = GetParam();
  sim::DeploymentOptions dep;
  dep.cities = 1;
  dep.downtown_per_city = 1;
  dep.highway_cameras = 1;
  dep.train_stations = 0;
  dep.harbors = 0;
  dep.feed_duration_ms = 30'000;
  dep.fps = 1.0;
  dep.feature_dim = 16;
  dep.seed = seed;
  sim::Deployment deployment(dep);

  VideoZillaOptions base;
  base.segmenter.t_max_ms = 15'000;
  base.segmenter.t_split_ms = 5'000;
  base.omd.max_vectors = 64;
  base.intra.recluster_interval = 2;
  base.enable_keyframe_selection = false;

  VideoZillaOptions on_options = base;
  on_options.quantized_prune = true;
  VideoZillaOptions off_options = base;
  off_options.quantized_prune = false;
  VideoZilla on(on_options);
  VideoZilla off(off_options);
  ASSERT_TRUE(deployment.IngestAll(&on).ok());
  ASSERT_TRUE(deployment.IngestAll(&off).ok());
  ASSERT_EQ(on.svs_store().size(), off.svs_store().size());
  ASSERT_GT(on.svs_store().size(), 0u);

  Rng rng(seed + 1);
  const FeatureVector query = deployment.MakeQueryFeature(sim::kCar, &rng);
  auto direct_on = on.DirectQuery(query);
  auto direct_off = off.DirectQuery(query);
  ASSERT_TRUE(direct_on.ok());
  ASSERT_TRUE(direct_off.ok());
  EXPECT_EQ(direct_on->candidate_svss, direct_off->candidate_svss)
      << "seed=" << seed;
  EXPECT_EQ(direct_on->matched_svss, direct_off->matched_svss)
      << "seed=" << seed;

  const SvsId target = on.svs_store().AllIds().front();
  auto cluster_on = on.ClusteringQuery(target);
  auto cluster_off = off.ClusteringQuery(target);
  ASSERT_TRUE(cluster_on.ok());
  ASSERT_TRUE(cluster_off.ok());
  EXPECT_EQ(cluster_on->similar_svss, cluster_off->similar_svss)
      << "seed=" << seed;
  EXPECT_EQ(cluster_on->cameras_contributing, cluster_off->cameras_contributing)
      << "seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, QuantizedPruneInvarianceTest,
                         ::testing::Range<uint64_t>(1, 21));

}  // namespace
}  // namespace vz::core
