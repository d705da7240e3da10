#include "solver/emd.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.h"

namespace vz::solver {
namespace {

// 1-D point sets: EMD has a closed form (sorted matching) for uniform
// weights of equal cardinality.
double Ground1D(const std::vector<double>& a, const std::vector<double>& b,
                size_t i, size_t j) {
  return std::fabs(a[i] - b[j]);
}

TEST(EmdTest, IdenticalDistributionsHaveZeroDistance) {
  std::vector<double> pts = {0.0, 1.0, 2.0};
  std::vector<double> w = {1.0, 1.0, 1.0};
  auto result = ExactEmd(w, w, [&pts](size_t i, size_t j) {
    return Ground1D(pts, pts, i, j);
  });
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->distance, 0.0, 1e-9);
}

TEST(EmdTest, SinglePointsDistanceIsGroundDistance) {
  auto result = ExactEmd({1.0}, {1.0}, [](size_t, size_t) { return 4.2; });
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->distance, 4.2, 1e-9);
}

TEST(EmdTest, KnownOneDimensionalInstance) {
  // a = {0, 1}, b = {2, 3}: optimal matching 0->2, 1->3, mean cost 2.
  std::vector<double> a = {0.0, 1.0};
  std::vector<double> b = {2.0, 3.0};
  std::vector<double> w = {1.0, 1.0};
  auto result = ExactEmd(w, w, [&](size_t i, size_t j) {
    return Ground1D(a, b, i, j);
  });
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->distance, 2.0, 1e-9);
}

TEST(EmdTest, UnequalCardinalitySplitsMass) {
  // a = {0} vs b = {-1, 1}: each half unit travels distance 1.
  std::vector<double> a = {0.0};
  std::vector<double> b = {-1.0, 1.0};
  auto result = ExactEmd({1.0}, {1.0, 1.0}, [&](size_t i, size_t j) {
    return Ground1D(a, b, i, j);
  });
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->distance, 1.0, 1e-9);
}

TEST(EmdTest, WeightsAreNormalized) {
  // Scaling all weights must not change the distance.
  std::vector<double> a = {0.0, 4.0};
  std::vector<double> b = {1.0, 5.0};
  auto ground = [&](size_t i, size_t j) { return Ground1D(a, b, i, j); };
  auto r1 = ExactEmd({1.0, 1.0}, {1.0, 1.0}, ground);
  auto r2 = ExactEmd({10.0, 10.0}, {0.5, 0.5}, ground);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_NEAR(r1->distance, r2->distance, 1e-9);
}

TEST(EmdTest, RejectsBadInput) {
  auto ground = [](size_t, size_t) { return 1.0; };
  EXPECT_FALSE(ExactEmd({}, {1.0}, ground).ok());
  EXPECT_FALSE(ExactEmd({1.0}, {}, ground).ok());
  EXPECT_FALSE(ExactEmd({-1.0}, {1.0}, ground).ok());
  EXPECT_FALSE(ExactEmd({0.0}, {1.0}, ground).ok());
  EXPECT_FALSE(
      ExactEmd({1.0}, {1.0}, [](size_t, size_t) { return -1.0; }).ok());
  EXPECT_FALSE(ThresholdedEmd({1.0}, {1.0}, ground, -0.5).ok());
}

TEST(ThresholdedEmdTest, LargeThresholdMatchesExact) {
  Rng rng(5);
  std::vector<double> a(6);
  std::vector<double> b(6);
  for (auto& v : a) v = rng.UniformDouble(0.0, 10.0);
  for (auto& v : b) v = rng.UniformDouble(0.0, 10.0);
  std::vector<double> w(6, 1.0);
  auto ground = [&](size_t i, size_t j) { return Ground1D(a, b, i, j); };
  auto exact = ExactEmd(w, w, ground);
  auto thresholded = ThresholdedEmd(w, w, ground, 100.0);
  ASSERT_TRUE(exact.ok());
  ASSERT_TRUE(thresholded.ok());
  EXPECT_NEAR(exact->distance, thresholded->distance, 1e-6);
}

TEST(ThresholdedEmdTest, LowerBoundsExactAndMonotoneInThreshold) {
  Rng rng(9);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<double> a(8);
    std::vector<double> b(8);
    for (auto& v : a) v = rng.UniformDouble(0.0, 10.0);
    for (auto& v : b) v = rng.UniformDouble(0.0, 10.0);
    std::vector<double> w(8, 1.0);
    auto ground = [&](size_t i, size_t j) { return Ground1D(a, b, i, j); };
    auto exact = ExactEmd(w, w, ground);
    ASSERT_TRUE(exact.ok());
    double previous = 0.0;
    for (double t : {1.0, 3.0, 6.0, 12.0}) {
      auto approx = ThresholdedEmd(w, w, ground, t);
      ASSERT_TRUE(approx.ok());
      EXPECT_LE(approx->distance, exact->distance + 1e-9);
      EXPECT_GE(approx->distance, previous - 1e-9);  // monotone in t
      previous = approx->distance;
    }
  }
}

TEST(ThresholdedEmdTest, ZeroThresholdCostsNothing) {
  // With t = 0 every unit routes through the transshipment vertex at cost 0.
  std::vector<double> a = {0.0};
  std::vector<double> b = {100.0};
  auto result = ThresholdedEmd({1.0}, {1.0}, [&](size_t i, size_t j) {
    return Ground1D(a, b, i, j);
  }, 0.0);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->distance, 0.0, 1e-9);
}

TEST(ThresholdedEmdTest, FewerArcsThanExact) {
  Rng rng(13);
  std::vector<double> a(10);
  std::vector<double> b(10);
  for (auto& v : a) v = rng.UniformDouble(0.0, 10.0);
  for (auto& v : b) v = rng.UniformDouble(0.0, 10.0);
  std::vector<double> w(10, 1.0);
  auto ground = [&](size_t i, size_t j) { return Ground1D(a, b, i, j); };
  auto exact = ExactEmd(w, w, ground);
  auto approx = ThresholdedEmd(w, w, ground, 2.0);
  ASSERT_TRUE(exact.ok());
  ASSERT_TRUE(approx.ok());
  EXPECT_LT(approx->num_arcs, exact->num_arcs);
}

TEST(EmdTest, FiredTokenCancelsEverySolveEntry) {
  const std::vector<double> w(4, 1.0);
  const auto ground = [](size_t i, size_t j) {
    return std::fabs(static_cast<double>(i) - static_cast<double>(j));
  };
  std::vector<double> matrix;
  for (size_t i = 0; i < w.size(); ++i) {
    for (size_t j = 0; j < w.size(); ++j) matrix.push_back(ground(i, j));
  }
  CancelToken token;
  token.Cancel();
  const StatusOr<EmdResult> results[] = {
      ExactEmd(w, w, ground, &token),
      ExactEmd(w, w, matrix, &token),
      ThresholdedEmd(w, w, ground, 1.5, &token),
      ThresholdedEmd(w, w, matrix, 1.5, &token),
  };
  for (const StatusOr<EmdResult>& result : results) {
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  }
  // The same instance solves once the token is gone.
  EXPECT_TRUE(ExactEmd(w, w, matrix).ok());
  EXPECT_TRUE(ThresholdedEmd(w, w, matrix, 1.5).ok());
}

// Metric-property sweep: EMD with a metric ground distance is a metric
// (Rubner et al. 2000) — check symmetry and the triangle inequality on
// random instances.
class EmdMetricPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EmdMetricPropertyTest, SymmetryAndTriangleInequality) {
  Rng rng(GetParam());
  const size_t n = 5;
  std::vector<double> a(n);
  std::vector<double> b(n);
  std::vector<double> c(n);
  for (auto& v : a) v = rng.UniformDouble(0.0, 10.0);
  for (auto& v : b) v = rng.UniformDouble(0.0, 10.0);
  for (auto& v : c) v = rng.UniformDouble(0.0, 10.0);
  std::vector<double> w(n, 1.0);
  auto dist = [&w](const std::vector<double>& x,
                   const std::vector<double>& y) {
    auto r = ExactEmd(w, w, [&x, &y](size_t i, size_t j) {
      return std::fabs(x[i] - y[j]);
    });
    EXPECT_TRUE(r.ok());
    return r->distance;
  };
  const double ab = dist(a, b);
  const double ba = dist(b, a);
  const double ac = dist(a, c);
  const double cb = dist(c, b);
  EXPECT_NEAR(ab, ba, 1e-9);
  EXPECT_LE(ab, ac + cb + 1e-9);
  EXPECT_NEAR(dist(a, a), 0.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, EmdMetricPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

}  // namespace
}  // namespace vz::solver
