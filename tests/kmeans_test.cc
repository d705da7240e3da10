#include "clustering/kmeans.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <string>

#include "test_util.h"

namespace vz::clustering {
namespace {

// The k-means this library shipped before its passes moved onto
// `PointTile`, kept verbatim as the oracle: per-pair `SquaredDistance`, an
// update-then-movement stop, and a separate final assignment pass. `KMeans`
// must reproduce it bit for bit.
namespace oracle {

// k-means++ seeding: first center uniform (by weight), subsequent centers
// sampled proportionally to weighted squared distance to the nearest chosen
// center.
std::vector<size_t> SeedPlusPlus(const std::vector<FeatureVector>& points,
                                 const std::vector<double>& weights, size_t k,
                                 Rng* rng) {
  std::vector<size_t> centers;
  centers.reserve(k);
  centers.push_back(rng->WeightedIndex(weights));
  std::vector<double> min_sq(points.size(),
                             std::numeric_limits<double>::infinity());
  while (centers.size() < k) {
    const FeatureVector& last = points[centers.back()];
    std::vector<double> sampling(points.size());
    for (size_t i = 0; i < points.size(); ++i) {
      min_sq[i] = std::min(min_sq[i], SquaredDistance(points[i], last));
      sampling[i] = min_sq[i] * weights[i];
    }
    double total = 0.0;
    for (double s : sampling) total += s;
    if (total <= 0.0) {
      // All remaining points coincide with a chosen center; pick arbitrarily.
      centers.push_back(rng->WeightedIndex(weights));
    } else {
      centers.push_back(rng->WeightedIndex(sampling));
    }
  }
  return centers;
}

StatusOr<KMeansResult> KMeansOnce(const std::vector<FeatureVector>& points,
                                  const std::vector<double>& weights,
                                  const KMeansOptions& options, Rng* rng) {
  if (points.empty()) {
    return Status::InvalidArgument("k-means requires at least one point");
  }
  if (rng == nullptr) {
    return Status::InvalidArgument("k-means requires an Rng");
  }
  std::vector<double> w = weights;
  if (w.empty()) {
    w.assign(points.size(), 1.0);
  } else if (w.size() != points.size()) {
    return Status::InvalidArgument("weights size must match points size");
  }
  for (double x : w) {
    if (x < 0.0) return Status::InvalidArgument("weights must be >= 0");
  }

  const size_t k = std::max<size_t>(1, std::min(options.k, points.size()));
  const size_t dim = points[0].dim();

  KMeansResult result;
  const std::vector<size_t> seeds = SeedPlusPlus(points, w, k, rng);
  result.centroids.reserve(k);
  for (size_t s : seeds) result.centroids.push_back(points[s]);
  result.assignments.assign(points.size(), 0);

  for (size_t iter = 0; iter < options.max_iterations; ++iter) {
    // Assignment step.
    for (size_t i = 0; i < points.size(); ++i) {
      double best = std::numeric_limits<double>::infinity();
      size_t best_c = 0;
      for (size_t c = 0; c < k; ++c) {
        const double d = SquaredDistance(points[i], result.centroids[c]);
        if (d < best) {
          best = d;
          best_c = c;
        }
      }
      result.assignments[i] = best_c;
    }
    // Update step (weighted means).
    std::vector<FeatureVector> next(k, FeatureVector(dim));
    std::vector<double> mass(k, 0.0);
    for (size_t i = 0; i < points.size(); ++i) {
      next[result.assignments[i]].Axpy(w[i], points[i]);
      mass[result.assignments[i]] += w[i];
    }
    double movement = 0.0;
    for (size_t c = 0; c < k; ++c) {
      if (mass[c] > 0.0) {
        next[c].Scale(1.0 / mass[c]);
      } else {
        next[c] = result.centroids[c];  // empty cluster keeps its center
      }
      movement += EuclideanDistance(next[c], result.centroids[c]);
    }
    result.centroids = std::move(next);
    if (movement <= options.tolerance) break;
  }

  // Final assignment, sizes and inertia.
  result.cluster_sizes.assign(k, 0);
  result.inertia = 0.0;
  for (size_t i = 0; i < points.size(); ++i) {
    double best = std::numeric_limits<double>::infinity();
    size_t best_c = 0;
    for (size_t c = 0; c < k; ++c) {
      const double d = SquaredDistance(points[i], result.centroids[c]);
      if (d < best) {
        best = d;
        best_c = c;
      }
    }
    result.assignments[i] = best_c;
    result.cluster_sizes[best_c]++;
    result.inertia += best * w[i];
  }
  return result;
}

StatusOr<KMeansResult> KMeans(const std::vector<FeatureVector>& points,
                              const std::vector<double>& weights,
                              const KMeansOptions& options, Rng* rng) {
  const size_t restarts = std::max<size_t>(1, options.restarts);
  StatusOr<KMeansResult> best = Status::Internal("no k-means run");
  for (size_t r = 0; r < restarts; ++r) {
    auto run = KMeansOnce(points, weights, options, rng);
    if (!run.ok()) return run;
    if (!best.ok() || run->inertia < best->inertia) best = std::move(run);
  }
  return best;
}

}  // namespace oracle

TEST(KMeansTest, RejectsBadInput) {
  Rng rng(1);
  KMeansOptions options;
  EXPECT_FALSE(KMeans({}, options, &rng).ok());
  std::vector<FeatureVector> pts = {FeatureVector({1.0f})};
  EXPECT_FALSE(KMeans(pts, options, nullptr).ok());
  EXPECT_FALSE(KMeans(pts, {-1.0}, options, &rng).ok());
  EXPECT_FALSE(KMeans(pts, {1.0, 2.0}, options, &rng).ok());
}

TEST(KMeansTest, RejectsMixedDimensions) {
  Rng rng(1);
  KMeansOptions options;
  const std::vector<FeatureVector> pts = {FeatureVector({0.0f, 1.0f}),
                                          FeatureVector({1.0f}),
                                          FeatureVector({2.0f, 3.0f})};
  auto result = KMeans(pts, options, &rng);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  auto weighted = KMeans(pts, {1.0, 1.0, 1.0}, options, &rng);
  ASSERT_FALSE(weighted.ok());
  EXPECT_EQ(weighted.status().code(), StatusCode::kInvalidArgument);
}

TEST(KMeansTest, KClampedToPointCount) {
  Rng rng(2);
  std::vector<FeatureVector> pts = {FeatureVector({0.0f}),
                                    FeatureVector({1.0f})};
  KMeansOptions options;
  options.k = 10;
  auto result = KMeans(pts, options, &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result->centroids.size(), 2u);
}

TEST(KMeansTest, SeparatesWellSeparatedClusters) {
  auto data = testing::MakeClusteredPoints(3, 30, 8, 20.0, 0.5, 42);
  Rng rng(3);
  KMeansOptions options;
  options.k = 3;
  auto result = KMeans(data.points, options, &rng);
  ASSERT_TRUE(result.ok());
  // All points sharing a ground-truth label must share a k-means cluster.
  for (size_t i = 0; i < data.points.size(); ++i) {
    for (size_t j = i + 1; j < data.points.size(); ++j) {
      if (data.labels[i] == data.labels[j]) {
        EXPECT_EQ(result->assignments[i], result->assignments[j])
            << "points " << i << " and " << j;
      } else {
        EXPECT_NE(result->assignments[i], result->assignments[j]);
      }
    }
  }
}

TEST(KMeansTest, InertiaDecreasesWithMoreClusters) {
  auto data = testing::MakeClusteredPoints(4, 25, 6, 15.0, 1.0, 7);
  Rng rng1(4);
  Rng rng2(4);
  KMeansOptions k2;
  k2.k = 2;
  KMeansOptions k4;
  k4.k = 4;
  auto r2 = KMeans(data.points, k2, &rng1);
  auto r4 = KMeans(data.points, k4, &rng2);
  ASSERT_TRUE(r2.ok());
  ASSERT_TRUE(r4.ok());
  EXPECT_LT(r4->inertia, r2->inertia);
}

TEST(KMeansTest, WeightsPullCentroids) {
  // Two points; weight dominates the single centroid's position.
  std::vector<FeatureVector> pts = {FeatureVector({0.0f}),
                                    FeatureVector({10.0f})};
  Rng rng(5);
  KMeansOptions options;
  options.k = 1;
  auto result = KMeans(pts, {1.0, 9.0}, options, &rng);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->centroids.size(), 1u);
  EXPECT_NEAR(result->centroids[0][0], 9.0, 1e-4);
}

TEST(KMeansTest, ClusterSizesSumToPointCount) {
  auto data = testing::MakeClusteredPoints(3, 20, 4, 10.0, 1.0, 9);
  Rng rng(6);
  KMeansOptions options;
  options.k = 3;
  auto result = KMeans(data.points, options, &rng);
  ASSERT_TRUE(result.ok());
  size_t total = 0;
  for (size_t s : result->cluster_sizes) total += s;
  EXPECT_EQ(total, data.points.size());
}

TEST(KMeansTest, DeterministicGivenSeed) {
  auto data = testing::MakeClusteredPoints(3, 20, 4, 10.0, 1.0, 11);
  KMeansOptions options;
  options.k = 3;
  Rng rng1(77);
  Rng rng2(77);
  auto r1 = KMeans(data.points, options, &rng1);
  auto r2 = KMeans(data.points, options, &rng2);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1->assignments, r2->assignments);
  EXPECT_DOUBLE_EQ(r1->inertia, r2->inertia);
}

uint64_t Bits(double x) {
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

// One oracle comparison: the point set, its weights and the options.
struct OracleCase {
  std::string name;
  size_t n = 0;
  size_t dim = 0;
  size_t k = 2;
  enum class Weights { kEmpty, kRandom, kSomeZero, kAllZero } weights =
      Weights::kEmpty;
  bool duplicates = false;  // every third point repeats an earlier one
  // > 0: the points cycle through this many distinct ones, so k-means++
  // runs out of sampling mass and seeds repeat a point.
  size_t distinct = 0;
  // Three far, tight blobs beside two overlapping ones: the far clusters
  // settle after a pass or two while the others keep moving.
  bool settling = false;
  size_t max_iterations = 50;
  double tolerance = 1e-6;
  size_t restarts = 2;
  uint64_t seed = 0;
};

// n points around a few overlapping blobs, so Lloyd runs several passes and
// clusters can empty out.
std::vector<FeatureVector> OraclePoints(const OracleCase& c) {
  Rng rng(c.seed);
  const size_t blobs = c.settling ? 5 : 1 + c.n % 5;
  std::vector<FeatureVector> centers;
  for (size_t b = 0; b < blobs; ++b) {
    // Settling layout: blobs 0-2 far apart, 3 and 4 near the origin.
    const double spread = c.settling ? (b < 3 ? 100.0 : 1.0) : 2.0;
    FeatureVector center(c.dim);
    for (size_t i = 0; i < c.dim; ++i) {
      center[i] = static_cast<float>(rng.Gaussian(0.0, spread));
    }
    centers.push_back(std::move(center));
  }
  std::vector<FeatureVector> points;
  for (size_t p = 0; p < c.n; ++p) {
    if (c.duplicates && p % 3 == 2) {
      points.push_back(points[rng.UniformUint64(p)]);
      continue;
    }
    if (c.distinct > 0 && p >= c.distinct) {
      points.push_back(points[p % c.distinct]);
      continue;
    }
    const size_t blob = rng.UniformUint64(blobs);
    const double noise = c.settling ? (blob < 3 ? 0.05 : 1.5) : 1.5;
    FeatureVector v = centers[blob];
    for (size_t i = 0; i < c.dim; ++i) {
      v[i] += static_cast<float>(rng.Gaussian(0.0, noise));
    }
    points.push_back(std::move(v));
  }
  return points;
}

std::vector<double> OracleWeights(const OracleCase& c) {
  Rng rng(c.seed ^ 0xabcdef);
  std::vector<double> w;
  switch (c.weights) {
    case OracleCase::Weights::kEmpty:
      break;
    case OracleCase::Weights::kRandom:
      for (size_t i = 0; i < c.n; ++i) w.push_back(rng.UniformDouble(0.1, 3));
      break;
    case OracleCase::Weights::kSomeZero:
      for (size_t i = 0; i < c.n; ++i) {
        w.push_back(rng.Bernoulli(0.3) ? 0.0 : rng.UniformDouble(0.1, 3));
      }
      break;
    case OracleCase::Weights::kAllZero:
      w.assign(c.n, 0.0);
      break;
  }
  return w;
}

std::vector<OracleCase> OracleCases() {
  using W = OracleCase::Weights;
  std::vector<OracleCase> cases;
  auto add = [&cases](OracleCase c) {
    c.seed = 1000 + cases.size();
    cases.push_back(std::move(c));
  };
  add({.name = "three points", .n = 3, .dim = 1, .k = 2});
  add({.name = "k above n", .n = 3, .dim = 13, .k = 5});
  add({.name = "k equals n, duplicates", .n = 9, .dim = 48, .k = 9,
       .duplicates = true});
  add({.name = "k above n, duplicates", .n = 6, .dim = 1, .k = 8,
       .duplicates = true});
  add({.name = "some zero weights", .n = 40, .dim = 13, .k = 4,
       .weights = W::kSomeZero});
  add({.name = "all zero weights", .n = 40, .dim = 13, .k = 3,
       .weights = W::kAllZero});
  add({.name = "all zero weights, dim 48", .n = 65, .dim = 48, .k = 6,
       .weights = W::kAllZero, .duplicates = true});
  add({.name = "no iterations", .n = 20, .dim = 13, .k = 3,
       .max_iterations = 0});
  add({.name = "one iteration", .n = 100, .dim = 48, .k = 6,
       .max_iterations = 1});
  add({.name = "two iterations", .n = 100, .dim = 48, .k = 6,
       .max_iterations = 2});
  add({.name = "two iterations, weighted", .n = 33, .dim = 13, .k = 3,
       .weights = W::kRandom, .max_iterations = 2});
  add({.name = "large tolerance", .n = 100, .dim = 1, .k = 3,
       .tolerance = 1e3});
  add({.name = "large tolerance, dim 48", .n = 70, .dim = 48, .k = 5,
       .weights = W::kSomeZero, .tolerance = 50.0});
  add({.name = "one restart", .n = 31, .dim = 13, .k = 4, .restarts = 1});
  add({.name = "random weights", .n = 257, .dim = 1, .k = 9,
       .weights = W::kRandom, .duplicates = true});
  add({.name = "some zero weights, dim 1", .n = 129, .dim = 1, .k = 7,
       .weights = W::kSomeZero});
  add({.name = "n 600, dim 48", .n = 600, .dim = 48, .k = 12,
       .weights = W::kRandom});
  add({.name = "n 600, dim 13, duplicates", .n = 600, .dim = 13, .k = 8,
       .duplicates = true});
  add({.name = "n 512, dim 48", .n = 512, .dim = 48, .k = 2});
  add({.name = "far clusters settle first", .n = 300, .dim = 13, .k = 8,
       .settling = true});
  add({.name = "far clusters settle first, weighted", .n = 240, .dim = 48,
       .k = 9, .weights = W::kRandom, .settling = true});
  add({.name = "seeds repeat a point", .n = 30, .dim = 13, .k = 5,
       .distinct = 3});
  add({.name = "seeds repeat a point, some zero weights", .n = 40, .dim = 1,
       .k = 6, .weights = W::kSomeZero, .distinct = 2});
  add({.name = "k equals n", .n = 24, .dim = 13, .k = 24});
  add({.name = "k equals n, weighted", .n = 17, .dim = 48, .k = 17,
       .weights = W::kRandom});
  add({.name = "one iteration, movement stop", .n = 100, .dim = 13, .k = 5,
       .max_iterations = 1, .tolerance = 1e6});
  add({.name = "one iteration, movement stop, settling", .n = 150, .dim = 48,
       .k = 6, .settling = true, .max_iterations = 1, .tolerance = 1e6});
  return cases;
}

TEST(KMeansTest, MatchesOracleBitForBit) {
  for (const OracleCase& c : OracleCases()) {
    SCOPED_TRACE(c.name);
    const std::vector<FeatureVector> points = OraclePoints(c);
    const std::vector<double> weights = OracleWeights(c);
    KMeansOptions options;
    options.k = c.k;
    options.max_iterations = c.max_iterations;
    options.tolerance = c.tolerance;
    options.restarts = c.restarts;
    Rng want_rng(c.seed);
    Rng got_rng(c.seed);
    auto want = oracle::KMeans(points, weights, options, &want_rng);
    auto got = KMeans(points, weights, options, &got_rng);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_EQ(got->centroids.size(), want->centroids.size());
    for (size_t i = 0; i < want->centroids.size(); ++i) {
      ASSERT_EQ(got->centroids[i].dim(), want->centroids[i].dim());
      EXPECT_EQ(std::memcmp(got->centroids[i].data(),
                            want->centroids[i].data(),
                            want->centroids[i].dim() * sizeof(float)),
                0)
          << "centroid " << i;
    }
    EXPECT_EQ(got->assignments, want->assignments);
    EXPECT_EQ(got->cluster_sizes, want->cluster_sizes);
    EXPECT_EQ(Bits(got->inertia), Bits(want->inertia))
        << got->inertia << " vs " << want->inertia;
    EXPECT_EQ(got_rng.NextUint64(), want_rng.NextUint64());
  }
}

}  // namespace
}  // namespace vz::clustering
