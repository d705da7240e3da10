#include "clustering/silhouette.h"

#include <gtest/gtest.h>

#include <string>

#include "clustering/kmeans.h"
#include "test_util.h"

namespace vz::clustering {
namespace {

TEST(SilhouetteTest, PerfectClusteringScoresHigh) {
  auto data = testing::MakeClusteredPoints(2, 20, 4, 20.0, 0.3, 1);
  std::vector<size_t> assignments;
  for (int label : data.labels) {
    assignments.push_back(static_cast<size_t>(label));
  }
  auto score = SilhouetteScore(data.points, assignments);
  ASSERT_TRUE(score.ok());
  EXPECT_GT(*score, 0.9);
}

TEST(SilhouetteTest, RandomClusteringScoresLow) {
  auto data = testing::MakeClusteredPoints(2, 20, 4, 20.0, 0.3, 2);
  std::vector<size_t> assignments(data.points.size());
  Rng rng(3);
  for (auto& a : assignments) a = rng.UniformUint64(2);
  auto score = SilhouetteScore(data.points, assignments);
  ASSERT_TRUE(score.ok());
  EXPECT_LT(*score, 0.3);
}

TEST(SilhouetteTest, SingleClusterScoresZero) {
  auto data = testing::MakeClusteredPoints(2, 10, 4, 20.0, 0.3, 4);
  std::vector<size_t> assignments(data.points.size(), 0);
  auto score = SilhouetteScore(data.points, assignments);
  ASSERT_TRUE(score.ok());
  EXPECT_DOUBLE_EQ(*score, 0.0);
}

TEST(SilhouetteTest, RejectsMismatchedSizes) {
  std::vector<FeatureVector> pts = {FeatureVector({0.0f})};
  EXPECT_FALSE(SilhouetteScore(pts, {0, 1}).ok());
}

TEST(SilhouetteTest, ScoreBoundedByOne) {
  auto data = testing::MakeClusteredPoints(3, 15, 4, 10.0, 1.0, 5);
  std::vector<size_t> assignments;
  for (int label : data.labels) {
    assignments.push_back(static_cast<size_t>(label));
  }
  auto score = SilhouetteScore(data.points, assignments);
  ASSERT_TRUE(score.ok());
  EXPECT_LE(*score, 1.0);
  EXPECT_GE(*score, -1.0);
}

TEST(ChooseKTest, RecoversTrueClusterCount) {
  auto data = testing::MakeClusteredPoints(4, 20, 8, 25.0, 0.5, 6);
  Rng rng(7);
  auto sweep = ChooseKBySilhouette(data.points, 2, 8, &rng);
  ASSERT_TRUE(sweep.ok());
  EXPECT_EQ(sweep->best_k, 4u);
  EXPECT_GT(sweep->best_score, 0.8);
  EXPECT_EQ(sweep->scores.size(), 7u);
}

TEST(ChooseKTest, RejectsMixedDimensions) {
  auto data = testing::MakeClusteredPoints(2, 10, 4, 20.0, 0.3, 8);
  data.points[7] = FeatureVector({1.0f, 2.0f});
  Rng rng(9);
  auto sweep = ChooseKBySilhouette(data.points, 2, 6, &rng);
  ASSERT_FALSE(sweep.ok());
  EXPECT_EQ(sweep.status().code(), StatusCode::kInvalidArgument);
}

// The sweep scores every k from one shared distance pass; each score must
// equal, bit for bit, scoring that k's fit on its own.
void ExpectSweepMatchesPerKScores(size_t dim, size_t clusters = 4) {
  SCOPED_TRACE("dim " + std::to_string(dim) + ", clusters " +
               std::to_string(clusters));
  // Overlapping clusters, so the scores differ across k and are not all
  // near 1.
  auto data =
      testing::MakeClusteredPoints(clusters, 15, dim, 3.0, 1.0, 40 + dim);
  const size_t min_k = 2;
  const size_t max_k = 10;
  Rng rng(41);
  auto sweep = ChooseKBySilhouette(data.points, min_k, max_k, &rng);
  ASSERT_TRUE(sweep.ok());
  ASSERT_EQ(sweep->scores.size(), max_k - min_k + 1);

  Rng reference_rng(41);
  for (size_t k = min_k; k <= max_k; ++k) {
    KMeansOptions options;
    options.k = k;
    auto km = KMeans(data.points, options, &reference_rng);
    ASSERT_TRUE(km.ok());
    auto score = SilhouetteScore(data.points, km->assignments);
    ASSERT_TRUE(score.ok());
    EXPECT_EQ(sweep->scores[k - min_k].first, k);
    EXPECT_EQ(sweep->scores[k - min_k].second, *score) << "k = " << k;
  }
  // The sweep left the stream where the per-k fits leave it.
  EXPECT_EQ(rng.NextUint64(), reference_rng.NextUint64());
}

TEST(ChooseKTest, SweepScoresEqualPerKSilhouette) {
  ExpectSweepMatchesPerKScores(48);
}

TEST(ChooseKTest, SweepScoresEqualPerKSilhouetteOnSimdTail) {
  ExpectSweepMatchesPerKScores(13);  // not a multiple of the 8-lane width
}

// Scoring takes four points per pass; 45 and 75 points leave a last pass
// of one and of three.
TEST(ChooseKTest, SweepScoresEqualPerKSilhouetteOnPartialPass) {
  ExpectSweepMatchesPerKScores(48, 3);
  ExpectSweepMatchesPerKScores(13, 5);
}

TEST(ChooseKTest, RejectsTinyInput) {
  Rng rng(8);
  std::vector<FeatureVector> one = {FeatureVector({0.0f})};
  EXPECT_FALSE(ChooseKBySilhouette(one, 2, 5, &rng).ok());
}

}  // namespace
}  // namespace vz::clustering
