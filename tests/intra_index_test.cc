#include "core/intra_camera_index.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace vz::core {
namespace {

using ::vz::testing::MakeMap;

class IntraIndexTest : public ::testing::Test {
 protected:
  IntraIndexTest() : metric_(&store_, &calc_) {}

  // Creates an SVS around `center` and returns its id.
  SvsId AddSvs(double center, uint64_t seed) {
    const int64_t start = next_time_;
    next_time_ += 10;
    return store_.Create("cam", start, next_time_,
                         MakeMap(12, 4, center, 0.3, seed));
  }

  SvsStore store_;
  OmdCalculator calc_;
  SvsMetric metric_;
  int64_t next_time_ = 0;
};

TEST_F(IntraIndexTest, InsertRejectsWrongCamera) {
  const SvsId other = store_.Create("other-cam", 0, 10, MakeMap(4, 4, 0, 1, 1));
  IntraCameraIndex index("cam", &store_, &metric_, IntraIndexOptions{},
                         Rng(1));
  EXPECT_FALSE(index.Insert(other).ok());
}

TEST_F(IntraIndexTest, InsertBuildsSvsRepresentative) {
  const SvsId id = AddSvs(0.0, 2);
  IntraCameraIndex index("cam", &store_, &metric_, IntraIndexOptions{},
                         Rng(2));
  ASSERT_TRUE(index.Insert(id).ok());
  auto svs = store_.Get(id);
  ASSERT_TRUE(svs.ok());
  EXPECT_FALSE((*svs)->representative().empty());
}

TEST_F(IntraIndexTest, ClustersSeparateDistinctScenes) {
  IntraIndexOptions options;
  options.recluster_interval = 1;
  IntraCameraIndex index("cam", &store_, &metric_, options, Rng(3));
  std::vector<SvsId> low;
  std::vector<SvsId> high;
  for (int i = 0; i < 4; ++i) {
    low.push_back(AddSvs(0.0, 10 + i));
    high.push_back(AddSvs(10.0, 20 + i));
  }
  for (SvsId id : low) ASSERT_TRUE(index.Insert(id).ok());
  for (SvsId id : high) ASSERT_TRUE(index.Insert(id).ok());
  ASSERT_GE(index.clusters().size(), 2u);
  // Every cluster must be pure: all-low or all-high.
  for (const auto& cluster : index.clusters()) {
    bool has_low = false;
    bool has_high = false;
    for (SvsId id : cluster.members) {
      auto svs = store_.Get(id);
      ASSERT_TRUE(svs.ok());
      const double c = (*svs)->features().Centroid()[0];
      (c < 5.0 ? has_low : has_high) = true;
    }
    EXPECT_FALSE(has_low && has_high);
  }
}

TEST_F(IntraIndexTest, FeatureSearchFindsMatchingSvs) {
  IntraIndexOptions options;
  options.recluster_interval = 1;
  IntraCameraIndex index("cam", &store_, &metric_, options, Rng(4));
  const SvsId low = AddSvs(0.0, 30);
  const SvsId high = AddSvs(10.0, 31);
  ASSERT_TRUE(index.Insert(low).ok());
  ASSERT_TRUE(index.Insert(high).ok());
  Rng rng(5);
  FeatureVector near_low(4);
  for (size_t d = 0; d < 4; ++d) {
    near_low[d] = static_cast<float>(rng.Gaussian(0.0, 0.1));
  }
  const auto result = index.FeatureSearch(near_low, 1.5);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0], low);
}

TEST_F(IntraIndexTest, NearestSvsUnderOmd) {
  IntraCameraIndex index("cam", &store_, &metric_, IntraIndexOptions{},
                         Rng(6));
  const SvsId a = AddSvs(0.0, 40);
  const SvsId b = AddSvs(10.0, 41);
  ASSERT_TRUE(index.Insert(a).ok());
  ASSERT_TRUE(index.Insert(b).ok());
  const FeatureMap query = MakeMap(8, 4, 9.5, 0.3, 42);
  auto nearest = index.NearestSvs(query);
  ASSERT_TRUE(nearest.ok());
  EXPECT_EQ(*nearest, b);
}

TEST_F(IntraIndexTest, ClusterRepresentativeForMember) {
  IntraIndexOptions options;
  options.recluster_interval = 1;
  IntraCameraIndex index("cam", &store_, &metric_, options, Rng(7));
  const SvsId id = AddSvs(0.0, 50);
  ASSERT_TRUE(index.Insert(id).ok());
  auto rep = index.ClusterRepresentativeFor(id);
  ASSERT_TRUE(rep.ok());
  EXPECT_FALSE((*rep)->empty());
  EXPECT_FALSE(index.ClusterRepresentativeFor(999).ok());
}

TEST_F(IntraIndexTest, RepresentativeVersionBumpsOnRecluster) {
  IntraIndexOptions options;
  options.recluster_interval = 2;
  IntraCameraIndex index("cam", &store_, &metric_, options, Rng(8));
  const uint64_t v0 = index.representative_version();
  ASSERT_TRUE(index.Insert(AddSvs(0.0, 60)).ok());  // first insert reclusters
  const uint64_t v1 = index.representative_version();
  EXPECT_GT(v1, v0);
}

TEST_F(IntraIndexTest, ForcedClusterCountHonored) {
  IntraIndexOptions options;
  options.recluster_interval = 1;
  options.forced_num_clusters = 3;
  IntraCameraIndex index("cam", &store_, &metric_, options, Rng(9));
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(index.Insert(AddSvs(static_cast<double>(i * 4), 70 + i)).ok());
  }
  EXPECT_EQ(index.clusters().size(), 3u);
  index.SetForcedClusterCount(2);
  ASSERT_TRUE(index.Recluster().ok());
  EXPECT_EQ(index.clusters().size(), 2u);
}

}  // namespace
}  // namespace vz::core
