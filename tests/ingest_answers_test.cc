// Pins what ingesting the 8-camera, 4-minute benchmark world produces —
// every SVS, the inter-camera groups, and the answers of both query kinds —
// and bounds the OMD solves ingest may spend on it.
//
// The expected lists are the output of the unoptimized ingest path (one
// fresh inter-camera metric per rebuild, one silhouette distance pass per
// candidate k). Solve-saving changes must leave every one of them unchanged;
// the budget then fails any change that reintroduces the repeated solves.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/videozilla.h"
#include "sim/dataset.h"
#include "sim/object_class.h"

namespace vz::core {
namespace {

// The world of the repository benchmark: one city of three downtown cameras,
// three highway cameras, one train station and one harbor at 0.5 fps with
// 48-d features, 4-minute feeds.
sim::DeploymentOptions WorldOptions() {
  sim::DeploymentOptions options;
  options.cities = 1;
  options.downtown_per_city = 3;
  options.highway_cameras = 3;
  options.train_stations = 1;
  options.harbors = 1;
  options.feed_duration_ms = 4LL * 60 * 1000;
  options.fps = 0.5;
  options.feature_dim = 48;
  options.seed = 7;
  return options;
}

// The benchmark's system configuration (the one EXPERIMENTS.md reports).
VideoZillaOptions SystemOptions() {
  VideoZillaOptions options;
  options.segmenter.t_max_ms = 2LL * 60 * 1000;
  options.segmenter.t_split_ms = options.segmenter.t_max_ms / 10;
  options.segmenter.min_novel_features = 4;
  options.segmenter.novelty_check_stride = 2;
  options.omd.max_vectors = 64;
  options.intra.recluster_interval = 3;
  options.boundary_scale = 1.8;
  options.enable_keyframe_selection = false;
  options.seed = 11;
  return options;
}

// Ingest spent 39,589 solves on this world before the inter-camera index
// kept its pair distances across rebuilds; it now needs a few hundred.
constexpr uint64_t kIngestSolveBudget = 1000;

struct Span {
  CameraId camera;
  int64_t start_ms;
  int64_t end_ms;
  size_t representative_centers;
};

const std::vector<Span> kSpans = {
    {"downtown-nyc-0", 0, 120000, 12},
    {"downtown-nyc-1", 0, 120000, 12},
    {"downtown-nyc-2", 0, 120000, 12},
    {"highway-0", 0, 120000, 12},
    {"highway-1", 0, 120000, 12},
    {"highway-2", 0, 120000, 12},
    {"station-0", 0, 120000, 12},
    {"harbor-0", 0, 118000, 10},
    {"harbor-0", 118000, 148000, 3},
    {"harbor-0", 148000, 180000, 4},
    {"harbor-0", 180000, 198000, 4},
    {"harbor-0", 198000, 230000, 3},
    {"highway-2", 120000, 238000, 12},
    {"highway-1", 120000, 238000, 12},
    {"highway-0", 120000, 238000, 12},
    {"harbor-0", 230000, 236000, 3},
    {"station-0", 120000, 238000, 7},
    {"downtown-nyc-2", 120000, 238000, 12},
    {"downtown-nyc-1", 120000, 238000, 12},
    {"downtown-nyc-0", 120000, 238000, 12},
};

// Each group as its members' (camera, intra-camera cluster), in entry order.
using EntryRef = std::pair<CameraId, size_t>;
const std::vector<std::vector<EntryRef>> kGroups = {
    {{"downtown-nyc-0", 0}, {"downtown-nyc-1", 0}, {"downtown-nyc-2", 0}},
    {{"harbor-0", 0}},
    {{"station-0", 0}},
    {{"highway-2", 0}, {"highway-0", 0}, {"highway-1", 0}},
    {{"harbor-0", 1}},
};

const std::vector<SvsId> kDowntown = {19, 0, 18, 1, 17, 2};
const std::vector<SvsId> kHighway = {12, 5, 14, 3, 13, 4};
const std::vector<SvsId> kStation = {16, 6};
const std::vector<SvsId> kHarborEarly = {9, 10, 7, 8};
const std::vector<SvsId> kHarborLate = {15, 11};

// `ClusteringQuery(id)` for id = 0, 1, ...
const std::vector<std::vector<SvsId>> kClustering = {
    kDowntown,    kDowntown,    kDowntown,    kHighway,     kHighway,
    kHighway,     kStation,     kHarborEarly, kHarborEarly, kHarborEarly,
    kHarborEarly, kHarborLate,  kHighway,     kHighway,     kHighway,
    kHarborLate,  kStation,     kDowntown,    kDowntown,    kDowntown,
};

// `DirectQuery` candidates for the seeded feature pool of `QueryPool`.
const std::vector<SvsId> kDowntownByTime = {17, 2, 18, 1, 19, 0};
const std::vector<std::vector<SvsId>> kDirect = {
    kDowntownByTime, kHarborEarly, kStation,
    kDowntownByTime, kHarborEarly, kStation,
    kDowntownByTime, kHarborEarly, kStation,
    kDowntownByTime, kHarborEarly, kStation,
};

// Twelve query features cycling fire hydrant, boat, train.
std::vector<FeatureVector> QueryPool(const sim::Deployment& deployment) {
  Rng rng(2024);
  const int classes[] = {sim::kFireHydrant, sim::kBoat, sim::kTrain};
  std::vector<FeatureVector> pool;
  for (size_t i = 0; i < kDirect.size(); ++i) {
    pool.push_back(deployment.MakeQueryFeature(classes[i % 3], &rng));
  }
  return pool;
}

class IngestAnswersTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    deployment_ = new sim::Deployment(WorldOptions());
    system_ = new VideoZilla(SystemOptions());
    ingest_status_ = deployment_->IngestAll(system_);
    ingest_solves_ = system_->omd().num_computations();
  }
  static void TearDownTestSuite() {
    delete system_;
    delete deployment_;
    system_ = nullptr;
    deployment_ = nullptr;
  }

  static sim::Deployment* deployment_;
  static VideoZilla* system_;
  static Status ingest_status_;
  static uint64_t ingest_solves_;
};

sim::Deployment* IngestAnswersTest::deployment_ = nullptr;
VideoZilla* IngestAnswersTest::system_ = nullptr;
Status IngestAnswersTest::ingest_status_;
uint64_t IngestAnswersTest::ingest_solves_ = 0;

TEST_F(IngestAnswersTest, IngestSolvesStayWithinBudget) {
  ASSERT_TRUE(ingest_status_.ok()) << ingest_status_.ToString();
  EXPECT_LE(ingest_solves_, kIngestSolveBudget);
}

TEST_F(IngestAnswersTest, SvsSpansAndRepresentativesArePinned) {
  ASSERT_TRUE(ingest_status_.ok()) << ingest_status_.ToString();
  const std::vector<SvsId> ids = system_->svs_store().AllIds();
  ASSERT_EQ(ids.size(), kSpans.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    ASSERT_EQ(ids[i], static_cast<SvsId>(i));
    auto svs = system_->svs_store().Get(ids[i]);
    ASSERT_TRUE(svs.ok());
    SCOPED_TRACE("svs " + std::to_string(i));
    EXPECT_EQ((*svs)->camera(), kSpans[i].camera);
    EXPECT_EQ((*svs)->start_ms(), kSpans[i].start_ms);
    EXPECT_EQ((*svs)->end_ms(), kSpans[i].end_ms);
    EXPECT_EQ((*svs)->representative().size(),
              kSpans[i].representative_centers);
  }
}

TEST_F(IngestAnswersTest, InterCameraGroupsArePinned) {
  ASSERT_TRUE(ingest_status_.ok()) << ingest_status_.ToString();
  const InterCameraIndex& inter = system_->inter_index();
  std::vector<std::vector<EntryRef>> groups;
  for (const InterCameraIndex::Group& group : inter.groups()) {
    std::vector<EntryRef> members;
    for (size_t idx : group.entry_indices) {
      const InterCameraIndex::RepEntry& entry = inter.entries()[idx];
      members.emplace_back(entry.camera, entry.intra_cluster_index);
    }
    groups.push_back(std::move(members));
  }
  EXPECT_EQ(groups, kGroups);
}

TEST_F(IngestAnswersTest, ClusteringAnswersArePinned) {
  ASSERT_TRUE(ingest_status_.ok()) << ingest_status_.ToString();
  ASSERT_EQ(system_->svs_store().size(), kClustering.size());
  for (size_t id = 0; id < kClustering.size(); ++id) {
    auto result = system_->ClusteringQuery(static_cast<SvsId>(id));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->similar_svss, kClustering[id]) << "target " << id;
  }
}

TEST_F(IngestAnswersTest, DirectCandidatesArePinned) {
  ASSERT_TRUE(ingest_status_.ok()) << ingest_status_.ToString();
  const std::vector<FeatureVector> pool = QueryPool(*deployment_);
  for (size_t i = 0; i < pool.size(); ++i) {
    auto result = system_->DirectQuery(pool[i]);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->candidate_svss, kDirect[i]) << "query " << i;
  }
}

}  // namespace
}  // namespace vz::core
