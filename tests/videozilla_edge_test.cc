// Additional end-to-end behaviors: determinism, key-frame-enabled ingestion,
// clustering-query constraints, per-query stats, and exact-stage toggling.
#include <gtest/gtest.h>

#include <string>
#include <unordered_set>
#include <vector>

#include "core/videozilla.h"
#include "sim/dataset.h"
#include "sim/object_class.h"
#include "sim/verifier.h"

namespace vz::core {
namespace {

sim::DeploymentOptions SmallDeployment(uint64_t seed = 5) {
  sim::DeploymentOptions options;
  options.cities = 1;
  options.downtown_per_city = 1;
  options.highway_cameras = 1;
  options.train_stations = 1;
  options.harbors = 1;
  options.feed_duration_ms = 60'000;
  options.fps = 1.0;
  options.feature_dim = 32;
  options.seed = seed;
  return options;
}

VideoZillaOptions FastOptions() {
  VideoZillaOptions options;
  options.segmenter.t_max_ms = 20'000;
  options.omd.max_vectors = 48;
  options.boundary_scale = 1.6;
  options.enable_keyframe_selection = false;
  return options;
}

TEST(VideoZillaEdgeTest, IdenticalRunsAreBitForBitDeterministic) {
  auto run = [] {
    sim::Deployment deployment(SmallDeployment());
    VideoZilla system(FastOptions());
    EXPECT_TRUE(deployment.IngestAll(&system).ok());
    std::vector<std::tuple<CameraId, int64_t, int64_t, size_t>> fingerprint;
    for (SvsId id : system.svs_store().AllIds()) {
      auto svs = system.svs_store().Get(id);
      EXPECT_TRUE(svs.ok());
      fingerprint.emplace_back((*svs)->camera(), (*svs)->start_ms(),
                               (*svs)->end_ms(), (*svs)->features().size());
    }
    return fingerprint;
  };
  EXPECT_EQ(run(), run());
}

TEST(VideoZillaEdgeTest, KeyframeSelectionBoundsExtraction) {
  sim::DeploymentOptions dep_options = SmallDeployment();
  dep_options.fps = 4.0;  // offered well above the edge budget

  VideoZillaOptions unbounded = FastOptions();
  VideoZillaOptions bounded = FastOptions();
  bounded.enable_keyframe_selection = true;
  bounded.keyframe.processing_capacity_fps = 1.0;

  sim::Deployment world_a(dep_options);
  sim::Deployment world_b(dep_options);
  VideoZilla everything(unbounded);
  VideoZilla budgeted(bounded);
  ASSERT_TRUE(world_a.IngestAll(&everything).ok());
  ASSERT_TRUE(world_b.IngestAll(&budgeted).ok());

  EXPECT_LT(budgeted.ingest_stats().keyframes_selected,
            everything.ingest_stats().keyframes_selected / 2);
  EXPECT_GT(budgeted.svs_store().size(), 0u);
  // SVSs still cover all frames (key-framing bounds extraction, not the
  // archived video).
  size_t frames_covered = 0;
  for (SvsId id : budgeted.svs_store().AllIds()) {
    auto svs = budgeted.svs_store().Get(id);
    ASSERT_TRUE(svs.ok());
    frames_covered += (*svs)->frame_ids().size();
  }
  EXPECT_GT(frames_covered,
            budgeted.ingest_stats().keyframes_selected);
}

TEST(VideoZillaEdgeTest, ClusteringQueryHonorsConstraints) {
  sim::Deployment deployment(SmallDeployment());
  VideoZilla system(FastOptions());
  ASSERT_TRUE(deployment.IngestAll(&system).ok());
  SvsId seed = -1;
  for (SvsId id : system.svs_store().IdsForCamera("harbor-0")) {
    seed = id;
    break;
  }
  ASSERT_GE(seed, 0);
  auto svs = system.svs_store().Get(seed);
  ASSERT_TRUE(svs.ok());

  QueryConstraints constraints;
  constraints.cameras = std::vector<CameraId>{"harbor-0"};
  auto result = system.ClusteringQuery((*svs)->features(), constraints);
  ASSERT_TRUE(result.ok());
  for (SvsId id : result->similar_svss) {
    auto peer = system.svs_store().Get(id);
    ASSERT_TRUE(peer.ok());
    EXPECT_EQ((*peer)->camera(), "harbor-0");
  }
  EXPECT_LE(result->cameras_contributing, 1u);
}

// Every OMD between maps of different dimensions fails and reads as +inf, so
// a target of a dimension no stored SVS has cannot be compared with the
// corpus. It is refused before any solve, in every index mode.
TEST(VideoZillaEdgeTest, ClusteringQueryRejectsATargetOfAnotherDimension) {
  sim::Deployment deployment(SmallDeployment());
  VideoZilla system(FastOptions());
  ASSERT_TRUE(deployment.IngestAll(&system).ok());
  ASSERT_GT(system.svs_store().size(), 0u);
  FeatureMap target;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        target.Add(FeatureVector(std::vector<float>(7, 0.1f * i))).ok());
  }
  for (IndexMode mode : {IndexMode::kHierarchical, IndexMode::kIntraOnly,
                         IndexMode::kFlatSvs, IndexMode::kFlat}) {
    SCOPED_TRACE("index mode " + std::to_string(static_cast<int>(mode)));
    system.SetIndexMode(mode);
    const uint64_t solves = system.omd().num_computations();
    const uint64_t failures = system.query_load_stats().omd_failures;
    auto result = system.ClusteringQuery(target);
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(system.omd().num_computations(), solves);
    EXPECT_EQ(system.query_load_stats().omd_failures, failures);
  }
  // A target of the corpus's dimension is still answered.
  auto svs = system.svs_store().Get(0);
  ASSERT_TRUE(svs.ok());
  EXPECT_TRUE(system.ClusteringQuery((*svs)->features()).ok());
}

TEST(VideoZillaEdgeTest, PerCameraGpuAccountingSumsToTotal) {
  sim::Deployment deployment(SmallDeployment());
  VideoZilla system(FastOptions());
  ASSERT_TRUE(deployment.IngestAll(&system).ok());
  sim::HeavyModel heavy(1.0, 0.0, 3);
  sim::SimObjectVerifier verifier(&deployment.space(), &deployment.log(),
                                  &heavy);
  system.SetVerifier(&verifier);
  Rng rng(13);
  auto result =
      system.DirectQuery(deployment.MakeQueryFeature(sim::kCar, &rng));
  ASSERT_TRUE(result.ok());
  double per_camera = 0.0;
  for (const auto& [camera, ms] : result->per_camera_gpu_ms) per_camera += ms;
  EXPECT_NEAR(per_camera, result->total_gpu_ms, 1e-6);
  EXPECT_LE(result->bottleneck_camera_gpu_ms, result->total_gpu_ms + 1e-9);
  EXPECT_EQ(result->cameras_searched, result->per_camera_gpu_ms.size());
}

TEST(VideoZillaEdgeTest, ExactStageOnlyRemovesCandidates) {
  sim::Deployment world_a(SmallDeployment());
  sim::Deployment world_b(SmallDeployment());
  VideoZillaOptions with_stage = FastOptions();
  VideoZillaOptions without_stage = FastOptions();
  without_stage.enable_exact_stage = false;
  VideoZilla filtered(with_stage);
  VideoZilla unfiltered(without_stage);
  ASSERT_TRUE(world_a.IngestAll(&filtered).ok());
  ASSERT_TRUE(world_b.IngestAll(&unfiltered).ok());
  Rng rng_a(17);
  Rng rng_b(17);
  for (int cls : {sim::kBoat, sim::kTrain}) {
    auto a = filtered.DirectQuery(world_a.MakeQueryFeature(cls, &rng_a));
    auto b = unfiltered.DirectQuery(world_b.MakeQueryFeature(cls, &rng_b));
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    // Both worlds are identical (same seeds); the confirmed set must be a
    // subset of the unfiltered candidates.
    std::unordered_set<SvsId> unfiltered_set(b->candidate_svss.begin(),
                                             b->candidate_svss.end());
    for (SvsId id : a->candidate_svss) {
      EXPECT_TRUE(unfiltered_set.count(id) > 0) << "class " << cls;
    }
    EXPECT_LE(a->candidate_svss.size(), b->candidate_svss.size());
  }
}

TEST(VideoZillaEdgeTest, FrameOrderViolationIsTolerated) {
  // Out-of-order timestamps within a camera should not crash the pipeline
  // (segmentation treats them as same-instant features).
  VideoZilla system(FastOptions());
  ASSERT_TRUE(system.CameraStart("cam").ok());
  sim::FeatureSpace space(sim::FeatureSpaceOptions{16, 10.0, 2.0, 1});
  sim::FeatureExtractor extractor(&space,
                                  sim::ExtractorProfile::ResNet50());
  Rng rng(19);
  for (int i = 0; i < 20; ++i) {
    FrameObservation frame;
    frame.camera = "cam";
    frame.frame_id = i;
    frame.timestamp_ms = (i % 5 == 0) ? i * 1000 - 500 : i * 1000;
    DetectedObject object;
    object.feature = extractor.Extract(sim::kCar, "", &rng);
    frame.objects.push_back(std::move(object));
    EXPECT_TRUE(system.IngestFrame(frame).ok());
  }
  EXPECT_TRUE(system.Flush().ok());
  EXPECT_GT(system.svs_store().size(), 0u);
}

}  // namespace
}  // namespace vz::core
