// Randomized property sweeps across modules: these catch invariant
// violations that targeted unit tests miss (rotation bookkeeping, pruning
// correctness under odd metrics, segmentation partition laws).
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include <cstdio>
#include <fstream>
#include <string>

#include "clustering/dendrogram_purity.h"
#include "core/omd.h"
#include "core/segmenter.h"
#include "core/svs.h"
#include "index/mtree.h"
#include "index/perch_tree.h"
#include "io/svs_snapshot.h"
#include "sim/dataset.h"
#include "sim/fault_injector.h"
#include "test_util.h"

namespace vz {
namespace {

class FuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzTest, PerchInvariantsSurviveRandomWorkloads) {
  Rng rng(GetParam());
  // Random cluster structure each run.
  const size_t clusters = 2 + rng.UniformUint64(4);
  const size_t per_cluster = 5 + rng.UniformUint64(15);
  const double separation = rng.UniformDouble(5.0, 30.0);
  const double noise = rng.UniformDouble(0.2, 3.0);
  auto data = testing::MakeClusteredPoints(clusters, per_cluster, 6,
                                           separation, noise, GetParam());
  testing::EuclideanPointMetric metric(data.points);
  index::PerchOptions options;
  options.samples_per_node = 1 + rng.UniformUint64(4);
  index::PerchTree tree(&metric, options);

  std::vector<int> order(data.points.size());
  std::iota(order.begin(), order.end(), 0);
  rng.Shuffle(&order);
  for (size_t i = 0; i < order.size(); ++i) {
    ASSERT_TRUE(tree.Insert(order[i]).ok());
    if (i % 7 == 0) {
      ASSERT_TRUE(tree.Validate().ok()) << "after insert " << i;
    }
    if (i % 11 == 3) {
      // Interleaved queries must not disturb the structure.
      auto nn = tree.NearestNeighbor(order[rng.UniformUint64(i + 1)]);
      ASSERT_TRUE(nn.ok());
    }
  }
  ASSERT_TRUE(tree.Validate().ok());
  EXPECT_EQ(tree.size(), data.points.size());

  // Cluster extraction at any k partitions the items exactly.
  for (size_t k : {1ul, 2ul, clusters, data.points.size() + 5}) {
    const auto extracted = tree.ExtractClusters(k);
    std::vector<int> all;
    for (const auto& cluster : extracted) {
      all.insert(all.end(), cluster.begin(), cluster.end());
    }
    std::sort(all.begin(), all.end());
    std::vector<int> expected(data.points.size());
    std::iota(expected.begin(), expected.end(), 0);
    EXPECT_EQ(all, expected) << "k=" << k;
  }
  // The exported tree is well-formed and purity is in range.
  auto purity =
      clustering::DendrogramPurity(tree.ToClusterTree(), data.labels);
  ASSERT_TRUE(purity.ok());
  EXPECT_GE(*purity, 0.0);
  EXPECT_LE(*purity, 1.0 + 1e-12);
}

TEST_P(FuzzTest, PrunedNnAlwaysMatchesBruteForce) {
  Rng rng(GetParam() ^ 0xBEEF);
  auto data = testing::MakeClusteredPoints(
      3, 12, 4, rng.UniformDouble(3.0, 20.0), rng.UniformDouble(0.5, 4.0),
      GetParam() ^ 0xBEEF);
  testing::EuclideanPointMetric metric(data.points);
  index::PerchTree tree(&metric, index::PerchOptions{});
  const size_t held_out = 6;
  for (size_t i = 0; i + held_out < data.points.size(); ++i) {
    ASSERT_TRUE(tree.Insert(static_cast<int>(i)).ok());
  }
  for (size_t q = data.points.size() - held_out; q < data.points.size();
       ++q) {
    auto nn = tree.NearestNeighbor(static_cast<int>(q));
    ASSERT_TRUE(nn.ok());
    double best = 1e18;
    int expected = -1;
    for (size_t i = 0; i + held_out < data.points.size(); ++i) {
      const double d = EuclideanDistance(data.points[q], data.points[i]);
      if (d < best) {
        best = d;
        expected = static_cast<int>(i);
      }
    }
    EXPECT_EQ(*nn, expected);
  }
}

TEST_P(FuzzTest, MTreeInvariantsSurviveRandomNodeSizes) {
  Rng rng(GetParam() ^ 0xC0DE);
  auto data = testing::MakeClusteredPoints(
      4, 20, 5, rng.UniformDouble(5.0, 25.0), rng.UniformDouble(0.3, 2.5),
      GetParam() ^ 0xC0DE);
  testing::EuclideanPointMetric metric(data.points);
  index::MTreeOptions options;
  options.max_node_size = 2 + rng.UniformUint64(14);
  index::MTree tree(&metric, options);
  for (size_t i = 0; i < data.points.size(); ++i) {
    ASSERT_TRUE(tree.Insert(static_cast<int>(i)).ok());
  }
  ASSERT_TRUE(tree.Validate().ok());
  // Range query self-consistency: every returned item is within radius.
  const int probe = static_cast<int>(rng.UniformUint64(data.points.size()));
  const double radius = rng.UniformDouble(1.0, 10.0);
  auto range = tree.RangeQuery(probe, radius);
  ASSERT_TRUE(range.ok());
  for (int id : *range) {
    EXPECT_LE(EuclideanDistance(data.points[static_cast<size_t>(probe)],
                                data.points[static_cast<size_t>(id)]),
              radius + 1e-9);
  }
}

TEST_P(FuzzTest, SegmenterPartitionsItsInputExactly) {
  Rng rng(GetParam() ^ 0xFACE);
  core::SegmenterOptions options;
  options.t_max_ms = 1000 * (20 + rng.UniformUint64(100));
  options.t_split_ms = options.t_max_ms / 10;
  options.min_novel_features = 3 + rng.UniformUint64(8);
  options.novelty_check_stride = 1 + rng.UniformUint64(4);
  core::VideoSegmenter segmenter(options, Rng(GetParam()));

  const size_t total = 100 + rng.UniformUint64(300);
  size_t emitted = 0;
  int64_t ts = 0;
  int64_t last_end = -1;
  for (size_t i = 0; i < total; ++i) {
    FeatureVector v(4);
    // Occasional scene shifts.
    const double center = (i / 60) % 2 == 0 ? 0.0 : 8.0;
    for (size_t d = 0; d < 4; ++d) {
      v[d] = static_cast<float>(center + rng.Gaussian(0.0, 0.3));
    }
    auto segment = segmenter.AddFeature(ts, v);
    if (segment.has_value()) {
      emitted += segment->features.size();
      EXPECT_LE(segment->start_ms, segment->end_ms);
      EXPECT_GT(segment->start_ms, last_end - 1);  // non-overlapping
      last_end = segment->end_ms;
    }
    ts += 500 + static_cast<int64_t>(rng.UniformUint64(1500));
  }
  auto tail = segmenter.Flush();
  if (tail.has_value()) emitted += tail->features.size();
  // Conservation law: every feature fed in leaves in exactly one segment.
  EXPECT_EQ(emitted, total);
  EXPECT_EQ(segmenter.buffered_features(), 0u);
}

TEST_P(FuzzTest, OmdSymmetryUnderRandomMaps) {
  Rng rng(GetParam() ^ 0xD00D);
  core::OmdOptions options;
  options.mode = rng.Bernoulli(0.5) ? core::OmdMode::kExact
                                    : core::OmdMode::kThresholded;
  options.threshold_alpha = rng.UniformDouble(0.4, 1.0);
  options.max_vectors = 32;
  core::OmdCalculator calc(options);
  const FeatureMap a = testing::MakeMap(
      3 + rng.UniformUint64(20), 5, rng.UniformDouble(-2, 2), 1.0,
      GetParam() * 3 + 1);
  const FeatureMap b = testing::MakeMap(
      3 + rng.UniformUint64(20), 5, rng.UniformDouble(-2, 2), 1.0,
      GetParam() * 3 + 2);
  auto ab = calc.Distance(a, b);
  auto ba = calc.Distance(b, a);
  auto aa = calc.Distance(a, a);
  ASSERT_TRUE(ab.ok());
  ASSERT_TRUE(ba.ok());
  ASSERT_TRUE(aa.ok());
  EXPECT_NEAR(*ab, *ba, 1e-6 * (1.0 + *ab));
  EXPECT_NEAR(*aa, 0.0, 1e-6);
  EXPECT_GE(*ab, 0.0);
}

TEST_P(FuzzTest, CorruptedSnapshotsNeverCrashOrPoisonTheStore) {
  Rng rng(GetParam() ^ 0x51AB);
  core::SvsStore original;
  for (int i = 0; i < 4; ++i) {
    const core::SvsId id = original.Create(
        "cam-" + std::to_string(i % 2), i * 100, i * 100 + 90,
        testing::MakeMap(8, 5, i * 1.5, 0.5, GetParam() + i));
    auto svs = original.GetMutable(id);
    ASSERT_TRUE(svs.ok());
    (*svs)->set_frame_ids({i * 2LL, i * 2LL + 1});
  }
  const std::string path = ::testing::TempDir() + "/fuzz_snap_" +
                           std::to_string(GetParam()) + ".vzss";

  for (int trial = 0; trial < 12; ++trial) {
    ASSERT_TRUE(io::SaveSvsStore(original, path).ok());
    size_t size = 0;
    {
      std::ifstream in(path, std::ios::binary | std::ios::ate);
      size = static_cast<size_t>(in.tellg());
    }
    const bool truncated = rng.Bernoulli(0.5);
    if (truncated) {
      ASSERT_TRUE(sim::FaultInjector::TruncateFile(
                      path, static_cast<size_t>(rng.UniformUint64(size)))
                      .ok());
    } else {
      ASSERT_TRUE(sim::FaultInjector::FlipBits(
                      path, 1 + static_cast<size_t>(rng.UniformUint64(8)),
                      rng.NextUint64())
                      .ok());
    }

    // Default (all-or-nothing) mode: a clean error leaves the target
    // store untouched, and the checksums catch every corruption.
    core::SvsStore strict;
    const Status status = io::LoadSvsStore(path, &strict);
    if (!status.ok()) {
      EXPECT_EQ(strict.size(), 0u)
          << "failed load appended records (truncated=" << truncated
          << ", trial=" << trial << ")";
    }
    EXPECT_FALSE(status.ok()) << "v2 accepted corruption (truncated="
                              << truncated << ", trial=" << trial << ")";

    // Salvage mode: success or error, and on success the store holds
    // exactly the reported prefix.
    core::SvsStore salvaged;
    io::SnapshotLoadOptions salvage_options;
    salvage_options.salvage = true;
    io::SnapshotLoadReport report;
    const Status salvage_status =
        io::LoadSvsStore(path, &salvaged, salvage_options, &report);
    if (salvage_status.ok()) {
      EXPECT_EQ(salvaged.size(), report.records_loaded);
    } else {
      EXPECT_EQ(salvaged.size(), 0u);
    }
  }
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest,
                         ::testing::Values(101, 202, 303, 404, 505, 606));

}  // namespace
}  // namespace vz
