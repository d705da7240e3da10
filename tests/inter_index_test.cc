#include "core/inter_camera_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "test_util.h"

namespace vz::core {
namespace {

using ::vz::testing::MakeMap;

class InterIndexTest : public ::testing::Test {
 protected:
  InterIndexTest() : metric_(&store_, &calc_) {}

  // Builds an intra-camera index for `camera` with SVSs around the given
  // centers, one SVS per center, reclustered every insert.
  std::unique_ptr<IntraCameraIndex> MakeIntra(
      const CameraId& camera, const std::vector<double>& centers,
      uint64_t seed) {
    IntraIndexOptions options;
    options.recluster_interval = 1;
    auto intra = std::make_unique<IntraCameraIndex>(camera, &store_, &metric_,
                                                    options, Rng(seed));
    for (size_t i = 0; i < centers.size(); ++i) {
      const SvsId id = store_.Create(camera, next_time_, next_time_ += 10,
                                     MakeMap(10, 4, centers[i], 0.3,
                                             seed * 100 + i));
      EXPECT_TRUE(intra->Insert(id).ok());
    }
    return intra;
  }

  SvsStore store_;
  OmdCalculator calc_;
  SvsMetric metric_;
  int64_t next_time_ = 0;
};

TEST_F(InterIndexTest, UpdateCameraImportsRepresentatives) {
  InterCameraIndex inter(&calc_, InterIndexOptions{}, Rng(1));
  auto intra = MakeIntra("cam-a", {0.0, 0.0, 10.0, 10.0}, 2);
  ASSERT_TRUE(inter.UpdateCamera(*intra).ok());
  EXPECT_EQ(inter.size(), intra->clusters().size());
  EXPECT_GT(inter.representative_bytes_received(), 0u);
}

TEST_F(InterIndexTest, UpdateReplacesPreviousEntries) {
  InterCameraIndex inter(&calc_, InterIndexOptions{}, Rng(3));
  auto intra = MakeIntra("cam-a", {0.0, 10.0}, 4);
  ASSERT_TRUE(inter.UpdateCamera(*intra).ok());
  const size_t first = inter.size();
  ASSERT_TRUE(inter.UpdateCamera(*intra).ok());
  EXPECT_EQ(inter.size(), first);  // replaced, not duplicated
}

TEST_F(InterIndexTest, RemoveCameraDropsEntries) {
  InterCameraIndex inter(&calc_, InterIndexOptions{}, Rng(5));
  auto a = MakeIntra("cam-a", {0.0, 10.0}, 6);
  auto b = MakeIntra("cam-b", {0.0, 10.0}, 7);
  ASSERT_TRUE(inter.UpdateCamera(*a).ok());
  ASSERT_TRUE(inter.UpdateCamera(*b).ok());
  const size_t both = inter.size();
  ASSERT_TRUE(inter.RemoveCamera("cam-a").ok());
  EXPECT_LT(inter.size(), both);
  for (const auto& entry : inter.entries()) {
    EXPECT_EQ(entry.camera, "cam-b");
  }
}

TEST_F(InterIndexTest, GroupsClusterSimilarCamerasTogether) {
  InterIndexOptions options;
  options.forced_num_groups = 2;
  InterCameraIndex inter(&calc_, options, Rng(8));
  // Two "parking lot"-like cameras (around 0) and two "harbor"-like ones
  // (around 10): their representatives should group by content, not camera.
  auto a = MakeIntra("lot-a", {0.0, 0.2}, 9);
  auto b = MakeIntra("lot-b", {0.1, 0.3}, 10);
  auto c = MakeIntra("harbor-a", {10.0, 10.2}, 11);
  auto d = MakeIntra("harbor-b", {10.1, 10.3}, 12);
  for (auto* intra : {a.get(), b.get(), c.get(), d.get()}) {
    ASSERT_TRUE(inter.UpdateCamera(*intra).ok());
  }
  ASSERT_EQ(inter.groups().size(), 2u);
  for (const auto& group : inter.groups()) {
    bool has_lot = false;
    bool has_harbor = false;
    for (size_t idx : group.entry_indices) {
      const auto& camera = inter.entries()[idx].camera;
      (camera.rfind("lot", 0) == 0 ? has_lot : has_harbor) = true;
    }
    EXPECT_FALSE(has_lot && has_harbor);
  }
}

TEST_F(InterIndexTest, FeatureSearchPrunesByContent) {
  InterIndexOptions options;
  options.forced_num_groups = 2;
  InterCameraIndex inter(&calc_, options, Rng(13));
  auto a = MakeIntra("lot-a", {0.0}, 14);
  auto c = MakeIntra("harbor-a", {10.0}, 15);
  ASSERT_TRUE(inter.UpdateCamera(*a).ok());
  ASSERT_TRUE(inter.UpdateCamera(*c).ok());
  FeatureVector near_lot(4);
  for (size_t d = 0; d < 4; ++d) near_lot[d] = 0.05f;
  const auto hits = inter.FeatureSearch(near_lot, 1.5);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0]->camera, "lot-a");
}

TEST_F(InterIndexTest, GroupOfNearestFindsRightGroup) {
  InterIndexOptions options;
  options.forced_num_groups = 2;
  InterCameraIndex inter(&calc_, options, Rng(16));
  auto a = MakeIntra("lot-a", {0.0}, 17);
  auto c = MakeIntra("harbor-a", {10.0}, 18);
  ASSERT_TRUE(inter.UpdateCamera(*a).ok());
  ASSERT_TRUE(inter.UpdateCamera(*c).ok());
  const FeatureMap query = MakeMap(8, 4, 9.8, 0.3, 19);
  auto group = inter.GroupOfNearest(query);
  ASSERT_TRUE(group.ok());
  bool found_harbor = false;
  for (size_t idx : (*group)->entry_indices) {
    found_harbor |= inter.entries()[idx].camera == "harbor-a";
  }
  EXPECT_TRUE(found_harbor);
}

// Every rebuild inserts all entries into a fresh tree, and PERCH asks the
// same entry pairs again and again (re-solving them costs thousands of
// solves for a dozen entries). With the pair memo a rebuild solves each
// ordered pair at most once, and re-importing a camera solves little more
// than the pairs involving its new entries: at most 2 x (its entries) x
// (live entries). A kept pair that no earlier tree compared may still be
// solved, so steps that import nothing are held to the per-rebuild bound.
TEST_F(InterIndexTest, RebuildsSolveOnlyPairsOfNewEntries) {
  InterCameraIndex inter(&calc_, InterIndexOptions{}, Rng(30));
  auto a = MakeIntra("cam-a", {0.0, 0.2, 10.0, 10.2, 20.0, 20.2}, 31);
  auto b = MakeIntra("cam-b", {0.1, 0.3, 10.1, 10.3, 20.1, 20.3}, 32);
  auto c = MakeIntra("cam-c", {5.0, 5.2, 15.0, 15.2}, 33);
  auto d = MakeIntra("cam-d", {2.0, 2.2, 12.0, 12.2, 25.0, 25.2}, 34);

  // Runs `step` and checks its solves: at most once per ordered pair of
  // live entries, and, when it imports `imported` entries, at most the
  // ordered pairs that involve one of them.
  auto expect_bounded = [&](const std::string& what, size_t imported,
                            const std::function<Status()>& step) {
    SCOPED_TRACE(what);
    const uint64_t before = calc_.num_computations();
    ASSERT_TRUE(step().ok());
    const uint64_t solves = calc_.num_computations() - before;
    const size_t n = inter.size();
    EXPECT_LE(solves, n * (n - 1));
    if (imported > 0) {
      EXPECT_LE(solves, 2 * imported * n);
    }
    EXPECT_LE(inter.memoized_pairs(), n * n);
  };
  auto update = [&](const IntraCameraIndex& intra) {
    return [&inter, &intra] { return inter.UpdateCamera(intra); };
  };

  for (const auto* intra : {a.get(), b.get(), c.get(), d.get()}) {
    ASSERT_GE(intra->clusters().size(), 2u);
    expect_bounded("import " + intra->camera(), intra->clusters().size(),
                   update(*intra));
  }
  ASSERT_GE(inter.size(), 8u);
  for (const auto* intra : {d.get(), d.get(), b.get(), b.get(), a.get()}) {
    expect_bounded("re-import " + intra->camera(), intra->clusters().size(),
                   update(*intra));
  }
  expect_bounded("remove cam-c", 0,
                 [&inter] { return inter.RemoveCamera("cam-c"); });

  // SetEntries imports everything afresh; the identities it assigns then
  // carry the next rebuild like any other.
  const std::vector<InterCameraIndex::RepEntry> synced = inter.entries();
  expect_bounded("set entries", synced.size(),
                 [&inter, &synced] { return inter.SetEntries(synced); });
  expect_bounded("import cam-c after set entries", c->clusters().size(),
                 update(*c));

  ASSERT_TRUE(inter.Reset(Rng(35)).ok());
  EXPECT_EQ(inter.size(), 0u);
  EXPECT_EQ(inter.memoized_pairs(), 0u);
  for (const auto* intra : {a.get(), d.get(), a.get()}) {
    expect_bounded("import after reset " + intra->camera(),
                   intra->clusters().size(), update(*intra));
  }
}

// The query's scratch slot has no identity, so a search never reads a
// distance memoized for another query: each answer is the group of the
// entry a brute-force OMD scan finds nearest.
TEST_F(InterIndexTest, GroupOfNearestNeverReusesAnotherQuerysDistances) {
  InterIndexOptions options;
  options.forced_num_groups = 3;
  InterCameraIndex inter(&calc_, options, Rng(36));
  auto a = MakeIntra("lot-a", {0.0, 0.2, 1.5, 1.7}, 37);
  auto b = MakeIntra("road-a", {5.0, 5.2, 6.5, 6.7}, 38);
  auto c = MakeIntra("harbor-a", {10.0, 10.2, 11.5, 11.7}, 39);
  for (const auto* intra : {a.get(), b.get(), c.get()}) {
    ASSERT_TRUE(inter.UpdateCamera(*intra).ok());
  }
  auto brute_force_nearest = [&](const FeatureMap& query) {
    size_t best = 0;
    double best_d = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < inter.entries().size(); ++i) {
      auto dist = calc_.Distance(query, inter.entries()[i].map);
      EXPECT_TRUE(dist.ok());
      if (dist.ok() && *dist < best_d) {
        best_d = *dist;
        best = i;
      }
    }
    return best;
  };
  const std::vector<FeatureMap> queries = {
      MakeMap(8, 4, 11.6, 0.3, 40), MakeMap(8, 4, 0.1, 0.3, 41),
      MakeMap(8, 4, 6.6, 0.3, 42), MakeMap(8, 4, 5.1, 0.3, 43),
      MakeMap(8, 4, 11.6, 0.3, 40)};
  for (size_t q = 0; q < queries.size(); ++q) {
    SCOPED_TRACE("query " + std::to_string(q));
    const size_t nearest = brute_force_nearest(queries[q]);
    auto group = inter.GroupOfNearest(queries[q]);
    ASSERT_TRUE(group.ok());
    const std::vector<size_t>& members = (*group)->entry_indices;
    EXPECT_NE(std::find(members.begin(), members.end(), nearest),
              members.end());
  }
}

// A search carries its own query and writes nothing shared but the memo, so
// concurrent searches need no lock: each answer equals a lone caller's and
// holds the entry a brute-force OMD scan finds nearest. Half the queries
// carry an identity, so the threads also read and fill the memo.
TEST_F(InterIndexTest, ConcurrentSearchesMatchALoneCaller) {
  InterIndexOptions options;
  options.forced_num_groups = 3;
  InterCameraIndex inter(&calc_, options, Rng(44));
  auto a = MakeIntra("lot-a", {0.0, 0.2, 1.5, 1.7}, 45);
  auto b = MakeIntra("road-a", {5.0, 5.2, 6.5, 6.7}, 46);
  auto c = MakeIntra("harbor-a", {10.0, 10.2, 11.5, 11.7}, 47);
  for (const auto* intra : {a.get(), b.get(), c.get()}) {
    ASSERT_TRUE(inter.UpdateCamera(*intra).ok());
  }
  constexpr size_t kThreads = 4;
  constexpr size_t kCallsPerThread = 10;
  constexpr size_t kQueries = kThreads * kCallsPerThread;
  // Each query sits near one entry, so the nearest is unambiguous.
  const std::vector<double> centers = {0.0, 1.6, 5.1, 6.6, 10.1, 11.6};
  std::vector<FeatureMap> queries;
  for (size_t q = 0; q < kQueries; ++q) {
    queries.push_back(MakeMap(8, 4, centers[q % centers.size()], 0.3,
                              100 + q));
  }
  const auto search = [&inter, &queries](size_t q) {
    std::optional<SvsId> id;
    if (q % 2 == 1) id = static_cast<SvsId>(q);
    return inter.GroupOfNearest(queries[q], id);
  };
  std::vector<StatusOr<const InterCameraIndex::Group*>> answers(
      kQueries, Status::Internal("not searched"));
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = 0; i < kCallsPerThread; ++i) {
        const size_t q = i * kThreads + t;
        answers[q] = search(q);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t q = 0; q < kQueries; ++q) {
    SCOPED_TRACE("query " + std::to_string(q));
    ASSERT_TRUE(answers[q].ok()) << answers[q].status().ToString();
    auto alone = search(q);
    ASSERT_TRUE(alone.ok());
    EXPECT_EQ(*answers[q], *alone);
    size_t nearest = 0;
    double nearest_d = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < inter.entries().size(); ++i) {
      auto d = calc_.Distance(queries[q], inter.entries()[i].map);
      ASSERT_TRUE(d.ok());
      if (*d < nearest_d) {
        nearest_d = *d;
        nearest = i;
      }
    }
    const std::vector<size_t>& members = (*answers[q])->entry_indices;
    EXPECT_NE(std::find(members.begin(), members.end(), nearest),
              members.end());
  }
}

TEST_F(InterIndexTest, EmptyIndexQueriesFail) {
  InterCameraIndex inter(&calc_, InterIndexOptions{}, Rng(20));
  const FeatureMap query = MakeMap(4, 4, 0.0, 0.3, 21);
  EXPECT_FALSE(inter.GroupOfNearest(query).ok());
  FeatureVector f(4);
  EXPECT_TRUE(inter.FeatureSearch(f).empty());
}

}  // namespace
}  // namespace vz::core
