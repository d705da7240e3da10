// Reproduces the Sec. 7.3 ANN comparison: PERCH-OMD performs *precise*
// nearest-neighbor search, while the NN-descent graph (the algorithm behind
// PyNNDescent, the paper's ANN comparator) trades a little recall for
// speed. The paper measured 97.8% average recall for the ANN on its
// synthetic dataset.
#include <algorithm>
#include <cstdio>
#include <limits>
#include <unordered_set>
#include <vector>

#include "bench_util.h"
#include "core/omd.h"
#include "index/nn_descent.h"
#include "index/perch_tree.h"

namespace vz::bench {
namespace {

constexpr size_t kNeighbors = 20;
constexpr size_t kQueries = 5;

void Run() {
  sim::SyntheticDatasetOptions data_options = BenchSyntheticOptions();
  data_options.num_svs = 200;
  const sim::SyntheticDataset data = sim::MakeSyntheticDataset(data_options);
  Banner("Sec 7.3: PERCH-OMD (exact) vs NN-descent ANN (20-NN recall)",
         "200 synthetic SVSs, 5 queries");

  core::OmdOptions omd_options;
  omd_options.max_vectors = 40;
  core::OmdCalculator calc(omd_options);

  Rng rng(29);
  std::vector<int> queries;
  while (queries.size() < kQueries) {
    const int q = static_cast<int>(rng.UniformUint64(data.svss.size()));
    if (std::find(queries.begin(), queries.end(), q) == queries.end()) {
      queries.push_back(q);
    }
  }

  // Exact ground-truth neighbor sets by brute force, solved by the
  // calculator itself: the indexes' memos never see these pairs.
  std::vector<std::unordered_set<int>> truth;
  for (int q : queries) {
    std::vector<std::pair<double, int>> ranked;
    for (size_t i = 0; i < data.svss.size(); ++i) {
      double d = 0.0;
      if (static_cast<int>(i) != q) {
        auto solved = calc.Distance(data.svss[static_cast<size_t>(q)],
                                    data.svss[i]);
        d = solved.ok() ? *solved : std::numeric_limits<double>::infinity();
      }
      ranked.emplace_back(d, static_cast<int>(i));
    }
    std::sort(ranked.begin(), ranked.end());
    std::unordered_set<int> set;
    for (size_t i = 0; i < kNeighbors; ++i) set.insert(ranked[i].second);
    truth.push_back(std::move(set));
  }

  // Each index searches through its own memoizing metric, so a row counts
  // the solves its queries made beyond what its own build solved.
  auto report = [&](const char* name, const char* key,
                    const core::SvsMetric& metric, auto&& knn_fn) {
    double recall = 0.0;
    const uint64_t before = metric.num_distance_evals();
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      const std::vector<int> result = knn_fn(queries[qi]);
      size_t hits = 0;
      for (int id : result) hits += truth[qi].count(id);
      recall += static_cast<double>(hits) / kNeighbors / kQueries;
    }
    const unsigned long long solves = static_cast<unsigned long long>(
        metric.num_distance_evals() - before);
    std::printf("%-22s recall %.3f (distinct OMD solves this phase: %llu)\n",
                name, recall, solves);
    std::printf("JSON {\"bench\":\"sec73_ann\",\"index\":\"%s\","
                "\"neighbors\":%zu,\"queries\":%zu,\"recall\":%.4f,"
                "\"omd_solves\":%llu}\n",
                key, kNeighbors, kQueries, recall, solves);
  };
  const core::SvsMetricOptions memoized{.memoize = true};

  core::SvsMetric perch_metric(core::ListItems(data.svss), &calc, memoized);
  index::PerchTree perch(&perch_metric, index::PerchOptions{});
  for (size_t i = 0; i < data.svss.size(); ++i) {
    (void)perch.Insert(static_cast<int>(i));
  }
  report("PERCH-OMD (exact NN)", "perch", perch_metric, [&perch](int q) {
    auto knn = perch.KNearestNeighbors(q, kNeighbors);
    return knn.ok() ? *knn : std::vector<int>{};
  });

  core::SvsMetric ann_metric(core::ListItems(data.svss), &calc, memoized);
  index::NnDescentOptions ann_options;
  ann_options.graph_degree = 10;
  ann_options.seed = 5;
  index::NnDescentGraph ann(&ann_metric, ann_options);
  std::vector<int> items;
  for (size_t i = 0; i < data.svss.size(); ++i) {
    items.push_back(static_cast<int>(i));
  }
  (void)ann.Build(items);
  report("NN-descent (ANN)", "nn_descent", ann_metric, [&ann](int q) {
    auto knn = ann.KNearestNeighbors(q, kNeighbors);
    return knn.ok() ? *knn : std::vector<int>{};
  });
}

}  // namespace
}  // namespace vz::bench

int main() {
  vz::bench::Run();
  return 0;
}
