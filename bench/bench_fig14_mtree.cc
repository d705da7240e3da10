// Reproduces Figure 14: PERCH-OMD vs M-tree — OMD computations needed for a
// k-nearest-SVS search, as a function of the M-tree's maximum node size.
// Both return (nearly) the correct neighbor set; the M-tree needs extra OMD
// computations, with a strong dependence on the node-size knob that the
// PERCH-based index does not expose at all (Sec. 7.3).
#include <algorithm>
#include <cstdio>
#include <unordered_set>
#include <vector>

#include "bench_util.h"
#include "core/omd.h"
#include "index/mtree.h"
#include "index/perch_tree.h"

namespace vz::bench {
namespace {

constexpr size_t kNeighbors = 20;  // == ground-truth cluster size
constexpr size_t kQueries = 5;

// Fraction of returned neighbors sharing the query's ground-truth type.
double TypePurity(const std::vector<int>& result,
                  const std::vector<int>& labels, int query) {
  if (result.empty()) return 0.0;
  size_t same = 0;
  for (int id : result) {
    same += labels[static_cast<size_t>(id)] ==
            labels[static_cast<size_t>(query)];
  }
  return static_cast<double>(same) / static_cast<double>(result.size());
}

void Run() {
  sim::SyntheticDatasetOptions data_options = BenchSyntheticOptions();
  data_options.num_svs = 200;  // 10 types x 20 SVSs
  const sim::SyntheticDataset data = sim::MakeSyntheticDataset(data_options);
  Banner("Figure 14: PERCH-OMD vs M-tree (20-NN search)",
         "200 synthetic SVSs, 5 query SVSs, per-query OMD computations");

  core::OmdOptions omd_options;
  omd_options.max_vectors = 40;
  core::OmdCalculator calc(omd_options);
  Rng rng(23);
  std::vector<int> queries;
  while (queries.size() < kQueries) {
    const int q = static_cast<int>(rng.UniformUint64(data.svss.size()));
    if (std::find(queries.begin(), queries.end(), q) == queries.end()) {
      queries.push_back(q);
    }
  }

  // PERCH reference line.
  double perch_evals = 0.0;
  double perch_purity = 0.0;
  {
    core::SvsMetric metric(core::ListItems(data.svss), &calc,
                           core::SvsMetricOptions{.memoize = false});
    index::PerchTree tree(&metric, index::PerchOptions{});
    // Build with a memoized metric to keep construction cheap, then swap in
    // honest per-query counting: rebuild is avoided by building directly
    // with the unmemoized metric but only counting the query phase.
    for (size_t i = 0; i < data.svss.size(); ++i) {
      (void)tree.Insert(static_cast<int>(i));
    }
    for (int q : queries) {
      metric.ResetCounters();
      auto knn = tree.KNearestNeighbors(q, kNeighbors);
      perch_evals += static_cast<double>(metric.num_distance_evals()) /
                     kQueries;
      if (knn.ok()) perch_purity += TypePurity(*knn, data.labels, q) / kQueries;
    }
  }
  std::printf("PERCH-OMD (dashed line): %.1f OMD computations/query, "
              "neighbor purity %.3f\n\n",
              perch_evals, perch_purity);

  std::printf("%-14s %22s %16s\n", "max node size", "OMD computations/query",
              "neighbor purity");
  for (size_t node_size : {4, 8, 16, 32, 64}) {
    core::SvsMetric metric(core::ListItems(data.svss), &calc,
                           core::SvsMetricOptions{.memoize = false});
    index::MTreeOptions options;
    options.max_node_size = node_size;
    index::MTree tree(&metric, options);
    for (size_t i = 0; i < data.svss.size(); ++i) {
      (void)tree.Insert(static_cast<int>(i));
    }
    double evals = 0.0;
    double purity = 0.0;
    for (int q : queries) {
      metric.ResetCounters();
      auto knn = tree.KNearestNeighbors(q, kNeighbors);
      evals += static_cast<double>(metric.num_distance_evals()) / kQueries;
      if (knn.ok()) purity += TypePurity(*knn, data.labels, q) / kQueries;
    }
    std::printf("%-14zu %22.1f %16.3f\n", node_size, evals, purity);
  }
}

}  // namespace
}  // namespace vz::bench

int main() {
  vz::bench::Run();
  return 0;
}
