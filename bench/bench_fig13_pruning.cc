// Reproduces Figure 13: OMD computations per SVS query and per SVS
// insertion, with and without the OCD-lower-bound pruning of Sec. 4.3, as a
// function of index size. The paper reports ~92% reduction for queries and
// ~80% for insertions (insertions additionally pay for masking checks and
// node-cost updates that pruning cannot remove).
//
// Each measurement uses a fresh probe SVS so memoization never hides work:
// the counts are exactly the OMD solves a cold query/insertion triggers.
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "core/omd.h"
#include "index/perch_tree.h"

namespace vz::bench {
namespace {

constexpr size_t kProbesPerPoint = 2;
const std::vector<size_t> kSizes = {40, 80, 120, 160, 200};

void Run() {
  sim::SyntheticDatasetOptions data_options = BenchSyntheticOptions();
  // 200 indexed + fresh probes for every (checkpoint, op, mode).
  data_options.num_svs = 200 + kSizes.size() * kProbesPerPoint * 4;
  const sim::SyntheticDataset data = sim::MakeSyntheticDataset(data_options);
  Banner("Figure 13: OMD computations per query / insertion (pruning)",
         "synthetic dataset, fresh probe SVSs per measurement");

  core::OmdOptions omd_options;
  omd_options.max_vectors = 40;
  core::OmdCalculator calc(omd_options);

  core::SvsMetric pruned_metric(core::ListItems(data.svss), &calc,
                                core::SvsMetricOptions{.memoize = true});
  core::SvsMetric full_metric(core::ListItems(data.svss), &calc,
                              core::SvsMetricOptions{.memoize = true});
  index::PerchOptions pruned_options;
  pruned_options.enable_pruned_nn = true;
  index::PerchOptions full_options;
  full_options.enable_pruned_nn = false;
  index::PerchTree pruned_tree(&pruned_metric, pruned_options);
  index::PerchTree full_tree(&full_metric, full_options);

  size_t next_probe = 200;
  auto measure = [&](index::PerchTree* tree,
                     core::SvsMetric* metric, bool insert) {
    double evals = 0.0;
    for (size_t p = 0; p < kProbesPerPoint; ++p) {
      const int probe = static_cast<int>(next_probe++);
      const uint64_t before = metric->num_distance_evals();
      if (insert) {
        (void)tree->Insert(probe);
      } else {
        (void)tree->NearestNeighbor(probe);
      }
      evals += static_cast<double>(metric->num_distance_evals() - before) /
               kProbesPerPoint;
    }
    return evals;
  };

  std::printf(
      "%-6s | %12s %12s %9s | %12s %12s %9s\n", "size", "qry-pruned",
      "qry-full", "saved", "ins-pruned", "ins-full", "saved");
  size_t inserted = 0;
  for (size_t size : kSizes) {
    while (inserted < size) {
      (void)pruned_tree.Insert(static_cast<int>(inserted));
      (void)full_tree.Insert(static_cast<int>(inserted));
      ++inserted;
    }
    const double query_pruned = measure(&pruned_tree, &pruned_metric, false);
    const double query_full = measure(&full_tree, &full_metric, false);
    const double insert_pruned = measure(&pruned_tree, &pruned_metric, true);
    const double insert_full = measure(&full_tree, &full_metric, true);
    const double query_saved =
        query_full > 0 ? 100.0 * (1.0 - query_pruned / query_full) : 0.0;
    const double insert_saved =
        insert_full > 0 ? 100.0 * (1.0 - insert_pruned / insert_full) : 0.0;
    std::printf("%-6zu | %12.1f %12.1f %8.1f%% | %12.1f %12.1f %8.1f%%\n",
                size, query_pruned, query_full, query_saved, insert_pruned,
                insert_full, insert_saved);
  }
}

}  // namespace
}  // namespace vz::bench

int main() {
  vz::bench::Run();
  return 0;
}
