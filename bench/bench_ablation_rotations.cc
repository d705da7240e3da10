// Ablation for the design choices of Sec. 4: masking-triggered and
// balance-triggered rotations, and the OCD-pruned nearest-neighbor search.
// An adversarial arrival order (cluster types interleaved) makes the
// greedy-only tree impure; masking rotations restore purity, balance
// rotations keep the tree shallow (which in turn keeps searches cheap).
#include <cstdio>
#include <algorithm>
#include <vector>

#include "bench_util.h"
#include "clustering/dendrogram_purity.h"
#include "core/omd.h"
#include "index/perch_tree.h"

namespace vz::bench {
namespace {

void Run() {
  sim::SyntheticDatasetOptions data_options = BenchSyntheticOptions();
  data_options.num_svs = 150;
  data_options.svs_jitter = 1.2;
  const sim::SyntheticDataset data = sim::MakeSyntheticDataset(data_options);
  Banner("Ablation: PERCH rotations and pruning",
         "150 synthetic SVSs, type-sorted arrival (the Fig. 7 masking case)");

  // Sorted-by-type arrival: each new type's first SVSs land inside the
  // previous types' region of the tree and are masked there (exactly the
  // car/train scenario of Fig. 7) until rotations pull them out.
  std::vector<int> order(data.svss.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  std::stable_sort(order.begin(), order.end(), [&data](int a, int b) {
    return data.labels[static_cast<size_t>(a)] <
           data.labels[static_cast<size_t>(b)];
  });
  core::OmdOptions omd_options;
  omd_options.max_vectors = 40;

  struct Config {
    const char* name;
    bool masking;
    bool balance;
  };
  const std::vector<Config> configs = {
      {"greedy only", false, false},
      {"+ masking", true, false},
      {"+ balance", false, true},
      {"+ both", true, true},
  };
  std::printf("%-14s %10s %8s %10s %12s %14s\n", "config", "purity", "depth",
              "balance", "rotations", "OMD computed");
  for (const Config& config : configs) {
    core::OmdCalculator calc(omd_options);
    core::SvsMetric metric(core::ListItems(data.svss), &calc,
                           core::SvsMetricOptions{.memoize = true});
    index::PerchOptions options;
    options.enable_masking_rotations = config.masking;
    options.enable_balance_rotations = config.balance;
    index::PerchTree tree(&metric, options);
    for (int item : order) {
      (void)tree.Insert(item);
    }
    auto purity = clustering::DendrogramPurity(tree.ToClusterTree(),
                                               data.labels);
    std::printf("%-14s %10.3f %8zu %10.3f %12llu %14llu\n", config.name,
                purity.ok() ? *purity : -1.0, tree.Depth(),
                tree.AverageBalance(),
                static_cast<unsigned long long>(
                    tree.stats().masking_rotations +
                    tree.stats().balance_rotations),
                static_cast<unsigned long long>(metric.num_distance_evals()));
  }
}

}  // namespace
}  // namespace vz::bench

int main() {
  vz::bench::Run();
  return 0;
}
