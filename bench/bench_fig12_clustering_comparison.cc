// Reproduces Figure 12: Video-zilla's incremental clustering (PERCH-OMD) vs
// hierarchical agglomerative clustering with single/complete/average
// linkage, as SVSs stream in. All methods reach similar dendrogram purity,
// but HAC's cumulative OMD computations grow quadratically with the index
// size (it needs the full distance matrix) while the incremental tree grows
// roughly linearly, and HAC's per-attempt latency explodes because it
// reclusters from scratch on every arrival.
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "clustering/dendrogram_purity.h"
#include "clustering/hac.h"
#include "common/sim_clock.h"
#include "core/omd.h"
#include "index/perch_tree.h"

namespace vz::bench {
namespace {

void Run() {
  sim::SyntheticDatasetOptions data_options = BenchSyntheticOptions();
  const sim::SyntheticDataset data = sim::MakeSyntheticDataset(data_options);
  Banner("Figure 12: clustering algorithm comparison",
         "200 synthetic SVSs (10 types) streamed; checkpoints every 40");

  core::OmdOptions omd_options;
  omd_options.max_vectors = 40;
  core::OmdCalculator calc(omd_options);

  // PERCH-OMD: one incremental tree; its memoized metric counts each
  // distinct pair solved once, as the real system does.
  core::SvsMetric perch_metric(core::ListItems(data.svss), &calc,
                               core::SvsMetricOptions{.memoize = true});
  index::PerchTree perch(&perch_metric, index::PerchOptions{});

  // HAC: distances served from a memo shared across attempts (the kindest
  // possible implementation — it still needs every pair at least once).
  core::SvsMetric hac_metric(core::ListItems(data.svss), &calc,
                             core::SvsMetricOptions{.memoize = true});

  std::printf(
      "%-6s | %-9s %-12s %-11s | %-9s %-12s %-11s (per linkage)\n", "size",
      "vz-purity", "vz-cum-OMD", "vz-ins-ms", "hac-purity", "hac-cum-OMD",
      "hac-att-ms");
  const std::vector<size_t> checkpoints = {40, 80, 120, 160, 200};
  size_t next_checkpoint = 0;
  for (size_t n = 0; n < data.svss.size(); ++n) {
    Stopwatch insert_watch;
    (void)perch.Insert(static_cast<int>(n));
    const double insert_ms = insert_watch.ElapsedMillis();
    if (next_checkpoint >= checkpoints.size() ||
        n + 1 != checkpoints[next_checkpoint]) {
      continue;
    }
    ++next_checkpoint;
    const size_t size = n + 1;
    std::vector<int> labels(data.labels.begin(),
                            data.labels.begin() + static_cast<long>(size));
    auto vz_purity =
        clustering::DendrogramPurity(perch.ToClusterTree(), labels);

    // One HAC attempt per linkage at this size (the paper's HAC baselines
    // would have run at *every* insertion; per-attempt cost is what blows
    // up, and cumulative OMD count is the same since distances memoize).
    double hac_purity_avg = 0.0;
    double hac_ms_avg = 0.0;
    for (clustering::Linkage linkage :
         {clustering::Linkage::kSingle, clustering::Linkage::kComplete,
          clustering::Linkage::kAverage}) {
      Stopwatch hac_watch;
      auto hac = clustering::Hac(
          size,
          [&hac_metric](size_t i, size_t j) {
            return hac_metric.Distance(static_cast<int>(i),
                                       static_cast<int>(j));
          },
          linkage);
      hac_ms_avg += hac_watch.ElapsedMillis() / 3.0;
      if (hac.ok()) {
        auto purity = clustering::DendrogramPurity(hac->tree, labels);
        if (purity.ok()) hac_purity_avg += *purity / 3.0;
      }
    }
    std::printf("%-6zu | %9.3f %12llu %11.2f | %9.3f %12llu %11.2f\n", size,
                vz_purity.ok() ? *vz_purity : -1.0,
                static_cast<unsigned long long>(
                    perch_metric.num_distance_evals()),
                insert_ms, hac_purity_avg,
                static_cast<unsigned long long>(
                    hac_metric.num_distance_evals()),
                hac_ms_avg);
  }
}

}  // namespace
}  // namespace vz::bench

int main() {
  vz::bench::Run();
  return 0;
}
