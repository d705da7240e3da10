// Microbenchmark (google-benchmark): PERCH insertion and nearest-neighbor
// query latency at different index sizes, with the production configuration
// (memoized thresholded OMD, OCD pruning, rotations on).
#include <benchmark/benchmark.h>

#include <memory>

#include "core/omd.h"
#include "index/perch_tree.h"
#include "sim/dataset.h"

namespace {

struct Fixture {
  explicit Fixture(size_t size) {
    vz::sim::SyntheticDatasetOptions options;
    options.num_svs = size + 512;  // extra SVSs serve as fresh probes
    options.vectors_per_svs = 40;
    options.dim = 64;
    options.seed = 73;
    data = vz::sim::MakeSyntheticDataset(options);
    vz::core::OmdOptions omd_options;
    omd_options.max_vectors = 40;
    calc = std::make_unique<vz::core::OmdCalculator>(omd_options);
    metric = std::make_unique<vz::core::SvsMetric>(
        vz::core::ListItems(data.svss), calc.get(),
        vz::core::SvsMetricOptions{.memoize = true});
    tree = std::make_unique<vz::index::PerchTree>(
        metric.get(), vz::index::PerchOptions{});
    for (size_t i = 0; i < size; ++i) {
      (void)tree->Insert(static_cast<int>(i));
    }
    next_probe = size;
  }

  vz::sim::SyntheticDataset data;
  std::unique_ptr<vz::core::OmdCalculator> calc;
  std::unique_ptr<vz::core::SvsMetric> metric;
  std::unique_ptr<vz::index::PerchTree> tree;
  size_t next_probe = 0;
};

void BM_PerchInsert(benchmark::State& state) {
  Fixture fixture(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    if (fixture.next_probe >= fixture.data.svss.size()) {
      state.SkipWithError("probe pool exhausted");
      break;
    }
    benchmark::DoNotOptimize(
        fixture.tree->Insert(static_cast<int>(fixture.next_probe++)));
  }
}
BENCHMARK(BM_PerchInsert)->Arg(64)->Arg(128)->Arg(256);

void BM_PerchNearestNeighbor(benchmark::State& state) {
  Fixture fixture(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    if (fixture.next_probe >= fixture.data.svss.size()) {
      fixture.next_probe = static_cast<size_t>(state.range(0));
    }
    benchmark::DoNotOptimize(fixture.tree->NearestNeighbor(
        static_cast<int>(fixture.next_probe++)));
  }
}
BENCHMARK(BM_PerchNearestNeighbor)->Arg(64)->Arg(128)->Arg(256);

}  // namespace

BENCHMARK_MAIN();
