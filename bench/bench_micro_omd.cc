// Microbenchmark (google-benchmark): exact vs thresholded OMD solve time as
// a function of SVS size — the raw cost the FastOMD approximation of
// Sec. 3.2 attacks. The paper reports 767 ms average per thresholded OMD at
// alpha = 0.6 on 1024-d, ~700-vector SVSs; our absolute numbers differ with
// size but the exact/thresholded gap shape is the same.
#include <benchmark/benchmark.h>

#include <memory>

#include "clustering/silhouette.h"
#include "common/thread_pool.h"
#include "core/omd.h"
#include "core/representative.h"
#include "sim/dataset.h"
#include "vector/simd_kernels.h"

namespace {

vz::sim::SyntheticDataset MakePair(size_t vectors, size_t dim = 128) {
  vz::sim::SyntheticDatasetOptions options;
  options.num_svs = 2;
  options.vectors_per_svs = vectors;
  options.dim = dim;
  options.num_types = 2;
  options.seed = 71;
  return vz::sim::MakeSyntheticDataset(options);
}

void BM_ExactOmd(benchmark::State& state) {
  const auto data = MakePair(static_cast<size_t>(state.range(0)));
  vz::core::OmdOptions options;
  options.mode = vz::core::OmdMode::kExact;
  options.max_vectors = static_cast<size_t>(state.range(0));
  vz::core::OmdCalculator calc(options);
  for (auto _ : state) {
    auto d = calc.Distance(data.svss[0], data.svss[1]);
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_ExactOmd)->Arg(16)->Arg(32)->Arg(64)->Arg(128);

void BM_ThresholdedOmd(benchmark::State& state) {
  const auto data = MakePair(static_cast<size_t>(state.range(0)));
  vz::core::OmdOptions options;
  options.mode = vz::core::OmdMode::kThresholded;
  options.threshold_alpha = 0.6;
  options.max_vectors = static_cast<size_t>(state.range(0));
  vz::core::OmdCalculator calc(options);
  for (auto _ : state) {
    auto d = calc.Distance(data.svss[0], data.svss[1]);
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_ThresholdedOmd)->Arg(16)->Arg(32)->Arg(64)->Arg(128);

// The parallel ground-distance matrix fill (the quadratic kernel inside
// every OMD solve) across threads and dim axes: Args are {vectors per side,
// threads, dim}. threads = 1 is the serial legacy path; the parallel and
// vectorized fills are bit-identical to it. The `simd` counter records
// whether the AVX2 kernel table is active (set VZ_SIMD=scalar to force the
// scalar table and A/B on the same machine); dim = 512 single-threaded is
// the PR's headline speedup cell.
void BM_GroundDistanceMatrix(benchmark::State& state) {
  const auto vectors = static_cast<size_t>(state.range(0));
  const auto threads = static_cast<size_t>(state.range(1));
  const auto dim = static_cast<size_t>(state.range(2));
  const auto data = MakePair(vectors, dim);
  vz::core::OmdOptions options;
  options.max_vectors = vectors;
  vz::core::OmdCalculator calc(options);
  std::unique_ptr<vz::ThreadPool> pool;
  if (threads > 1) {
    pool = std::make_unique<vz::ThreadPool>(threads);
    calc.set_thread_pool(pool.get());
  }
  for (auto _ : state) {
    auto matrix = calc.ComputeGroundMatrix(data.svss[0], data.svss[1]);
    benchmark::DoNotOptimize(matrix);
  }
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["dim"] = static_cast<double>(dim);
  state.counters["cells"] = static_cast<double>(vectors * vectors);
  state.counters["simd"] = vz::simd::Avx2Active() ? 1.0 : 0.0;
}
BENCHMARK(BM_GroundDistanceMatrix)
    ->ArgsProduct({{64, 128, 256}, {1, 2, 4}, {128, 512}});

// Full thresholded OMD (matrix fill + solver) across the same threads axis;
// the solver stays serial, so this shows the end-to-end Amdahl picture.
void BM_ThresholdedOmdThreads(benchmark::State& state) {
  const auto vectors = static_cast<size_t>(state.range(0));
  const auto threads = static_cast<size_t>(state.range(1));
  const auto data = MakePair(vectors);
  vz::core::OmdOptions options;
  options.mode = vz::core::OmdMode::kThresholded;
  options.threshold_alpha = 0.6;
  options.max_vectors = vectors;
  vz::core::OmdCalculator calc(options);
  std::unique_ptr<vz::ThreadPool> pool;
  if (threads > 1) {
    pool = std::make_unique<vz::ThreadPool>(threads);
    calc.set_thread_pool(pool.get());
  }
  for (auto _ : state) {
    auto d = calc.Distance(data.svss[0], data.svss[1]);
    benchmark::DoNotOptimize(d);
  }
  state.counters["threads"] = static_cast<double>(threads);
}
BENCHMARK(BM_ThresholdedOmdThreads)->ArgsProduct({{128, 256}, {1, 2, 4}});

void BM_OcdLowerBound(benchmark::State& state) {
  const auto data = MakePair(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    const double d =
        vz::ObjectCentroidDistance(data.svss[0], data.svss[1]);
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_OcdLowerBound)->Arg(64)->Arg(128);

// The int8 shadow tier (Args: {vectors per side, dim}): an n*m pass over
// quantized codes that must stay orders of magnitude below the float
// ground-matrix fill it short-circuits.
void BM_QuantizedLowerBound(benchmark::State& state) {
  const auto vectors = static_cast<size_t>(state.range(0));
  const auto dim = static_cast<size_t>(state.range(1));
  const auto data = MakePair(vectors, dim);
  vz::core::OmdOptions options;
  options.max_vectors = vectors;
  for (auto _ : state) {
    const double d = vz::core::QuantizedOmdLowerBound(data.svss[0],
                                                      data.svss[1], options);
    benchmark::DoNotOptimize(d);
  }
  state.counters["dim"] = static_cast<double>(dim);
  state.counters["simd"] = vz::simd::Avx2Active() ? 1.0 : 0.0;
}
BENCHMARK(BM_QuantizedLowerBound)->ArgsProduct({{64, 128, 256}, {128, 512}});

// What one SVS's representative is fitted to: `points` 48-d vectors (the
// benchmark world's dimension) in four modes, four SVSs of four types.
vz::sim::SyntheticDataset MakeModes(size_t points) {
  vz::sim::SyntheticDatasetOptions options;
  options.num_svs = 4;
  options.vectors_per_svs = points / 4;
  options.dim = 48;
  options.num_types = 4;
  options.seed = 73;
  return vz::sim::MakeSyntheticDataset(options);
}

// The silhouette sweep of Sec. 3.3 as representatives run it: k-means fits
// for k = 2..12 over one point tile, then one scoring pass (Args: {points}).
// The `simd` counter records whether the AVX2 kernel table is active.
void BM_ChooseKBySilhouette(benchmark::State& state) {
  const auto data = MakeModes(static_cast<size_t>(state.range(0)));
  std::vector<vz::FeatureVector> points;
  for (const vz::FeatureMap& map : data.svss) {
    for (size_t i = 0; i < map.size(); ++i) points.push_back(map.vector(i));
  }
  const vz::core::RepresentativeOptions options;
  for (auto _ : state) {
    vz::Rng rng(5);
    auto sweep = vz::clustering::ChooseKBySilhouette(points, options.min_k,
                                                     options.max_k, &rng);
    benchmark::DoNotOptimize(sweep);
  }
  state.counters["points"] = static_cast<double>(points.size());
  state.counters["simd"] = vz::simd::Avx2Active() ? 1.0 : 0.0;
}
BENCHMARK(BM_ChooseKBySilhouette)
    ->Arg(64)->Arg(256)->Arg(512)->Unit(benchmark::kMicrosecond);

// One SVS representative end to end: the sweep, the final weighted fit and
// the boundaries (Args: {points}).
void BM_BuildRepresentative(benchmark::State& state) {
  const auto data = MakeModes(static_cast<size_t>(state.range(0)));
  std::vector<const vz::FeatureMap*> maps;
  size_t points = 0;
  for (const vz::FeatureMap& map : data.svss) {
    maps.push_back(&map);
    points += map.size();
  }
  const vz::core::RepresentativeOptions options;
  for (auto _ : state) {
    vz::Rng rng(5);
    auto rep = vz::core::BuildRepresentative(maps, options, &rng);
    benchmark::DoNotOptimize(rep);
  }
  state.counters["points"] = static_cast<double>(points);
  state.counters["simd"] = vz::simd::Avx2Active() ? 1.0 : 0.0;
}
BENCHMARK(BM_BuildRepresentative)
    ->Arg(64)->Arg(256)->Arg(512)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
