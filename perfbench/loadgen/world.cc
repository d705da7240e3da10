#include "loadgen/world.h"

#include <algorithm>
#include <numeric>
#include <set>
#include <stdexcept>

#include "bench/bench_util.h"
#include "sim/object_class.h"

namespace vzb {

vz::sim::DeploymentOptions WorldDeploymentOptions() {
  vz::sim::DeploymentOptions options = vz::bench::BenchDeploymentOptions();
  options.cities = 1;
  options.downtown_per_city = 3;
  options.highway_cameras = 3;
  options.train_stations = 1;
  options.harbors = 1;
  options.feed_duration_ms = 4LL * 60 * 1000;
  return options;
}

vz::core::VideoZillaOptions WorldSystemOptions() {
  return vz::bench::BenchVzOptions();
}

World::World()
    : deployment_(
          std::make_unique<vz::sim::Deployment>(WorldDeploymentOptions())),
      heavy_(0.97, 0.05, 31) {
  verifier_ = std::make_unique<vz::sim::SimObjectVerifier>(
      &deployment_->space(), &deployment_->log(), &heavy_);
  frames_by_time_ = deployment_->observations();
  std::vector<vz::core::CameraId> order = cameras();
  auto rank = [&order](const vz::core::CameraId& camera) {
    return std::find(order.begin(), order.end(), camera) - order.begin();
  };
  std::stable_sort(frames_by_time_.begin(), frames_by_time_.end(),
                   [&rank](const vz::core::FrameObservation& a,
                           const vz::core::FrameObservation& b) {
                     if (a.timestamp_ms != b.timestamp_ms) {
                       return a.timestamp_ms < b.timestamp_ms;
                     }
                     return rank(a.camera) < rank(b.camera);
                   });
}

std::unique_ptr<vz::core::VideoZilla> World::NewSystem() const {
  auto system = std::make_unique<vz::core::VideoZilla>(WorldSystemOptions());
  system->SetVerifier(verifier_.get());
  return system;
}

std::vector<vz::core::CameraId> World::cameras() const {
  std::vector<vz::core::CameraId> ids;
  for (const auto& info : deployment_->cameras()) ids.push_back(info.camera);
  return ids;
}

std::vector<vz::FeatureVector> MakeFeaturePool(World* world, vz::Rng* rng,
                                               size_t n) {
  const std::vector<int> classes = vz::bench::PaperQueryClasses();
  std::vector<vz::FeatureVector> pool;
  pool.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const int cls = classes[rng->UniformUint64(classes.size())];
    pool.push_back(world->deployment().MakeQueryFeature(cls, rng));
  }
  return pool;
}

namespace {

// Share of `inputs` that equal an earlier element.
double RepeatShare(const std::vector<uint32_t>& inputs) {
  if (inputs.empty()) return 0.0;
  std::set<uint32_t> seen;
  size_t repeats = 0;
  for (uint32_t v : inputs) {
    if (!seen.insert(v).second) ++repeats;
  }
  return static_cast<double>(repeats) / static_cast<double>(inputs.size());
}

// Permutation of 0..n-1 drawn from `rng`: which pool entry / SVS is the
// popular one.
std::vector<uint32_t> Permutation(vz::Rng* rng, size_t n) {
  std::vector<uint32_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0u);
  for (size_t i = n; i > 1; --i) {
    std::swap(perm[i - 1], perm[rng->UniformUint64(i)]);
  }
  return perm;
}

}  // namespace

Inputs MakeInputs(const std::string& workload, uint64_t seed, double seconds,
                  World* world, size_t num_svs) {
  Inputs in;
  vz::Rng rng(seed * 0x9E3779B97F4A7C15ull + 0x5eed);
  std::vector<uint32_t> direct_inputs;
  std::vector<uint32_t> clustering_inputs;

  if (workload == "query_mix" || workload == "ingest_live") {
    // The pool and which entries are popular belong to the workload and are
    // the same for every seed: a seed changes when requests arrive and which
    // are drawn, not how costly the popular ones are.
    constexpr size_t kPool = 256;
    vz::Rng pool_rng(0x9001);
    in.features = MakeFeaturePool(world, &pool_rng, kPool);
    const Zipf feature_zipf(kPool, 1.0);
    const std::vector<uint32_t> feature_rank = Permutation(&pool_rng, kPool);
    const bool mix = workload == "query_mix";
    const Zipf svs_zipf(std::max<size_t>(1, num_svs), 1.0);
    const std::vector<uint32_t> svs_rank =
        Permutation(&pool_rng, std::max<size_t>(1, num_svs));
    // query_mix: 200 req/s, 20% clustering on connection 0, direct queries
    // spread over connections 1-3. ingest_live: the reader connection only.
    const double rate = mix ? 200.0 : kIngestLiveDirectRate;
    uint32_t next_direct_conn = 0;
    for (double t : PoissonTimes(&rng, rate, seconds)) {
      Arrival a;
      a.due_s = t;
      if (mix && rng.UniformDouble() < 0.2) {
        a.kind = kClustering;
        a.conn = 0;
        a.input = svs_rank[svs_zipf.Draw(&rng)];
        clustering_inputs.push_back(a.input);
      } else {
        a.kind = kDirect;
        a.conn = mix ? 1 + (next_direct_conn++ % 3) : 0;
        a.input = feature_rank[feature_zipf.Draw(&rng)];
        direct_inputs.push_back(a.input);
      }
      in.arrivals.push_back(a);
    }
  } else if (workload == "sharded_fanout") {
    // 400 req/s over 4 connections, a fresh feature per request.
    const std::vector<int> classes = vz::bench::PaperQueryClasses();
    for (double t : PoissonTimes(&rng, 400.0, seconds)) {
      Arrival a;
      a.due_s = t;
      a.kind = kDirect;
      a.conn = static_cast<uint32_t>(rng.UniformUint64(4));
      a.input = static_cast<uint32_t>(in.features.size());
      const int cls = classes[rng.UniformUint64(classes.size())];
      in.features.push_back(world->deployment().MakeQueryFeature(cls, &rng));
      direct_inputs.push_back(a.input);
      in.arrivals.push_back(a);
    }
  } else {
    throw std::invalid_argument("unknown workload: " + workload);
  }

  in.direct_repeat_share = RepeatShare(direct_inputs);
  in.clustering_repeat_share = RepeatShare(clustering_inputs);
  for (const Arrival& a : in.arrivals) {
    in.digest.AddValue(a.due_s);
    in.digest.AddValue(a.conn);
    in.digest.AddValue(a.kind);
    in.digest.AddValue(a.input);
  }
  for (const vz::FeatureVector& f : in.features) {
    in.digest.Add(f.data(), f.dim() * sizeof(float));
  }
  if (workload == "ingest_live") {
    for (const vz::core::FrameObservation& frame : world->frames_by_time()) {
      in.digest.Add(frame.camera.data(), frame.camera.size());
      in.digest.AddValue(frame.timestamp_ms);
      in.digest.AddValue(frame.frame_id);
    }
  }
  return in;
}

}  // namespace vzb
