#ifndef VZ_PERFBENCH_LOADGEN_WORLD_H_
#define VZ_PERFBENCH_LOADGEN_WORLD_H_

// The simulated world every workload shares, and the seeded inputs each
// workload derives from `--seed`. The system under test only ever sees these
// generated inputs (frames, query features, SVS ids) — never the seed.

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/frame.h"
#include "core/videozilla.h"
#include "loadgen/common.h"
#include "sim/dataset.h"
#include "sim/verifier.h"
#include "vector/feature_vector.h"

namespace vzb {

/// 8 cameras at 0.5 fps with 48-d features, built from the repository's
/// bench-scale deployment (`bench::BenchDeploymentOptions`) with one city of
/// three downtown cameras, three highway cameras, one train station and one
/// harbor. Feeds are 4 minutes long (960 frames): see README.md, "World
/// size", for why not the 8 minutes of the figure benches.
vz::sim::DeploymentOptions WorldDeploymentOptions();
/// `bench::BenchVzOptions()`, the configuration EXPERIMENTS.md reports.
vz::core::VideoZillaOptions WorldSystemOptions();

/// The deployment plus the simulated heavy-model verifier that direct
/// queries consult. One per run; systems built from it share the verifier.
class World {
 public:
  World();

  vz::sim::Deployment& deployment() { return *deployment_; }
  /// A fresh, empty system with the verifier installed.
  std::unique_ptr<vz::core::VideoZilla> NewSystem() const;
  /// Every frame of the feed, ordered by timestamp (ties in camera order):
  /// the order a live fleet delivers them in.
  const std::vector<vz::core::FrameObservation>& frames_by_time() const {
    return frames_by_time_;
  }
  std::vector<vz::core::CameraId> cameras() const;

 private:
  std::unique_ptr<vz::sim::Deployment> deployment_;
  vz::sim::HeavyModel heavy_;
  std::unique_ptr<vz::sim::SimObjectVerifier> verifier_;
  std::vector<vz::core::FrameObservation> frames_by_time_;
};

/// Direct-query rate of ingest_live's reader connection, per second. Reads
/// run only while frames stream (about 80% of a round), so this rate puts
/// more than 1,000 samples under the p99 of a 30-second run.
inline constexpr double kIngestLiveDirectRate = 80.0;

/// Operation kinds of a schedule.
enum OpKind : uint32_t { kDirect = 0, kClustering = 1 };

/// Everything a workload run derives from its seed.
struct Inputs {
  /// Open-loop arrivals of the measured phase, ordered by due time.
  std::vector<Arrival> arrivals;
  /// Query features: the Zipf-drawn pool (query_mix, ingest_live) or one
  /// fresh feature per request (sharded_fanout). `Arrival::input` of a
  /// direct query indexes this.
  std::vector<vz::FeatureVector> features;
  /// Share of direct requests whose feature repeats an earlier request's,
  /// and of clustering requests whose target repeats.
  double direct_repeat_share = 0.0;
  double clustering_repeat_share = 0.0;
  /// Schedule digest (arrivals, kinds, inputs, frame order).
  Digest digest;
};

/// Feature pool of `n` query features for boat / train / fire-hydrant
/// images, cycling classes in a seeded order.
std::vector<vz::FeatureVector> MakeFeaturePool(World* world, vz::Rng* rng,
                                               size_t n);

/// Seeded inputs of one workload phase of `seconds`. `num_svs` is the
/// stored-SVS count clustering targets are drawn from (query_mix).
Inputs MakeInputs(const std::string& workload, uint64_t seed, double seconds,
                  World* world, size_t num_svs);

}  // namespace vzb

#endif  // VZ_PERFBENCH_LOADGEN_WORLD_H_
