#ifndef VZ_PERFBENCH_LOADGEN_TRACED_H_
#define VZ_PERFBENCH_LOADGEN_TRACED_H_

// Per-layer measurements of the traced run. Each one times calls into one
// module's public functions from here — no code under src/ is instrumented —
// over the run's own inputs: its query features, its clustering targets, the
// feed it streams.

#include <memory>
#include <string>
#include <vector>

#include "core/videozilla.h"
#include "loadgen/common.h"
#include "loadgen/world.h"

namespace vzb {

/// An in-process replay of the feed in timestamp order through
/// `VideoZilla::IngestFrame` + `Flush` on a fresh system. It is the oracle of
/// ingest_live (which frame finalizes which SVS, and what each SVS looks
/// like) and the source of the `core` ingest-path layer metrics.
struct IngestReplay {
  std::unique_ptr<vz::core::VideoZilla> system;
  /// Per frame of `World::frames_by_time()`: IngestFrame wall time and
  /// whether it finalized at least one SVS.
  std::vector<double> frame_us;
  std::vector<bool> frame_emitted;
  /// OMD solves spent by each segment-finalizing frame (and by Flush).
  std::vector<double> emit_solves;
  /// SVS id -> index of the frame whose ingest finalized it, or -1 when
  /// `Flush` did.
  std::vector<int64_t> emitted_by;
  double flush_ms = 0.0;
  uint64_t flush_solves = 0;
};

/// Runs the replay; false (with `error`) if any call fails.
bool ReplayIngest(World* world, IngestReplay* replay, std::string* error);

/// The `core` ingest-path metrics of a replay.
void IngestLayerMetrics(const IngestReplay& replay, MetricSet* out);

/// `core` query-path metrics: in-process DirectQuery / ClusteringQuery
/// replays of the run's inputs over `systems` (one per shard).
void QueryLayerMetrics(const std::vector<vz::core::VideoZilla*>& systems,
                       const std::vector<vz::FeatureVector>& direct_features,
                       const std::vector<vz::core::SvsId>& clustering_targets,
                       MetricSet* out);

/// `vector` and `solver` metrics: ground matrix and OMD solve over the pairs
/// (target, every other stored SVS), and Euclidean rows scanned per query
/// feature over the stored feature maps.
void KernelLayerMetrics(vz::core::VideoZilla* system,
                        const std::vector<vz::core::SvsId>& pair_targets,
                        const std::vector<vz::FeatureVector>& features,
                        MetricSet* out);

/// `index` metrics: the system's SVSs replayed into fresh per-camera
/// `IntraCameraIndex`es and one `InterCameraIndex`.
void IndexLayerMetrics(const vz::core::VideoZilla& system, MetricSet* out);

/// `io` metrics: `Wal::Append` + `WaitDurable` with the feed's encoded frame
/// sizes and the serving default 2 ms group-commit interval, in `dir`.
void WalLayerMetrics(World* world, const std::string& dir, MetricSet* out);

/// `net` subscription metric: `SubscriptionEngine::OnSegment` with
/// ingest_live's 64 standing queries over the system's SVSs.
void SubscriptionLayerMetrics(const vz::core::VideoZilla& system,
                              const std::vector<vz::FeatureVector>& pool,
                              MetricSet* out);

/// The 64 standing queries of ingest_live: 32 that match every non-empty
/// segment and 32 that match none.
struct SubscribeSpec {
  vz::FeatureVector query;
  double threshold = 0.0;
  bool match_all = false;
};
std::vector<SubscribeSpec> StandingQueries(
    const std::vector<vz::FeatureVector>& pool);

}  // namespace vzb

#endif  // VZ_PERFBENCH_LOADGEN_TRACED_H_
