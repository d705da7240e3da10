#ifndef VZ_SIM_VERIFIER_H_
#define VZ_SIM_VERIFIER_H_

#include <atomic>
#include <cstdint>

#include "core/query.h"
#include "sim/feature_space.h"
#include "sim/ground_truth.h"

namespace vz::sim {

/// Simulated GPU cost model (replaces the RTX 2070/2080Ti of Sec. 7).
/// Figs. 15-17 compare *how many frames* each indexing scheme pushes through
/// the heavy ground-truth CNN; these constants convert frame counts into the
/// paper's GPU-time axis.
struct GpuCostModel {
  /// Heavy (ground-truth, YOLO-v2-class) model per frame.
  double heavy_ms_per_frame = 35.0;
  /// Cheap ingestion model per object.
  double cheap_ms_per_object = 0.4;
};

/// The heavy "ground truth" CNN (YOLO-v2 in Sec. 7.4): highly accurate but
/// not perfect, which is where every scheme's residual FPR/FNR comes from
/// (Fig. 19's "classifier only" series is this model run over everything).
///
/// Verdicts are a deterministic hash of (frame, class, seed), so every
/// indexing scheme that examines the same frame sees the same verdict —
/// exactly as one physical CNN would behave.
class HeavyModel {
 public:
  explicit HeavyModel(double true_positive_rate = 0.97,
                      double false_positive_rate = 0.05, uint64_t seed = 31);

  /// Would the heavy model report `object_class` in this frame?
  bool DetectsInFrame(int64_t frame_id, int object_class,
                      bool truly_present) const;

  double true_positive_rate() const { return tpr_; }
  double false_positive_rate() const { return fpr_; }

 private:
  double tpr_;
  double fpr_;
  uint64_t seed_;
};

/// The heavy-model verification stage of a direct query: resolves the query
/// feature to its intended class (nearest prototype), runs the heavy model
/// over the SVS's frames, and charges GPU time per frame processed.
class SimObjectVerifier : public core::ObjectVerifier {
 public:
  /// All pointers must outlive the verifier.
  SimObjectVerifier(const FeatureSpace* space, const GroundTruthLog* log,
                    const HeavyModel* model,
                    const GpuCostModel& cost = GpuCostModel());

  /// Thread-safe: verdicts are pure functions of (frame, class, seed) and
  /// the cumulative GPU counter is atomic, so concurrent calls from the
  /// parallel query path are safe and per-call results are unaffected.
  Verification Verify(const core::Svs& svs,
                      const FeatureVector& query_feature) override;

  /// Total GPU milliseconds charged so far across all verifications. Under
  /// concurrent verification the accumulation order (and hence the last
  /// floating-point bits) may vary; per-query totals reported by
  /// `DirectQueryResult` are aggregated deterministically instead.
  double total_gpu_ms() const {
    return total_gpu_ms_.load(std::memory_order_relaxed);
  }

 private:
  const FeatureSpace* space_;
  const GroundTruthLog* log_;
  const HeavyModel* model_;
  GpuCostModel cost_;
  std::atomic<double> total_gpu_ms_{0.0};
};

}  // namespace vz::sim

#endif  // VZ_SIM_VERIFIER_H_
