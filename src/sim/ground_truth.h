#ifndef VZ_SIM_GROUND_TRUTH_H_
#define VZ_SIM_GROUND_TRUTH_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/query.h"
#include "core/svs.h"

namespace vz::sim {

/// Ground-truth record of one generated frame.
struct FrameTruth {
  core::CameraId camera;
  int64_t timestamp_ms = 0;
  std::vector<int> object_classes;
};

/// The simulation oracle: which objects were truly present in every
/// generated frame. Stands in for the authors' exhaustive ground-truth CNN
/// pass (Sec. 5.3, Sec. 7.4) — the evaluation's FPR/FNR and the monitor's
/// periodic checks are computed against this.
class GroundTruthLog {
 public:
  GroundTruthLog() = default;

  /// Registers a generated frame.
  void Record(int64_t frame_id, FrameTruth truth);

  /// Truth of a frame, or nullptr when unknown.
  const FrameTruth* Lookup(int64_t frame_id) const;

  /// Does the frame truly contain an object of `object_class`?
  bool FrameContains(int64_t frame_id, int object_class) const;

  /// Does any of the SVS's frames truly contain `object_class`?
  bool SvsContains(const core::Svs& svs, int object_class) const;

  /// All SVS ids in `store` that truly contain `object_class`, subject to
  /// the constraints. This is the reference set for precision/recall.
  std::vector<core::SvsId> TrueSvsSet(
      const core::SvsStore& store, int object_class,
      const core::QueryConstraints& constraints =
          core::QueryConstraints()) const;

  size_t size() const { return frames_.size(); }

 private:
  std::unordered_map<int64_t, FrameTruth> frames_;
};

}  // namespace vz::sim

#endif  // VZ_SIM_GROUND_TRUTH_H_
