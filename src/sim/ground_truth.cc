#include "sim/ground_truth.h"

#include <algorithm>

namespace vz::sim {

void GroundTruthLog::Record(int64_t frame_id, FrameTruth truth) {
  frames_[frame_id] = std::move(truth);
}

const FrameTruth* GroundTruthLog::Lookup(int64_t frame_id) const {
  auto it = frames_.find(frame_id);
  return it == frames_.end() ? nullptr : &it->second;
}

bool GroundTruthLog::FrameContains(int64_t frame_id, int object_class) const {
  const FrameTruth* truth = Lookup(frame_id);
  if (truth == nullptr) return false;
  return std::find(truth->object_classes.begin(), truth->object_classes.end(),
                   object_class) != truth->object_classes.end();
}

bool GroundTruthLog::SvsContains(const core::Svs& svs,
                                 int object_class) const {
  for (int64_t frame_id : svs.frame_ids()) {
    if (FrameContains(frame_id, object_class)) return true;
  }
  return false;
}

std::vector<core::SvsId> GroundTruthLog::TrueSvsSet(
    const core::SvsStore& store, int object_class,
    const core::QueryConstraints& constraints) const {
  std::vector<core::SvsId> result;
  for (core::SvsId id : store.AllIds()) {
    auto svs = store.Get(id);
    if (!svs.ok()) continue;
    if (!constraints.AllowsCamera((*svs)->camera())) continue;
    if (!constraints.AllowsTime((*svs)->start_ms(), (*svs)->end_ms())) {
      continue;
    }
    if (SvsContains(**svs, object_class)) result.push_back(id);
  }
  return result;
}

}  // namespace vz::sim
