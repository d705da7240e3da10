#ifndef VZ_BASELINE_CLASSIFIER_ONLY_H_
#define VZ_BASELINE_CLASSIFIER_ONLY_H_

#include <cstdint>
#include <vector>

#include "core/frame.h"

namespace vz::baseline {

/// The no-index baseline of Fig. 19 ("classifier-only"): every query runs
/// the heavy model over every frame of every allowed camera. Its recall is
/// the ceiling every scheme is measured against; its GPU cost is the floor
/// pruning is measured against.
class ClassifierOnlyBaseline {
 public:
  ClassifierOnlyBaseline() = default;

  /// Records one ingested frame.
  void IngestFrame(const core::FrameObservation& frame);

  /// Every frame (the examined set of a classifier-only query).
  const std::vector<int64_t>& AllFrames() const { return frames_; }

  size_t num_frames() const { return frames_.size(); }

 private:
  std::vector<int64_t> frames_;
};

}  // namespace vz::baseline

#endif  // VZ_BASELINE_CLASSIFIER_ONLY_H_
