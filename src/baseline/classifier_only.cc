#include "baseline/classifier_only.h"

namespace vz::baseline {

void ClassifierOnlyBaseline::IngestFrame(const core::FrameObservation& frame) {
  frames_.push_back(frame.frame_id);
}

}  // namespace vz::baseline
