#ifndef VZ_CORE_SVS_H_
#define VZ_CORE_SVS_H_

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "common/statusor.h"
#include "core/frame.h"
#include "core/representative.h"
#include "vector/feature_map.h"

namespace vz::core {

/// Metadata returned by `getMetaData(SVS)` (Sec. 6): timestamps, source
/// camera, and access statistics for archival decisions.
struct SvsMetadata {
  SvsId id = -1;
  CameraId camera;
  int64_t start_ms = 0;
  int64_t end_ms = 0;
  size_t num_frames = 0;
  size_t encoded_bytes = 0;
  uint64_t access_count = 0;
  int64_t last_access_ms = -1;
  /// Accesses per simulated hour of existence since creation; 0 if unknown.
  double access_frequency = 0.0;
};

/// A semantic video stream: a contiguous block of frames of one camera,
/// characterized by the feature map of its objects (Sec. 3.1).
class Svs {
 public:
  Svs(SvsId id, CameraId camera, int64_t start_ms, int64_t end_ms,
      FeatureMap features)
      : id_(id),
        camera_(std::move(camera)),
        start_ms_(start_ms),
        end_ms_(end_ms),
        features_(std::move(features)),
        centroid_(features_.Centroid()) {}

  SvsId id() const { return id_; }
  const CameraId& camera() const { return camera_; }
  int64_t start_ms() const { return start_ms_; }
  int64_t end_ms() const { return end_ms_; }
  int64_t DurationMs() const { return end_ms_ - start_ms_; }

  /// The feature map (all object feature vectors with uniform weights).
  const FeatureMap& features() const { return features_; }

  /// Weighted centroid of `features()`, the basis of the OCD bound
  /// (Sec. 4.3); computed once at creation.
  const FeatureVector& centroid() const { return centroid_; }

  /// Per-SVS representative (weighted k-means centers, Sec. 3.3), built once
  /// at creation and used for query-hit tests.
  const Representative& representative() const { return representative_; }
  void set_representative(Representative rep) {
    representative_ = std::move(rep);
  }

  /// Frames covered by this SVS, for the verification stage of queries.
  const std::vector<int64_t>& frame_ids() const { return frame_ids_; }
  void set_frame_ids(std::vector<int64_t> ids) { frame_ids_ = std::move(ids); }

  size_t encoded_bytes() const { return encoded_bytes_; }
  void set_encoded_bytes(size_t bytes) { encoded_bytes_ = bytes; }

  uint64_t access_count() const { return access_count_; }
  int64_t last_access_ms() const { return last_access_ms_; }

  /// Registers a query access at the given simulated time.
  void RecordAccess(int64_t now_ms) {
    ++access_count_;
    if (now_ms > last_access_ms_) last_access_ms_ = now_ms;
  }

  /// Restores persisted access statistics (snapshot loading only).
  void RestoreAccessStats(uint64_t count, int64_t last_access_ms) {
    access_count_ = count;
    last_access_ms_ = last_access_ms;
  }

  /// Snapshot of the metadata at simulated time `now_ms`.
  SvsMetadata Metadata(int64_t now_ms) const;

 private:
  SvsId id_;
  CameraId camera_;
  int64_t start_ms_;
  int64_t end_ms_;
  FeatureMap features_;
  FeatureVector centroid_;
  Representative representative_;
  std::vector<int64_t> frame_ids_;
  size_t encoded_bytes_ = 0;
  uint64_t access_count_ = 0;
  int64_t last_access_ms_ = -1;
};

/// Owning store of all SVSs known to the indexing layer. Ids are dense and
/// monotonically increasing; SVSs are immutable apart from representatives
/// and access statistics. A pointer from `Get` stays valid until `Clear`.
class SvsStore {
 public:
  SvsStore() = default;

  SvsStore(const SvsStore&) = delete;
  SvsStore& operator=(const SvsStore&) = delete;

  /// Creates and stores a new SVS, returning its id.
  SvsId Create(CameraId camera, int64_t start_ms, int64_t end_ms,
               FeatureMap features);

  /// Lookup; errors for unknown ids.
  StatusOr<const Svs*> Get(SvsId id) const;
  StatusOr<Svs*> GetMutable(SvsId id);

  size_t size() const { return svss_.size(); }

  /// Drops every stored SVS and restarts id numbering at 0 — the standby
  /// re-seed path, which replaces the whole store with a fetched checkpoint.
  void Clear() {
    svss_.clear();
    by_camera_.clear();
  }

  /// All ids in creation order.
  std::vector<SvsId> AllIds() const;

  /// Ids belonging to `camera`, in creation order.
  std::vector<SvsId> IdsForCamera(const CameraId& camera) const;

 private:
  std::deque<Svs> svss_;  // index == id; growth never moves an SVS
  std::unordered_map<CameraId, std::vector<SvsId>> by_camera_;
};

}  // namespace vz::core

#endif  // VZ_CORE_SVS_H_
