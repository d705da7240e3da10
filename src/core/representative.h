#ifndef VZ_CORE_REPRESENTATIVE_H_
#define VZ_CORE_REPRESENTATIVE_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/statusor.h"
#include "vector/feature_map.h"
#include "vector/feature_vector.h"

namespace vz::core {

/// One weighted cluster center of a representative SVS with its decision
/// boundary (Sec. 3.3: "we record the boundary for each weighted center. The
/// boundary is defined by the distances between the farthest data points in
/// all directions and the cluster center").
struct WeightedCenter {
  FeatureVector center;
  /// Fraction of member vectors assigned to this center (sums to ~1).
  double weight = 0.0;
  /// Hit radius: max distance of a member vector to the center.
  double boundary = 0.0;
  /// Mean distance of member vectors to the center; the per-center
  /// component of d_r in Algorithm 3.
  double mean_member_distance = 0.0;
  /// Simulated timestamp of the last feature that hit this center; used by
  /// the t_split rule of Algorithm 3. -1 when never hit.
  int64_t last_hit_ms = -1;
};

/// A representative SVS: the k weighted centroids summarizing an SVS or a
/// cluster of SVSs (Sec. 3.3), plus the query-hit machinery of the paper.
class Representative {
 public:
  Representative() = default;

  explicit Representative(std::vector<WeightedCenter> centers)
      : centers_(std::move(centers)) {}

  const std::vector<WeightedCenter>& centers() const { return centers_; }
  std::vector<WeightedCenter>& mutable_centers() { return centers_; }

  bool empty() const { return centers_.empty(); }
  size_t size() const { return centers_.size(); }

  /// The representative viewed as a weighted feature map, for OMD
  /// comparisons against other SVSs/representatives.
  FeatureMap AsFeatureMap() const;

  /// Index of the first center whose boundary contains `feature`
  /// (optionally scaled by `boundary_scale`), or -1 on a miss. This is the
  /// "query hit" test of Sec. 3.3; widening the boundary trades FNR for FPR
  /// (Sec. 7.4).
  int HitCenter(const FeatureVector& feature,
                double boundary_scale = 1.0) const;

  /// Convenience wrapper over `HitCenter`.
  bool Hit(const FeatureVector& feature, double boundary_scale = 1.0) const {
    return HitCenter(feature, boundary_scale) >= 0;
  }

  /// Records that `feature` (arriving at `timestamp_ms`) hit a center, for
  /// Algorithm 3's stale-center rule. Returns the hit center or -1.
  int RecordHit(const FeatureVector& feature, int64_t timestamp_ms,
                double boundary_scale = 1.0);

  /// Weighted mean of the centers' mean member distances — d_r of
  /// Algorithm 3 ("SVSTree.avgRepDist()").
  double AverageMemberDistance() const;

  /// The largest (now - last_hit) over centers that were hit at least once;
  /// 0 if no center was ever hit ("SVSTree.maxLastHitTime()").
  int64_t MaxTimeSinceHitMs(int64_t now_ms) const;

 private:
  std::vector<WeightedCenter> centers_;
};

/// Options for representative construction.
struct RepresentativeOptions {
  /// Candidate k range for the silhouette sweep (Sec. 3.3). The upper end
  /// should exceed the number of distinct object classes a scene can carry,
  /// or k-means merges classes into one fat ball and the decision boundary
  /// loses its selectivity.
  size_t min_k = 2;
  size_t max_k = 12;
  /// Vectors are subsampled to at most this many before clustering, to keep
  /// per-SVS construction cost bounded on long streams.
  size_t max_vectors = 512;
  /// Minimum best silhouette required to accept the swept k; below this the
  /// data is treated as unimodal (k = 1).
  double min_silhouette = 0.4;
  /// Quantile of member-to-center distances used as the decision boundary.
  /// 1.0 is the paper's "farthest data point"; the default 0.9 keeps one
  /// heavy-tailed outlier (a hard example in CNN feature space) from
  /// inflating the ball until it swallows neighboring classes.
  double boundary_quantile = 0.9;
};

/// Builds a representative from the union of the given feature maps, using
/// k-means with silhouette-selected k. Weights of the inputs are respected.
/// Errors when all maps are empty.
StatusOr<Representative> BuildRepresentative(
    const std::vector<const FeatureMap*>& maps,
    const RepresentativeOptions& options, Rng* rng);

/// Single-map convenience overload.
StatusOr<Representative> BuildRepresentative(
    const FeatureMap& map, const RepresentativeOptions& options, Rng* rng);

/// Builds a second-level representative over existing representatives (an
/// intra-camera cluster's summary over its SVSs' representatives). Centers
/// are clustered as points, but each boundary is a *covering radius*: the
/// member-center distance plus that member's own boundary, so that any
/// feature hitting a member representative also hits the summary
/// (M-tree-style covering, required for hierarchy-level pruning to be
/// lossless).
StatusOr<Representative> BuildCoveringRepresentative(
    const std::vector<const Representative*>& members,
    const RepresentativeOptions& options, Rng* rng);

}  // namespace vz::core

#endif  // VZ_CORE_REPRESENTATIVE_H_
