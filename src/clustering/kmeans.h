#ifndef VZ_CLUSTERING_KMEANS_H_
#define VZ_CLUSTERING_KMEANS_H_

#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "common/statusor.h"
#include "vector/feature_vector.h"
#include "vector/point_tile.h"

namespace vz::clustering {

/// Parameters for Lloyd's algorithm with k-means++ seeding.
struct KMeansOptions {
  /// Number of clusters. Clamped to the number of points.
  size_t k = 2;
  /// Maximum Lloyd iterations.
  size_t max_iterations = 50;
  /// Convergence threshold on total centroid movement.
  double tolerance = 1e-6;
  /// Independent k-means++ restarts; the run with the lowest inertia wins.
  /// Restarts protect decision boundaries from the fat merged clusters a
  /// single unlucky seeding produces.
  size_t restarts = 2;
};

/// Result of a k-means run.
struct KMeansResult {
  /// Cluster centers, `k` of them (possibly fewer if points < k).
  std::vector<FeatureVector> centroids;
  /// Cluster index per input point.
  std::vector<size_t> assignments;
  /// Number of members per cluster.
  std::vector<size_t> cluster_sizes;
  /// Sum of squared distances of points to their assigned centroid.
  double inertia = 0.0;
};

/// Runs weighted k-means++ / Lloyd over `points`.
///
/// `weights` may be empty (uniform) or one non-negative weight per point.
/// Deterministic given `rng`'s state. Errors on empty input, points of
/// different dimensions or mismatched weights.
///
/// Lloyd stops when the total centroid movement is within `tolerance`, when
/// `max_iterations` passes have run, or when an assignment pass after the
/// first changes no assignment: the update would then rebuild the same
/// centroids bit for bit, so every later pass would repeat this one.
StatusOr<KMeansResult> KMeans(const std::vector<FeatureVector>& points,
                              const std::vector<double>& weights,
                              const KMeansOptions& options, Rng* rng);

/// As above, over `tile` = `PointTile::FromPoints(points)`: callers fitting
/// one point set many times transpose it once.
StatusOr<KMeansResult> KMeans(const std::vector<FeatureVector>& points,
                              const PointTile& tile,
                              const std::vector<double>& weights,
                              const KMeansOptions& options, Rng* rng);

/// Unweighted convenience overload.
StatusOr<KMeansResult> KMeans(const std::vector<FeatureVector>& points,
                              const KMeansOptions& options, Rng* rng);

}  // namespace vz::clustering

#endif  // VZ_CLUSTERING_KMEANS_H_
