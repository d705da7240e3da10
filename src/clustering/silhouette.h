#ifndef VZ_CLUSTERING_SILHOUETTE_H_
#define VZ_CLUSTERING_SILHOUETTE_H_

#include <cstddef>
#include <functional>
#include <vector>

#include "common/rng.h"
#include "common/statusor.h"
#include "vector/feature_vector.h"

namespace vz::clustering {

/// Pairwise distance between items `i` and `j`.
using ItemDistanceFn = std::function<double(size_t i, size_t j)>;

/// Mean silhouette value of a flat clustering (Rousseeuw 1987; adopted by the
/// paper in Sec. 3.3 to choose k).
///
/// For item i in cluster C_i: a(i) is the mean distance to other members of
/// C_i, b(i) the minimum over other clusters of the mean distance to that
/// cluster, and s(i) = (b - a) / max(a, b). Items in singleton clusters
/// contribute 0. Returns 0 when fewer than two clusters are populated.
StatusOr<double> SilhouetteScore(size_t num_items,
                                 const std::vector<size_t>& assignments,
                                 const ItemDistanceFn& distance);

/// Euclidean-space convenience overload.
StatusOr<double> SilhouetteScore(const std::vector<FeatureVector>& points,
                                 const std::vector<size_t>& assignments);

/// Result of a silhouette sweep over candidate k values.
struct SilhouetteSweepResult {
  /// The k maximizing the mean silhouette.
  size_t best_k = 0;
  /// Mean silhouette at `best_k`.
  double best_score = 0.0;
  /// (k, score) for every candidate evaluated, in ascending k.
  std::vector<std::pair<size_t, double>> scores;
};

/// Chooses k for k-means over `points` by maximizing the mean silhouette over
/// k in [min_k, max_k] (the silhouette method of Sec. 3.3). `max_k` is
/// clamped to `points.size() - 1`. Errors on fewer than 2 points.
///
/// Every k is fitted first, in ascending order (the only use of `rng`); all
/// candidates are then scored from one pass over the point distances, each
/// point's row computed once. Every score is bit-identical to
/// `SilhouetteScore(points, assignments)` of that k.
StatusOr<SilhouetteSweepResult> ChooseKBySilhouette(
    const std::vector<FeatureVector>& points, size_t min_k, size_t max_k,
    Rng* rng);

}  // namespace vz::clustering

#endif  // VZ_CLUSTERING_SILHOUETTE_H_
