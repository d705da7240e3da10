#include "clustering/silhouette.h"

#include <algorithm>
#include <limits>

#include "clustering/kmeans.h"

namespace vz::clustering {

namespace {

// Members per cluster of a flat clustering.
std::vector<size_t> ClusterSizes(const std::vector<size_t>& assignments) {
  size_t num_clusters = 0;
  for (size_t a : assignments) num_clusters = std::max(num_clusters, a + 1);
  std::vector<size_t> sizes(num_clusters, 0);
  for (size_t a : assignments) sizes[a]++;
  return sizes;
}

size_t CountPopulated(const std::vector<size_t>& sizes) {
  size_t populated = 0;
  for (size_t s : sizes) populated += (s > 0);
  return populated;
}

// s(i) of an item in cluster `ci` (of size >= 2), given the sums of its
// distances to every cluster: (b - a) / max(a, b), or 0 when both are 0.
double SilhouetteOf(const std::vector<double>& sum_to,
                    const std::vector<size_t>& sizes, size_t ci) {
  const double a = sum_to[ci] / static_cast<double>(sizes[ci] - 1);
  double b = std::numeric_limits<double>::infinity();
  for (size_t c = 0; c < sizes.size(); ++c) {
    if (c == ci || sizes[c] == 0) continue;
    b = std::min(b, sum_to[c] / static_cast<double>(sizes[c]));
  }
  const double denom = std::max(a, b);
  return denom > 0.0 ? (b - a) / denom : 0.0;
}

}  // namespace

StatusOr<double> SilhouetteScore(size_t num_items,
                                 const std::vector<size_t>& assignments,
                                 const ItemDistanceFn& distance) {
  if (assignments.size() != num_items) {
    return Status::InvalidArgument("assignments size mismatch");
  }
  if (num_items == 0) return Status::InvalidArgument("no items");
  const std::vector<size_t> sizes = ClusterSizes(assignments);
  if (CountPopulated(sizes) < 2) return 0.0;

  double total = 0.0;
  for (size_t i = 0; i < num_items; ++i) {
    const size_t ci = assignments[i];
    if (sizes[ci] <= 1) continue;  // singleton contributes s(i) = 0
    // Mean distance from i to every cluster.
    std::vector<double> sum_to(sizes.size(), 0.0);
    for (size_t j = 0; j < num_items; ++j) {
      if (j == i) continue;
      sum_to[assignments[j]] += distance(i, j);
    }
    total += SilhouetteOf(sum_to, sizes, ci);
  }
  return total / static_cast<double>(num_items);
}

StatusOr<double> SilhouetteScore(const std::vector<FeatureVector>& points,
                                 const std::vector<size_t>& assignments) {
  return SilhouetteScore(points.size(), assignments,
                         [&points](size_t i, size_t j) {
                           return EuclideanDistance(points[i], points[j]);
                         });
}

StatusOr<SilhouetteSweepResult> ChooseKBySilhouette(
    const std::vector<FeatureVector>& points, size_t min_k, size_t max_k,
    Rng* rng) {
  if (points.size() < 2) {
    return Status::InvalidArgument("silhouette sweep needs >= 2 points");
  }
  if (rng == nullptr) {
    return Status::InvalidArgument("silhouette sweep requires an Rng");
  }
  min_k = std::max<size_t>(2, min_k);
  max_k = std::min(max_k, points.size() - 1);
  if (min_k > max_k) max_k = min_k;

  // One tile serves every fit and the scoring pass.
  VZ_ASSIGN_OR_RETURN(const PointTile tile, PointTile::FromPoints(points));

  // Fit every k first: the k-means runs consume `rng` in ascending k, exactly
  // as a fit-then-score loop would (scoring never reads it).
  std::vector<std::vector<size_t>> assignments;
  assignments.reserve(max_k - min_k + 1);
  for (size_t k = min_k; k <= max_k; ++k) {
    KMeansOptions options;
    options.k = k;
    VZ_ASSIGN_OR_RETURN(KMeansResult km,
                        KMeans(points, tile, {}, options, rng));
    assignments.push_back(std::move(km.assignments));
  }

  // Score every k from one distance pass: each point's distance row is
  // computed once, from the tile (bit-identical to `EuclideanDistance`), and
  // feeds the per-cluster sums of every k. Per k, the sums accumulate in
  // ascending j and s(i) in ascending i, as in `SilhouetteScore`, so every
  // score is bit-identical to scoring that k on its own. Points go four to
  // a pass: one walk over j feeds four independent sums, where one point's
  // consecutive adds to the same cluster would wait on each other. Memory
  // stays O(n) per k: no n x n matrix is kept.
  struct KScore {
    std::vector<size_t> sizes;
    bool scored = false;  // false: fewer than two populated clusters, s = 0
    double total = 0.0;
  };
  std::vector<KScore> per_k;
  per_k.reserve(assignments.size());
  for (const std::vector<size_t>& assigned : assignments) {
    std::vector<size_t> sizes = ClusterSizes(assigned);
    const bool scored = CountPopulated(sizes) >= 2;
    per_k.push_back({std::move(sizes), scored});
  }
  constexpr size_t kLanes = 4;
  const size_t n = points.size();
  std::vector<double> rows[kLanes];
  std::vector<double> sum_to[kLanes];
  for (std::vector<double>& row : rows) row.assign(n, 0.0);
  for (size_t i0 = 0; i0 < n; i0 += kLanes) {
    const size_t lanes = std::min(kLanes, n - i0);
    for (size_t l = 0; l < lanes; ++l) {
      tile.EuclideanDistancesTo(points[i0 + l].data(), rows[l].data());
      // Leaving j == i out of its own sums is adding +0.0 to them, which
      // changes no sum: each is +0.0, positive, +inf or NaN.
      rows[l][i0 + l] = 0.0;
    }
    for (size_t f = 0; f < per_k.size(); ++f) {
      const std::vector<size_t>& assigned = assignments[f];
      KScore& ks = per_k[f];
      if (!ks.scored) continue;
      bool any = false;  // does some lane's point need its s(i)?
      for (size_t l = 0; l < lanes; ++l) {
        any = any || ks.sizes[assigned[i0 + l]] > 1;
      }
      if (!any) continue;
      for (std::vector<double>& sums : sum_to) {
        sums.assign(ks.sizes.size(), 0.0);
      }
      // Lanes past `lanes` sum stale rows into sums nobody reads.
      for (size_t j = 0; j < n; ++j) {
        const size_t c = assigned[j];
        for (size_t l = 0; l < kLanes; ++l) sum_to[l][c] += rows[l][j];
      }
      for (size_t l = 0; l < lanes; ++l) {
        const size_t ci = assigned[i0 + l];
        if (ks.sizes[ci] <= 1) continue;  // singleton contributes s(i) = 0
        ks.total += SilhouetteOf(sum_to[l], ks.sizes, ci);
      }
    }
  }

  SilhouetteSweepResult sweep;
  sweep.best_score = -std::numeric_limits<double>::infinity();
  for (size_t f = 0; f < per_k.size(); ++f) {
    const size_t k = min_k + f;
    const double score = per_k[f].total / static_cast<double>(n);
    sweep.scores.emplace_back(k, score);
    if (score > sweep.best_score) {
      sweep.best_score = score;
      sweep.best_k = k;
    }
  }
  return sweep;
}

}  // namespace vz::clustering
