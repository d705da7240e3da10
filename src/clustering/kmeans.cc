#include "clustering/kmeans.h"

#include <algorithm>
#include <limits>

namespace vz::clustering {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// k-means++ seeding: first center uniform (by weight), subsequent centers
// sampled proportionally to weighted squared distance to the nearest chosen
// center.
std::vector<size_t> SeedPlusPlus(const std::vector<FeatureVector>& points,
                                 const PointTile& tile,
                                 const std::vector<double>& weights, size_t k,
                                 Rng* rng) {
  const size_t n = points.size();
  std::vector<size_t> centers;
  centers.reserve(k);
  centers.push_back(rng->WeightedIndex(weights));
  std::vector<double> min_sq(n, kInf);
  std::vector<double> dist(n);
  std::vector<double> sampling(n);
  while (centers.size() < k) {
    tile.SquaredDistancesTo(points[centers.back()].data(), dist.data());
    for (size_t i = 0; i < n; ++i) {
      min_sq[i] = std::min(min_sq[i], dist[i]);
      sampling[i] = min_sq[i] * weights[i];
    }
    double total = 0.0;
    for (double s : sampling) total += s;
    if (total <= 0.0) {
      // All remaining points coincide with a chosen center; pick arbitrarily.
      centers.push_back(rng->WeightedIndex(weights));
    } else {
      centers.push_back(rng->WeightedIndex(sampling));
    }
  }
  return centers;
}

// One assignment pass: each point's nearest centroid and the squared
// distance to it. Every point tries the centers in ascending order with a
// strict `<`, as a per-point loop would, so ties and NaN distances resolve
// the same way; the tile yields one center's distances to all points per
// kernel call. `dist` is scratch of one double per point.
void AssignNearest(const PointTile& tile,
                   const std::vector<FeatureVector>& centroids,
                   std::vector<size_t>* nearest, std::vector<double>* best,
                   std::vector<double>* dist) {
  const size_t n = tile.size();
  nearest->assign(n, 0);
  best->assign(n, kInf);
  for (size_t c = 0; c < centroids.size(); ++c) {
    tile.SquaredDistancesTo(centroids[c].data(), dist->data());
    for (size_t i = 0; i < n; ++i) {
      // Selects rather than branches: which center wins is data, not a
      // pattern the branch predictor could learn.
      const bool closer = (*dist)[i] < (*best)[i];
      (*best)[i] = closer ? (*dist)[i] : (*best)[i];
      (*nearest)[i] = closer ? c : (*nearest)[i];
    }
  }
}

// One seeded Lloyd run over validated input: one weight per point.
KMeansResult KMeansOnce(const std::vector<FeatureVector>& points,
                        const PointTile& tile, const std::vector<double>& w,
                        const KMeansOptions& options, Rng* rng) {
  const size_t n = points.size();
  const size_t k = std::max<size_t>(1, std::min(options.k, n));
  const size_t dim = points[0].dim();

  KMeansResult result;
  const std::vector<size_t> seeds = SeedPlusPlus(points, tile, w, k, rng);
  result.centroids.reserve(k);
  for (size_t s : seeds) result.centroids.push_back(points[s]);

  std::vector<size_t> assigned;
  std::vector<double> best;  // squared distance to the assigned centroid
  std::vector<double> dist(n);
  bool settled = false;
  for (size_t iter = 0; iter < options.max_iterations; ++iter) {
    AssignNearest(tile, result.centroids, &assigned, &best, &dist);
    // The centroids are the weighted means of the previous pass's clusters
    // (an empty one kept its center). If this pass assigns every point as
    // that one did, the update would rebuild them bit for bit, so every
    // later pass would repeat this one: it is the final assignment, and
    // `best` already holds its distances.
    settled = iter > 0 && assigned == result.assignments;
    result.assignments.swap(assigned);
    if (settled) break;
    // Update step (weighted means).
    std::vector<FeatureVector> next(k, FeatureVector(dim));
    std::vector<double> mass(k, 0.0);
    for (size_t i = 0; i < n; ++i) {
      next[result.assignments[i]].Axpy(w[i], points[i]);
      mass[result.assignments[i]] += w[i];
    }
    double movement = 0.0;
    for (size_t c = 0; c < k; ++c) {
      if (mass[c] > 0.0) {
        next[c].Scale(1.0 / mass[c]);
      } else {
        next[c] = result.centroids[c];  // empty cluster keeps its center
      }
      movement += EuclideanDistance(next[c], result.centroids[c]);
    }
    result.centroids = std::move(next);
    if (movement <= options.tolerance) break;
  }
  if (!settled) {
    AssignNearest(tile, result.centroids, &result.assignments, &best, &dist);
  }

  // Sizes and inertia of the final assignment.
  result.cluster_sizes.assign(k, 0);
  for (size_t i = 0; i < n; ++i) {
    result.cluster_sizes[result.assignments[i]]++;
    result.inertia += best[i] * w[i];
  }
  return result;
}

}  // namespace

StatusOr<KMeansResult> KMeans(const std::vector<FeatureVector>& points,
                              const std::vector<double>& weights,
                              const KMeansOptions& options, Rng* rng) {
  VZ_ASSIGN_OR_RETURN(const PointTile tile, PointTile::FromPoints(points));
  return KMeans(points, tile, weights, options, rng);
}

StatusOr<KMeansResult> KMeans(const std::vector<FeatureVector>& points,
                              const PointTile& tile,
                              const std::vector<double>& weights,
                              const KMeansOptions& options, Rng* rng) {
  if (points.empty()) {
    return Status::InvalidArgument("k-means requires at least one point");
  }
  if (rng == nullptr) {
    return Status::InvalidArgument("k-means requires an Rng");
  }
  if (tile.size() != points.size() || tile.dim() != points[0].dim()) {
    return Status::InvalidArgument("tile does not hold these points");
  }
  std::vector<double> w = weights;
  if (w.empty()) {
    w.assign(points.size(), 1.0);
  } else if (w.size() != points.size()) {
    return Status::InvalidArgument("weights size must match points size");
  }
  for (double x : w) {
    if (x < 0.0) return Status::InvalidArgument("weights must be >= 0");
  }

  const size_t restarts = std::max<size_t>(1, options.restarts);
  KMeansResult best;
  for (size_t r = 0; r < restarts; ++r) {
    KMeansResult run = KMeansOnce(points, tile, w, options, rng);
    if (r == 0 || run.inertia < best.inertia) best = std::move(run);
  }
  return best;
}

StatusOr<KMeansResult> KMeans(const std::vector<FeatureVector>& points,
                              const KMeansOptions& options, Rng* rng) {
  return KMeans(points, {}, options, rng);
}

}  // namespace vz::clustering
