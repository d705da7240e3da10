#include "clustering/kmeans.h"

#include <algorithm>
#include <cstring>
#include <limits>

namespace vz::clustering {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// k-means++ seeding: first center uniform (by weight), subsequent centers
// sampled proportionally to weighted squared distance to the nearest chosen
// center. Center c's distance row (squared distance to every point) lands in
// `rows` at c * n; every center but the last gets one, as the sampling needs
// it.
std::vector<size_t> SeedPlusPlus(const std::vector<FeatureVector>& points,
                                 const PointTile& tile,
                                 const std::vector<double>& weights, size_t k,
                                 Rng* rng, std::vector<double>* rows) {
  const size_t n = points.size();
  std::vector<size_t> centers;
  centers.reserve(k);
  centers.push_back(rng->WeightedIndex(weights));
  std::vector<double> min_sq(n, kInf);
  std::vector<double> sampling(n);
  while (centers.size() < k) {
    double* dist = rows->data() + (centers.size() - 1) * n;
    tile.SquaredDistancesTo(points[centers.back()].data(), dist);
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
// distance to it. Center c's distances to all points are row c of `rows`
// (one tile kernel call per center), recomputed only where `stale[c]`: a
// row stays exact while its centroid's floats do. Every point tries the
// centers in ascending order with a strict `<`, as a per-point loop would,
// so ties and NaN distances resolve the same way.
void AssignNearest(const PointTile& tile,
                   const std::vector<FeatureVector>& centroids,
                   std::vector<double>* rows, std::vector<bool>* stale,
                   std::vector<size_t>* nearest, std::vector<double>* best) {
  const size_t n = tile.size();
  nearest->assign(n, 0);
  best->assign(n, kInf);
  for (size_t c = 0; c < centroids.size(); ++c) {
    double* dist = rows->data() + c * n;
    if ((*stale)[c]) {
      tile.SquaredDistancesTo(centroids[c].data(), dist);
      (*stale)[c] = false;
    }
    for (size_t i = 0; i < n; ++i) {
      // Selects rather than branches: which center wins is data, not a
      // pattern the branch predictor could learn.
      const bool closer = dist[i] < (*best)[i];
      (*best)[i] = closer ? dist[i] : (*best)[i];
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
  // Row c: squared distances from centroid c to every point. The seeding
  // fills every row but the last; the centroids start as the seed points.
  std::vector<double> rows(k * n);
  std::vector<bool> stale(k, false);
  stale[k - 1] = true;
  const std::vector<size_t> seeds =
      SeedPlusPlus(points, tile, w, k, rng, &rows);
  result.centroids.reserve(k);
  for (size_t s : seeds) result.centroids.push_back(points[s]);

  std::vector<size_t> assigned;
  std::vector<double> best;  // squared distance to the assigned centroid
  bool settled = false;
  for (size_t iter = 0; iter < options.max_iterations; ++iter) {
    AssignNearest(tile, result.centroids, &rows, &stale, &assigned, &best);
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
      // A centroid whose floats did not change (an empty cluster, or one
      // whose members all stayed) keeps its row: the kernel would rewrite
      // it bit for bit.
      stale[c] = std::memcmp(next[c].data(), result.centroids[c].data(),
                             dim * sizeof(float)) != 0;
    }
    result.centroids = std::move(next);
    if (movement <= options.tolerance) break;
  }
  if (!settled) {
    AssignNearest(tile, result.centroids, &rows, &stale, &result.assignments,
                  &best);
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
