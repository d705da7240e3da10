#ifndef VZ_VECTOR_POINT_TILE_H_
#define VZ_VECTOR_POINT_TILE_H_

#include <cstddef>
#include <vector>

#include "common/statusor.h"
#include "vector/feature_vector.h"
#include "vector/simd_kernels.h"

namespace vz {

/// A point set transposed once into the column-major tile the batched
/// `squared_cols`/`euclidean_cols` kernels read: element `i` of point `j`
/// lives at `i * size() + j` (`simd::TransposeRows`). Every one-vs-all pass
/// over the set then vectorizes across points while each per-point sum keeps
/// the scalar's ascending-dimension order, so `SquaredDistancesTo(a, out)`
/// writes `SquaredDistance(a, point j)` bit for bit. Since `x - y` and
/// `y - x` round to the same magnitude, that is also
/// `SquaredDistance(point j, a)`.
///
/// The OMD ground-matrix fill builds one over a map's rows per solve;
/// k-means builds one per point set for its seeding and every assignment
/// pass; the silhouette sweep builds one for all its fits and its scoring.
class PointTile {
 public:
  /// Transposes `count` rows of `dim` floats each.
  PointTile(const float* const* rows, size_t count, size_t dim);

  /// Transposes `points`; InvalidArgument when they differ in dimension.
  static StatusOr<PointTile> FromPoints(
      const std::vector<FeatureVector>& points);

  /// Number of points.
  size_t size() const { return count_; }
  size_t dim() const { return dim_; }

  /// out[j] = SquaredDistance(a, point j) for every j < size(); `a` holds
  /// dim() floats.
  void SquaredDistancesTo(const float* a, double* out) const;

  /// out[j] = EuclideanDistance(a, point j) for every j < size().
  void EuclideanDistancesTo(const float* a, double* out) const;

 private:
  size_t count_;
  size_t dim_;
  std::vector<float, simd::AlignedAllocator<float>> data_;
};

}  // namespace vz

#endif  // VZ_VECTOR_POINT_TILE_H_
