#include "vector/point_tile.h"

namespace vz {

PointTile::PointTile(const float* const* rows, size_t count, size_t dim)
    : count_(count), dim_(dim), data_(count * dim) {
  simd::TransposeRows(rows, count, dim, data_.data());
}

StatusOr<PointTile> PointTile::FromPoints(
    const std::vector<FeatureVector>& points) {
  const size_t dim = points.empty() ? 0 : points[0].dim();
  std::vector<const float*> rows;
  rows.reserve(points.size());
  for (const FeatureVector& p : points) {
    if (p.dim() != dim) {
      return Status::InvalidArgument("points differ in dimension");
    }
    rows.push_back(p.data());
  }
  return PointTile(rows.data(), rows.size(), dim);
}

void PointTile::SquaredDistancesTo(const float* a, double* out) const {
  simd::Active().squared_cols(a, data_.data(), count_, dim_, out);
}

void PointTile::EuclideanDistancesTo(const float* a, double* out) const {
  simd::Active().euclidean_cols(a, data_.data(), count_, dim_, out);
}

}  // namespace vz
