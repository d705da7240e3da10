#include "vector/feature_vector.h"

#include <cassert>
#include <cmath>

#include "vector/simd_kernels.h"

namespace vz {

// All arithmetic routes through the runtime-dispatched kernel table; every
// table is bit-identical to the scalar reference (see simd_kernels.h), so
// results do not depend on which CPU features are present.

double FeatureVector::Norm() const {
  return std::sqrt(simd::Active().sum_squares(data_.data(), data_.size()));
}

void FeatureVector::Add(const FeatureVector& other) {
  assert(dim() == other.dim());
  simd::Active().add_in_place(data_.data(), other.data_.data(), data_.size());
}

void FeatureVector::Axpy(double scale, const FeatureVector& other) {
  assert(dim() == other.dim());
  simd::Active().axpy(data_.data(), static_cast<float>(scale),
                      other.data_.data(), data_.size());
}

void FeatureVector::Scale(double scale) {
  simd::Active().scale_in_place(data_.data(), static_cast<float>(scale),
                                data_.size());
}

void FeatureVector::Normalize() {
  const double norm = Norm();
  if (norm > 0.0) Scale(1.0 / norm);
}

double SquaredDistance(const FeatureVector& a, const FeatureVector& b) {
  assert(a.dim() == b.dim());
  return simd::Active().squared_distance(a.data(), b.data(), a.dim());
}

double EuclideanDistance(const FeatureVector& a, const FeatureVector& b) {
  return std::sqrt(SquaredDistance(a, b));
}

double SquaredDistance(const float* a, const float* b, size_t dim) {
  return simd::Active().squared_distance(a, b, dim);
}

double EuclideanDistance(const float* a, const float* b, size_t dim) {
  return std::sqrt(simd::Active().squared_distance(a, b, dim));
}

void EuclideanDistancesTo(const float* a, const float* const* rows,
                          size_t count, size_t dim, double* out) {
  simd::Active().euclidean_rows(a, rows, count, dim, out);
}

double Dot(const FeatureVector& a, const FeatureVector& b) {
  assert(a.dim() == b.dim());
  return simd::Active().dot(a.data(), b.data(), a.dim());
}

double CosineDistance(const FeatureVector& a, const FeatureVector& b) {
  const double na = a.Norm();
  const double nb = b.Norm();
  if (na == 0.0 || nb == 0.0) return 1.0;
  return 1.0 - Dot(a, b) / (na * nb);
}

}  // namespace vz
