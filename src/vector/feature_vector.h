#ifndef VZ_VECTOR_FEATURE_VECTOR_H_
#define VZ_VECTOR_FEATURE_VECTOR_H_

#include <cstddef>
#include <initializer_list>
#include <vector>

namespace vz {

/// Dense real-valued feature vector for one detected object.
///
/// In the paper these are penultimate-layer CNN activations (512-4096
/// dimensions, Sec. 3.1); in this reproduction they come from
/// `vz::sim::FeatureExtractor`. The class is a thin wrapper over a
/// contiguous float buffer with the vector-space operations the index needs.
class FeatureVector {
 public:
  /// An empty (0-dimensional) vector.
  FeatureVector() = default;

  /// A zero vector of the given dimension.
  explicit FeatureVector(size_t dim) : data_(dim, 0.0f) {}

  /// Adopts the given components.
  explicit FeatureVector(std::vector<float> data) : data_(std::move(data)) {}

  /// Brace-list construction: FeatureVector({1.0f, 2.0f}).
  FeatureVector(std::initializer_list<float> data) : data_(data) {}

  FeatureVector(const FeatureVector&) = default;
  FeatureVector& operator=(const FeatureVector&) = default;
  FeatureVector(FeatureVector&&) = default;
  FeatureVector& operator=(FeatureVector&&) = default;

  /// Number of dimensions.
  size_t dim() const { return data_.size(); }

  /// True iff the vector has no components.
  bool empty() const { return data_.empty(); }

  float operator[](size_t i) const { return data_[i]; }
  float& operator[](size_t i) { return data_[i]; }

  const float* data() const { return data_.data(); }
  float* data() { return data_.data(); }

  const std::vector<float>& components() const { return data_; }

  /// Euclidean (L2) norm.
  double Norm() const;

  /// In-place `this += other`. Dimensions must match.
  void Add(const FeatureVector& other);

  /// In-place `this += scale * other`. Dimensions must match.
  void Axpy(double scale, const FeatureVector& other);

  /// In-place `this *= scale`.
  void Scale(double scale);

  /// Scales to unit L2 norm; a zero vector is left unchanged.
  void Normalize();

  friend bool operator==(const FeatureVector& a, const FeatureVector& b) {
    return a.data_ == b.data_;
  }

 private:
  std::vector<float> data_;
};

/// Squared Euclidean distance. Dimensions must match (checked by assert).
double SquaredDistance(const FeatureVector& a, const FeatureVector& b);

/// Euclidean distance `||a - b||_2` — the per-object ground distance d(i, j)
/// of Sec. 3.2.
double EuclideanDistance(const FeatureVector& a, const FeatureVector& b);

/// Raw-buffer variants for callers holding SoA rows (`FeatureMap::row`).
/// Same numeric spec as the FeatureVector overloads — results are
/// bit-identical.
double SquaredDistance(const float* a, const float* b, size_t dim);
double EuclideanDistance(const float* a, const float* b, size_t dim);

/// Batched one-vs-many Euclidean distances over raw rows: writes
/// `EuclideanDistance(a, rows[j], dim)` into `out[j]` for every
/// `j < count`, where `rows[j]` points at `dim` contiguous floats (an SoA
/// row from `FeatureMap`). The summation order matches `SquaredDistance`
/// exactly, so results are bit-identical to `count` individual calls. A
/// point set scanned many times is cheaper as a `PointTile`.
void EuclideanDistancesTo(const float* a, const float* const* rows,
                          size_t count, size_t dim, double* out);

/// Inner product.
double Dot(const FeatureVector& a, const FeatureVector& b);

/// Cosine distance `1 - cos(a, b)`; 1 when either vector is zero.
double CosineDistance(const FeatureVector& a, const FeatureVector& b);

}  // namespace vz

#endif  // VZ_VECTOR_FEATURE_VECTOR_H_
