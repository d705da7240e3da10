#ifndef VZ_VECTOR_SIMD_KERNELS_H_
#define VZ_VECTOR_SIMD_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <new>

namespace vz::simd {

/// Low-level distance/accumulation kernels over raw contiguous buffers.
///
/// Two kernel tables exist: the portable scalar reference and, when the build
/// enables it (`VZ_ENABLE_AVX2`) and the CPU supports it, an AVX2 table.
/// Every table is required to produce *bit-identical* results to the scalar
/// reference for all inputs whose result is not NaN (including +-Inf
/// results and Inf payloads in the inputs). When the reference produces
/// NaN, every table produces NaN, but the payload/sign bits may differ:
/// x86 propagates the *first* operand's NaN through an add, and compilers
/// may commute `sum + term` differently per translation unit, so NaN
/// payload identity is not promisable even between two scalar builds. The
/// scalar table pins the numeric spec:
///
///  - Floating-point reductions (`squared_distance`, `dot`, `sum_squares`,
///    and the per-output sums of the batched Euclidean kernels) accumulate in
///    double, strictly in ascending index order, as `sum += term` with the
///    term computed from the float inputs exactly as the scalar loop writes
///    it. The AVX2 table may vectorize the element-wise term computation
///    (IEEE sub/mul are deterministic per lane) but must keep the adds
///    sequential per output — and must not contract them into FMAs, which
///    would change rounding.
///  - Element-wise float updates (`axpy`, `add_in_place`, `scale_in_place`)
///    round per element exactly like the scalar loop; lanes are independent,
///    so any vector width is bit-identical by construction.
///  - Integer kernels (`dot_i8`) are exact in any summation order.
///  - The transport-solve kernels (`relax_arcs`, `first_argmin`) are
///    per-lane double adds, compares and selects, with no reduction but
///    `first_argmin`'s, whose lanes merge by (value, index): every table
///    writes the same distances and parents and returns the same index,
///    NaN inputs included.
///
/// The batched kernels exist in two layouts: `euclidean_rows` walks `count`
/// row pointers (the layout `FeatureMap` hands out), while `squared_cols`
/// and `euclidean_cols` read a column-major transpose tile (`bt[i * count +
/// j]` holds element `i` of target `j`; `PointTile` owns one) so one vector
/// register spans *outputs* instead of dimensions. The column layout is what
/// makes AVX2 profitable without reordering any per-output sum: lane `j`
/// still accumulates dimensions in ascending order.
struct KernelTable {
  /// Human-readable table name ("scalar", "avx2") for logs and tests.
  const char* name;

  /// sum_i ((double)a[i] - (double)b[i])^2.
  double (*squared_distance)(const float* a, const float* b, size_t dim);

  /// sum_i (double)a[i] * (double)b[i].
  double (*dot)(const float* a, const float* b, size_t dim);

  /// sum_i (double)v[i] * (double)v[i].
  double (*sum_squares)(const float* v, size_t dim);

  /// out[j] = sqrt(squared_distance(a, rows[j], dim)) for j < count.
  void (*euclidean_rows)(const float* a, const float* const* rows,
                         size_t count, size_t dim, double* out);

  /// out[j] = squared_distance(a, target j, dim) for j < count, over a
  /// transposed tile: element i of target j lives at bt[i * count + j] (see
  /// TransposeRows).
  void (*squared_cols)(const float* a, const float* bt, size_t count,
                       size_t dim, double* out);

  /// out[j] = sqrt of squared_cols' out[j].
  void (*euclidean_cols)(const float* a, const float* bt, size_t count,
                         size_t dim, double* out);

  /// acc[i] += (float)scale * v[i].
  void (*axpy)(float* acc, float scale, const float* v, size_t dim);

  /// acc[i] += v[i].
  void (*add_in_place)(float* acc, const float* v, size_t dim);

  /// v[i] *= scale.
  void (*scale_in_place)(float* v, float scale, size_t dim);

  /// sum_i a[i] * b[i] over int8 codes, exact. Inputs must lie in
  /// [-127, 127] (the symmetric-quantizer range); -128 is outside the
  /// contract (the AVX2 unsigned*signed trick saturates on it).
  int64_t (*dot_i8)(const int8_t* a, const int8_t* b, size_t dim);

  /// One Dijkstra relaxation of a node's arcs into `count` consecutive
  /// nodes of a dense residual graph (the transport solve in
  /// `solver/emd.cc`); `potential` and `dist` are indexed from the first of
  /// those nodes. Arc k is usable iff !(residual[k] <= eps); its step is
  /// reduced = (cost[k] + from_potential) - potential[k], clamped as
  /// `reduced > 0 ? reduced : 0`. Node k improves iff its arc is usable and
  /// from_dist + step + eps < dist[k]; then dist[k] = from_dist + step.
  /// Writes the improved k, ascending, to `improved` (room for `count`) and
  /// returns how many there are. Lanes are independent, so any vector width
  /// is bit-identical by construction.
  size_t (*relax_arcs)(double from_dist, double from_potential,
                       const double* residual, const double* cost,
                       const double* potential, size_t count, double eps,
                       double* dist, uint32_t* improved);

  /// The first index j (ascending, strict `<`) of the smallest v[j] below
  /// +inf, or `count` when there is none. NaN entries never win; -0.0 and
  /// +0.0 tie, so the earlier one wins.
  size_t (*first_argmin)(const double* v, size_t count);
};

/// One arc of `relax_arcs`: the formula the scalar table applies per arc;
/// true iff `*dist` improved. The transport solve calls it directly for the
/// arcs it keeps one at a time (a node's single arcs, the sparse twins).
inline bool RelaxArc(double from_dist, double from_potential, double residual,
                     double cost, double potential, double eps,
                     double* dist) {
  if (residual <= eps) return false;
  const double reduced = cost + from_potential - potential;
  const double step = reduced > 0.0 ? reduced : 0.0;
  if (!(from_dist + step + eps < *dist)) return false;
  *dist = from_dist + step;
  return true;
}

/// The portable reference table. Always available.
const KernelTable& Scalar();

/// The fastest table valid on this machine: AVX2 when compiled in and
/// reported by cpuid, otherwise the scalar reference. Selected once on first
/// use; setting the environment variable `VZ_SIMD=scalar` before that forces
/// the scalar table (useful for A/B timing on AVX2 hardware).
const KernelTable& Active();

/// True iff Active() is the AVX2 table.
bool Avx2Active();

/// Test hook: force Active() to the scalar table (true) or restore the
/// dispatched choice (false). Not safe to race against kernel callers; call
/// only from single-threaded test setup.
void ForceScalar(bool force);

/// Scatters row-major rows into the column-major tile `euclidean_cols`
/// expects: out[i * count + j] = rows[j][i]. `out` must hold count * dim
/// floats.
void TransposeRows(const float* const* rows, size_t count, size_t dim,
                   float* out);

/// Alignment of the SoA feature buffer; one AVX2 register row.
inline constexpr size_t kSoAAlignment = 32;

/// Minimal aligned allocator so flat feature buffers start on a 32-byte
/// boundary (the kernels use unaligned loads, so alignment is a perf hint,
/// not a correctness requirement).
template <typename T, size_t Alignment = kSoAAlignment>
struct AlignedAllocator {
  using value_type = T;

  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Alignment>&) {}

  T* allocate(size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t(Alignment)));
  }
  void deallocate(T* p, size_t n) {
    ::operator delete(p, n * sizeof(T), std::align_val_t(Alignment));
  }

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };

  friend bool operator==(const AlignedAllocator&, const AlignedAllocator&) {
    return true;
  }
  friend bool operator!=(const AlignedAllocator&, const AlignedAllocator&) {
    return false;
  }
};

}  // namespace vz::simd

#endif  // VZ_VECTOR_SIMD_KERNELS_H_
