#include "vector/simd_kernels.h"

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>

namespace vz::simd {

#ifdef VZ_HAVE_AVX2_TU
namespace internal {
// Defined in simd_kernels_avx2.cc (compiled with -mavx2).
const KernelTable& Avx2Table();
}  // namespace internal
#endif

namespace {

// ---------------------------------------------------------------------------
// Scalar reference table. These loops ARE the numeric spec: every other table
// must match them bit for bit (see the KernelTable contract in the header).
// ---------------------------------------------------------------------------

double ScalarSquaredDistance(const float* a, const float* b, size_t dim) {
  double sum = 0.0;
  for (size_t i = 0; i < dim; ++i) {
    const double d = static_cast<double>(a[i]) - b[i];
    sum += d * d;
  }
  return sum;
}

double ScalarDot(const float* a, const float* b, size_t dim) {
  double sum = 0.0;
  for (size_t i = 0; i < dim; ++i) {
    sum += static_cast<double>(a[i]) * b[i];
  }
  return sum;
}

double ScalarSumSquares(const float* v, size_t dim) {
  double sum = 0.0;
  for (size_t i = 0; i < dim; ++i) {
    sum += static_cast<double>(v[i]) * v[i];
  }
  return sum;
}

void ScalarEuclideanRows(const float* a, const float* const* rows,
                         size_t count, size_t dim, double* out) {
  for (size_t j = 0; j < count; ++j) {
    out[j] = std::sqrt(ScalarSquaredDistance(a, rows[j], dim));
  }
}

// Walks the tile one dimension (one contiguous tile row) at a time; out[j]
// is target j's running sum, so each still adds its terms in ascending i.
void ScalarSquaredCols(const float* a, const float* bt, size_t count,
                       size_t dim, double* out) {
  for (size_t j = 0; j < count; ++j) out[j] = 0.0;
  for (size_t i = 0; i < dim; ++i) {
    const double ai = a[i];
    const float* col = bt + i * count;
    for (size_t j = 0; j < count; ++j) {
      const double d = ai - col[j];
      out[j] += d * d;
    }
  }
}

void ScalarEuclideanCols(const float* a, const float* bt, size_t count,
                         size_t dim, double* out) {
  ScalarSquaredCols(a, bt, count, dim, out);
  for (size_t j = 0; j < count; ++j) out[j] = std::sqrt(out[j]);
}

void ScalarAxpy(float* acc, float scale, const float* v, size_t dim) {
  for (size_t i = 0; i < dim; ++i) acc[i] += scale * v[i];
}

void ScalarAddInPlace(float* acc, const float* v, size_t dim) {
  for (size_t i = 0; i < dim; ++i) acc[i] += v[i];
}

void ScalarScaleInPlace(float* v, float scale, size_t dim) {
  for (size_t i = 0; i < dim; ++i) v[i] *= scale;
}

int64_t ScalarDotI8(const int8_t* a, const int8_t* b, size_t dim) {
  int64_t sum = 0;
  for (size_t i = 0; i < dim; ++i) {
    sum += static_cast<int32_t>(a[i]) * static_cast<int32_t>(b[i]);
  }
  return sum;
}

size_t ScalarRelaxArcs(double from_dist, double from_potential,
                       const double* residual, const double* cost,
                       const double* potential, size_t count, double eps,
                       double* dist, uint32_t* improved) {
  size_t num_improved = 0;
  for (size_t k = 0; k < count; ++k) {
    if (RelaxArc(from_dist, from_potential, residual[k], cost[k],
                 potential[k], eps, &dist[k])) {
      improved[num_improved++] = static_cast<uint32_t>(k);
    }
  }
  return num_improved;
}

size_t ScalarFirstArgmin(const double* v, size_t count) {
  double best = std::numeric_limits<double>::infinity();
  size_t at = count;
  for (size_t j = 0; j < count; ++j) {
    if (v[j] < best) {
      best = v[j];
      at = j;
    }
  }
  return at;
}

constexpr KernelTable kScalarTable = {
    "scalar",          ScalarSquaredDistance, ScalarDot,
    ScalarSumSquares,  ScalarEuclideanRows,   ScalarSquaredCols,
    ScalarEuclideanCols, ScalarAxpy,          ScalarAddInPlace,
    ScalarScaleInPlace,  ScalarDotI8,         ScalarRelaxArcs,
    ScalarFirstArgmin,
};

std::atomic<const KernelTable*> g_active{nullptr};
std::atomic<bool> g_force_scalar{false};

const KernelTable* Dispatch() {
  if (g_force_scalar.load(std::memory_order_relaxed)) return &kScalarTable;
  const char* env = std::getenv("VZ_SIMD");
  if (env != nullptr && std::strcmp(env, "scalar") == 0) return &kScalarTable;
#ifdef VZ_HAVE_AVX2_TU
  if (__builtin_cpu_supports("avx2")) return &internal::Avx2Table();
#endif
  return &kScalarTable;
}

}  // namespace

const KernelTable& Scalar() { return kScalarTable; }

const KernelTable& Active() {
  const KernelTable* table = g_active.load(std::memory_order_acquire);
  if (table == nullptr) {
    table = Dispatch();
    g_active.store(table, std::memory_order_release);
  }
  return *table;
}

bool Avx2Active() { return &Active() != &kScalarTable; }

void ForceScalar(bool force) {
  g_force_scalar.store(force, std::memory_order_relaxed);
  g_active.store(force ? &kScalarTable : Dispatch(),
                 std::memory_order_release);
}

void TransposeRows(const float* const* rows, size_t count, size_t dim,
                   float* out) {
  for (size_t j = 0; j < count; ++j) {
    const float* row = rows[j];
    for (size_t i = 0; i < dim; ++i) out[i * count + j] = row[i];
  }
}

}  // namespace vz::simd
