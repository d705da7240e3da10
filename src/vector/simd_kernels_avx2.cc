// AVX2 kernel table. This translation unit is compiled with -mavx2 (see
// src/vector/CMakeLists.txt) and is only linked when VZ_ENABLE_AVX2 is ON;
// the dispatcher in simd_kernels.cc never calls into it unless cpuid reports
// AVX2 at runtime.
//
// Bit-exactness with the scalar reference is the hard requirement here, and
// it shapes every kernel:
//
//  - No FMA anywhere in the float paths. The scalar spec rounds the multiply
//    and the add separately; a fused multiply-add would skip the
//    intermediate rounding and drift by ulps.
//  - Reductions keep the scalar's ascending-index, one-term-at-a-time
//    summation per output. Single-output kernels (squared_distance, dot,
//    sum_squares) vectorize only the element-wise term computation — IEEE
//    sub/mul are deterministic per lane — then drain the four lane terms
//    into the accumulator in index order with scalar adds.
//  - The batched kernel gets its parallelism across *outputs* instead:
//    squared_cols reads a column-major tile so two registers hold the same
//    dimension i of eight different targets, and each lane's running sum
//    still sees dimensions in ascending order. Four such 8-wide tiles are
//    in flight per dimension step, so eight independent add chains hide the
//    add latency that a single tile's two chains would stall on; a partial
//    last tile is loaded under a lane mask instead of falling back to
//    scalar. euclidean_cols is a square-root pass over it.
//  - Integer math (dot_i8) is exact in any order, so it uses the classic
//    unsigned*signed maddubs reduction freely.

#ifdef VZ_HAVE_AVX2_TU

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>

#include "vector/simd_kernels.h"

namespace vz::simd {
namespace {

// Drains a 4-lane double vector of per-element terms into `sum` with scalar
// adds in lane (= index) order, preserving the reference summation order.
inline void DrainTerms(__m256d terms, double* sum) {
  alignas(32) double t[4];
  _mm256_store_pd(t, terms);
  *sum += t[0];
  *sum += t[1];
  *sum += t[2];
  *sum += t[3];
}

double Avx2SquaredDistance(const float* a, const float* b, size_t dim) {
  double sum = 0.0;
  size_t i = 0;
  for (; i + 4 <= dim; i += 4) {
    const __m256d da = _mm256_cvtps_pd(_mm_loadu_ps(a + i));
    const __m256d db = _mm256_cvtps_pd(_mm_loadu_ps(b + i));
    const __m256d d = _mm256_sub_pd(da, db);
    DrainTerms(_mm256_mul_pd(d, d), &sum);
  }
  for (; i < dim; ++i) {
    const double d = static_cast<double>(a[i]) - b[i];
    sum += d * d;
  }
  return sum;
}

double Avx2Dot(const float* a, const float* b, size_t dim) {
  double sum = 0.0;
  size_t i = 0;
  for (; i + 4 <= dim; i += 4) {
    const __m256d da = _mm256_cvtps_pd(_mm_loadu_ps(a + i));
    const __m256d db = _mm256_cvtps_pd(_mm_loadu_ps(b + i));
    DrainTerms(_mm256_mul_pd(da, db), &sum);
  }
  for (; i < dim; ++i) sum += static_cast<double>(a[i]) * b[i];
  return sum;
}

double Avx2SumSquares(const float* v, size_t dim) {
  double sum = 0.0;
  size_t i = 0;
  for (; i + 4 <= dim; i += 4) {
    const __m256d d = _mm256_cvtps_pd(_mm_loadu_ps(v + i));
    DrainTerms(_mm256_mul_pd(d, d), &sum);
  }
  for (; i < dim; ++i) sum += static_cast<double>(v[i]) * v[i];
  return sum;
}

void Avx2EuclideanRows(const float* a, const float* const* rows, size_t count,
                       size_t dim, double* out) {
  for (size_t j = 0; j < count; ++j) {
    out[j] = std::sqrt(Avx2SquaredDistance(a, rows[j], dim));
  }
}

// Lane masks for a partial 8-wide tile: kLaneMask + 8 - w selects w lanes.
alignas(32) constexpr int32_t kLaneMask[16] = {-1, -1, -1, -1, -1, -1, -1, -1,
                                               0,  0,  0,  0,  0,  0,  0,  0};

// Adds dimension i's terms for one 8-wide tile into its two 4-lane
// accumulators; `b_lo`/`b_hi` are the tile's floats of tile row i.
inline void AccumulateTile8(__m256d ai, __m128 b_lo, __m128 b_hi,
                            __m256d* acc_lo, __m256d* acc_hi) {
  const __m256d d_lo = _mm256_sub_pd(ai, _mm256_cvtps_pd(b_lo));
  const __m256d d_hi = _mm256_sub_pd(ai, _mm256_cvtps_pd(b_hi));
  *acc_lo = _mm256_add_pd(*acc_lo, _mm256_mul_pd(d_lo, d_lo));
  *acc_hi = _mm256_add_pd(*acc_hi, _mm256_mul_pd(d_hi, d_hi));
}

// Squared distances of `width` adjacent targets, the columns of kTiles 8-wide
// tiles (`bt` and `out` start at the first), with every sum held in a
// register across the whole dimension loop: 2 * kTiles independent add
// chains, so four tiles keep the adder busy where one would wait on its own
// latency. Lane j's sum is built one dimension at a time in ascending order
// — the same order as the scalar per-pair loop — with separate sub/mul/add
// (no FMA), so each output is bit-identical to ScalarSquaredDistance on
// (a, column j). With kMaskLast the last tile may be partial: its lanes past
// `width` load 0 and are never stored.
template <size_t kTiles, bool kMaskLast>
inline void SquaredTiles(const float* a, const float* bt, size_t count,
                         size_t dim, size_t width, double* out) {
  const int32_t* mask = kLaneMask + 8 - (width - 8 * (kTiles - 1));
  const __m128i mask_lo = _mm_loadu_si128(
      reinterpret_cast<const __m128i*>(mask));
  const __m128i mask_hi = _mm_loadu_si128(
      reinterpret_cast<const __m128i*>(mask + 4));
  __m256d acc[2 * kTiles];
  for (__m256d& v : acc) v = _mm256_setzero_pd();
  for (size_t i = 0; i < dim; ++i) {
    const __m256d ai = _mm256_set1_pd(static_cast<double>(a[i]));
    const float* row = bt + i * count;
    for (size_t t = 0; t < kTiles; ++t) {
      const float* col = row + 8 * t;
      if (kMaskLast && t + 1 == kTiles) {
        AccumulateTile8(ai, _mm_maskload_ps(col, mask_lo),
                        _mm_maskload_ps(col + 4, mask_hi), &acc[2 * t],
                        &acc[2 * t + 1]);
      } else {
        AccumulateTile8(ai, _mm_loadu_ps(col), _mm_loadu_ps(col + 4),
                        &acc[2 * t], &acc[2 * t + 1]);
      }
    }
  }
  const size_t full = kMaskLast ? kTiles - 1 : kTiles;
  for (size_t t = 0; t < 2 * full; ++t) _mm256_storeu_pd(out + 4 * t, acc[t]);
  if (kMaskLast) {
    alignas(32) double last[8];
    _mm256_store_pd(last, acc[2 * kTiles - 2]);
    _mm256_store_pd(last + 4, acc[2 * kTiles - 1]);
    std::memcpy(out + 8 * full, last, (width - 8 * full) * sizeof(double));
  }
}

// 32 targets per block as four 8-wide tiles, then the last 1-31 targets as
// one to four tiles, the final one partial.
void Avx2SquaredCols(const float* a, const float* bt, size_t count,
                     size_t dim, double* out) {
  size_t j = 0;
  for (; j + 32 <= count; j += 32) {
    SquaredTiles<4, false>(a, bt + j, count, dim, 32, out + j);
  }
  const size_t rest = count - j;
  switch ((rest + 7) / 8) {
    case 1:
      SquaredTiles<1, true>(a, bt + j, count, dim, rest, out + j);
      break;
    case 2:
      SquaredTiles<2, true>(a, bt + j, count, dim, rest, out + j);
      break;
    case 3:
      SquaredTiles<3, true>(a, bt + j, count, dim, rest, out + j);
      break;
    case 4:
      SquaredTiles<4, true>(a, bt + j, count, dim, rest, out + j);
      break;
    default:
      break;
  }
}

void Avx2EuclideanCols(const float* a, const float* bt, size_t count,
                       size_t dim, double* out) {
  Avx2SquaredCols(a, bt, count, dim, out);
  size_t j = 0;
  for (; j + 4 <= count; j += 4) {
    _mm256_storeu_pd(out + j, _mm256_sqrt_pd(_mm256_loadu_pd(out + j)));
  }
  for (; j < count; ++j) out[j] = std::sqrt(out[j]);
}

void Avx2Axpy(float* acc, float scale, const float* v, size_t dim) {
  const __m256 s = _mm256_set1_ps(scale);
  size_t i = 0;
  for (; i + 8 <= dim; i += 8) {
    const __m256 cur = _mm256_loadu_ps(acc + i);
    const __m256 term = _mm256_mul_ps(s, _mm256_loadu_ps(v + i));
    _mm256_storeu_ps(acc + i, _mm256_add_ps(cur, term));
  }
  for (; i < dim; ++i) acc[i] += scale * v[i];
}

void Avx2AddInPlace(float* acc, const float* v, size_t dim) {
  size_t i = 0;
  for (; i + 8 <= dim; i += 8) {
    _mm256_storeu_ps(
        acc + i, _mm256_add_ps(_mm256_loadu_ps(acc + i),
                               _mm256_loadu_ps(v + i)));
  }
  for (; i < dim; ++i) acc[i] += v[i];
}

void Avx2ScaleInPlace(float* v, float scale, size_t dim) {
  const __m256 s = _mm256_set1_ps(scale);
  size_t i = 0;
  for (; i + 8 <= dim; i += 8) {
    _mm256_storeu_ps(v + i, _mm256_mul_ps(_mm256_loadu_ps(v + i), s));
  }
  for (; i < dim; ++i) v[i] *= scale;
}

int64_t Avx2DotI8(const int8_t* a, const int8_t* b, size_t dim) {
  // maddubs multiplies unsigned |a| lanes by signed sign(b, a) lanes and adds
  // adjacent pairs into int16: with inputs in [-127, 127] each pair is at
  // most 2 * 127 * 127 = 32258 < 32767, so no saturation. madd_epi16 against
  // ones widens to int32. Lane accumulators are drained to the int64 total
  // every kBlock elements, far before any int32 overflow.
  constexpr size_t kBlock = 8192;
  const __m256i ones = _mm256_set1_epi16(1);
  int64_t total = 0;
  size_t i = 0;
  while (i + 32 <= dim) {
    const size_t block_end = std::min(i + ((dim - i) / 32) * 32, i + kBlock);
    __m256i acc = _mm256_setzero_si256();
    for (; i + 32 <= block_end; i += 32) {
      const __m256i va =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
      const __m256i vb =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
      const __m256i abs_a = _mm256_sign_epi8(va, va);
      const __m256i signed_b = _mm256_sign_epi8(vb, va);
      const __m256i p16 = _mm256_maddubs_epi16(abs_a, signed_b);
      acc = _mm256_add_epi32(acc, _mm256_madd_epi16(p16, ones));
    }
    alignas(32) int32_t lanes[8];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
    for (int32_t lane : lanes) total += lane;
  }
  for (; i < dim; ++i) {
    total += static_cast<int32_t>(a[i]) * static_cast<int32_t>(b[i]);
  }
  return total;
}

// Four arcs per step. The usable test, the clamped step and the improvement
// test are per-lane IEEE compares, adds and a max, rounded exactly as the
// scalar loop rounds them: `_mm256_max_pd(reduced, 0)` returns its second
// operand unless reduced > 0, which is the scalar's `reduced > 0 ? reduced :
// 0` for -0.0 and NaN too, and _CMP_NLE_UQ is `!(residual <= eps)`. Few
// lanes improve once the first nodes are settled, so the store sits behind a
// movemask test.
size_t Avx2RelaxArcs(double from_dist, double from_potential,
                     const double* residual, const double* cost,
                     const double* potential, size_t count, double eps,
                     double* dist, uint32_t* improved) {
  const __m256d du = _mm256_set1_pd(from_dist);
  const __m256d pu = _mm256_set1_pd(from_potential);
  const __m256d veps = _mm256_set1_pd(eps);
  const __m256d zero = _mm256_setzero_pd();
  size_t num_improved = 0;
  size_t k = 0;
  for (; k + 4 <= count; k += 4) {
    const __m256d reduced = _mm256_sub_pd(
        _mm256_add_pd(_mm256_loadu_pd(cost + k), pu),
        _mm256_loadu_pd(potential + k));
    const __m256d next = _mm256_add_pd(du, _mm256_max_pd(reduced, zero));
    const __m256d old = _mm256_loadu_pd(dist + k);
    const __m256d improves = _mm256_and_pd(
        _mm256_cmp_pd(_mm256_loadu_pd(residual + k), veps, _CMP_NLE_UQ),
        _mm256_cmp_pd(_mm256_add_pd(next, veps), old, _CMP_LT_OQ));
    const int mask = _mm256_movemask_pd(improves);
    if (mask == 0) continue;
    _mm256_storeu_pd(dist + k, _mm256_blendv_pd(old, next, improves));
    for (int lane = 0; lane < 4; ++lane) {
      if ((mask >> lane) & 1) {
        improved[num_improved++] = static_cast<uint32_t>(k + lane);
      }
    }
  }
  // The scalar formula again rather than `RelaxArc`: an inline function
  // compiled here, with -mavx2, could be the copy the linker keeps for
  // every caller.
  for (; k < count; ++k) {
    if (residual[k] <= eps) continue;
    const double reduced = cost[k] + from_potential - potential[k];
    const double step = reduced > 0.0 ? reduced : 0.0;
    if (from_dist + step + eps < dist[k]) {
      dist[k] = from_dist + step;
      improved[num_improved++] = static_cast<uint32_t>(k);
    }
  }
  return num_improved;
}

// Two passes, neither with a loop-carried compare-and-blend: the minimum
// over four independent accumulators (`_mm256_min_pd(x, acc)` keeps acc
// unless x < acc, so NaN never enters; a partial last group loads +inf in
// its missing lanes), then the first entry equal to it. The scalar's
// strict-`<` scan also stops at the first entry equal to the minimum, and
// -0.0 == +0.0 there as here.
size_t Avx2FirstArgmin(const double* v, size_t count) {
  const __m256d inf = _mm256_set1_pd(std::numeric_limits<double>::infinity());
  __m256d acc[4] = {inf, inf, inf, inf};
  size_t k = 0;
  for (; k + 16 <= count; k += 16) {
    for (size_t t = 0; t < 4; ++t) {
      acc[t] = _mm256_min_pd(_mm256_loadu_pd(v + k + 4 * t), acc[t]);
    }
  }
  for (size_t t = 0; k + 4 <= count; k += 4, ++t) {
    acc[t] = _mm256_min_pd(_mm256_loadu_pd(v + k), acc[t]);
  }
  const size_t rest = count - k;
  if (rest > 0) {
    const __m256i lanes = _mm256_cvtepi32_epi64(_mm_loadu_si128(
        reinterpret_cast<const __m128i*>(kLaneMask + 8 - rest)));
    const __m256d x = _mm256_blendv_pd(inf, _mm256_maskload_pd(v + k, lanes),
                                       _mm256_castsi256_pd(lanes));
    acc[3] = _mm256_min_pd(x, acc[3]);
  }
  __m256d min = _mm256_min_pd(_mm256_min_pd(acc[0], acc[1]),
                              _mm256_min_pd(acc[2], acc[3]));
  min = _mm256_min_pd(min, _mm256_permute2f128_pd(min, min, 1));
  min = _mm256_min_pd(min, _mm256_permute_pd(min, 0b0101));
  if (!(_mm256_cvtsd_f64(min) < std::numeric_limits<double>::infinity())) {
    return count;
  }
  for (k = 0; k + 4 <= count; k += 4) {
    const int equal = _mm256_movemask_pd(
        _mm256_cmp_pd(_mm256_loadu_pd(v + k), min, _CMP_EQ_OQ));
    if (equal != 0) return k + static_cast<size_t>(__builtin_ctz(equal));
  }
  const double least = _mm256_cvtsd_f64(min);
  for (; k < count; ++k) {
    if (v[k] == least) return k;
  }
  return count;
}

constexpr KernelTable kAvx2Table = {
    "avx2",          Avx2SquaredDistance, Avx2Dot,
    Avx2SumSquares,  Avx2EuclideanRows,   Avx2SquaredCols,
    Avx2EuclideanCols, Avx2Axpy,          Avx2AddInPlace,
    Avx2ScaleInPlace,  Avx2DotI8,         Avx2RelaxArcs,
    Avx2FirstArgmin,
};

}  // namespace

namespace internal {
const KernelTable& Avx2Table() { return kAvx2Table; }
}  // namespace internal

}  // namespace vz::simd

#endif  // VZ_HAVE_AVX2_TU
