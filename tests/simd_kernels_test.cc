#include "vector/simd_kernels.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.h"

namespace vz::simd {
namespace {

// Bitwise comparison (signed zeros and infinities must match exactly, which
// double== cannot express), except that two NaNs always compare equal: NaN
// *payload* bits depend on which operand of a commutative add the compiler
// put first, and are explicitly outside the kernel contract. NaN-ness
// itself must still agree — a NaN on one side and a number on the other
// fails.
::testing::AssertionResult BitEqual(double a, double b) {
  if (std::isnan(a) && std::isnan(b)) return ::testing::AssertionSuccess();
  uint64_t ba, bb;
  std::memcpy(&ba, &a, sizeof(ba));
  std::memcpy(&bb, &b, sizeof(bb));
  if (ba == bb) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << a << " != " << b << " (bits 0x" << std::hex << ba << " vs 0x"
         << bb << ")";
}

// Elementwise float-buffer comparison under the same NaN rule.
::testing::AssertionResult BuffersBitEqual(const float* a, const float* b,
                                           size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (std::isnan(a[i]) && std::isnan(b[i])) continue;
    uint32_t ba, bb;
    std::memcpy(&ba, &a[i], sizeof(ba));
    std::memcpy(&bb, &b[i], sizeof(bb));
    if (ba != bb) {
      return ::testing::AssertionFailure()
             << "element " << i << ": " << a[i] << " != " << b[i];
    }
  }
  return ::testing::AssertionSuccess();
}

// The dimension sweep of the kernel contract: every width around the 4/8/32
// lane boundaries plus two deep-loop sizes.
std::vector<size_t> SweepDims() {
  std::vector<size_t> dims;
  for (size_t d = 1; d <= 67; ++d) dims.push_back(d);
  dims.push_back(512);
  dims.push_back(2048);
  return dims;
}

// Fills `n` floats with a mix of magnitudes; with `poison`, sprinkles NaN
// and +-Inf payloads in as well.
void FillFloats(Rng* rng, float* out, size_t n, bool poison) {
  for (size_t i = 0; i < n; ++i) {
    const double mag = std::pow(10.0, rng->UniformDouble(-6.0, 6.0));
    out[i] = static_cast<float>(rng->Gaussian(0.0, mag));
    if (poison && rng->Bernoulli(0.05)) {
      switch (rng->UniformInt(0, 2)) {
        case 0: out[i] = std::numeric_limits<float>::quiet_NaN(); break;
        case 1: out[i] = std::numeric_limits<float>::infinity(); break;
        default: out[i] = -std::numeric_limits<float>::infinity(); break;
      }
    }
  }
}

class SimdKernelsTest : public ::testing::TestWithParam<bool> {
 protected:
  // Parameter: whether the buffers carry NaN/Inf payloads.
  bool poison() const { return GetParam(); }
};

TEST_P(SimdKernelsTest, PairReductionsMatchScalarBitForBit) {
  const KernelTable& active = Active();
  const KernelTable& scalar = Scalar();
  Rng rng(poison() ? 77 : 42);
  // Slack so every dim can be tested at unaligned starting offsets.
  constexpr size_t kMaxOffset = 7;
  std::vector<float> a(2048 + kMaxOffset), b(2048 + kMaxOffset);
  for (size_t dim : SweepDims()) {
    for (size_t offset = 0; offset <= kMaxOffset; offset += 3) {
      FillFloats(&rng, a.data(), dim + offset, poison());
      FillFloats(&rng, b.data(), dim + offset, poison());
      const float* pa = a.data() + offset;
      const float* pb = b.data() + offset;
      EXPECT_TRUE(BitEqual(active.squared_distance(pa, pb, dim),
                           scalar.squared_distance(pa, pb, dim)))
          << "squared_distance dim=" << dim << " offset=" << offset;
      EXPECT_TRUE(BitEqual(active.dot(pa, pb, dim), scalar.dot(pa, pb, dim)))
          << "dot dim=" << dim << " offset=" << offset;
      EXPECT_TRUE(
          BitEqual(active.sum_squares(pa, dim), scalar.sum_squares(pa, dim)))
          << "sum_squares dim=" << dim << " offset=" << offset;
    }
  }
}

TEST_P(SimdKernelsTest, BatchedEuclideanMatchesScalarBitForBit) {
  const KernelTable& active = Active();
  const KernelTable& scalar = Scalar();
  Rng rng(poison() ? 177 : 142);
  const std::vector<size_t> counts = {1, 5, 8, 9, 16, 33};
  for (size_t dim : {1UL, 3UL, 17UL, 64UL, 512UL}) {
    for (size_t count : counts) {
      std::vector<float> query(dim);
      std::vector<float> targets(count * dim);
      FillFloats(&rng, query.data(), dim, poison());
      FillFloats(&rng, targets.data(), count * dim, poison());
      std::vector<const float*> rows(count);
      for (size_t j = 0; j < count; ++j) rows[j] = targets.data() + j * dim;

      std::vector<double> want(count), rows_out(count), cols_out(count);
      scalar.euclidean_rows(query.data(), rows.data(), count, dim,
                            want.data());
      active.euclidean_rows(query.data(), rows.data(), count, dim,
                            rows_out.data());
      // Column-major path: transpose once, then the tile kernel.
      std::vector<float> tile(count * dim);
      TransposeRows(rows.data(), count, dim, tile.data());
      active.euclidean_cols(query.data(), tile.data(), count, dim,
                            cols_out.data());
      std::vector<double> cols_scalar(count);
      scalar.euclidean_cols(query.data(), tile.data(), count, dim,
                            cols_scalar.data());
      for (size_t j = 0; j < count; ++j) {
        EXPECT_TRUE(BitEqual(rows_out[j], want[j]))
            << "rows dim=" << dim << " count=" << count << " j=" << j;
        EXPECT_TRUE(BitEqual(cols_out[j], want[j]))
            << "cols dim=" << dim << " count=" << count << " j=" << j;
        EXPECT_TRUE(BitEqual(cols_scalar[j], want[j]))
            << "cols-scalar dim=" << dim << " count=" << count << " j=" << j;
      }
    }
  }
}

// The tile kernels at every block boundary of the AVX2 walk: no column,
// one 8-wide tile, partial or not, one and two 32-wide blocks, and 32-wide
// blocks followed by a remainder of one, two, three or four tiles whose last
// tile is partial or full.
TEST_P(SimdKernelsTest, ColumnKernelsMatchScalarBitForBit) {
  const KernelTable& active = Active();
  const KernelTable& scalar = Scalar();
  Rng rng(poison() ? 377 : 342);
  const std::vector<size_t> counts = {0,  1,  7,  8,  16, 20, 24, 31, 32,
                                      33, 40, 48, 56, 63, 64, 65, 100};
  // One slot past `count` catches a write beyond the outputs.
  constexpr double kUnwritten = -1.0;
  for (size_t dim : {1UL, 13UL, 48UL, 512UL}) {
    for (size_t count : counts) {
      std::vector<float> query(dim);
      std::vector<float> targets(count * dim);
      FillFloats(&rng, query.data(), dim, poison());
      FillFloats(&rng, targets.data(), count * dim, poison());
      std::vector<const float*> rows(count);
      for (size_t j = 0; j < count; ++j) rows[j] = targets.data() + j * dim;
      std::vector<float> tile(count * dim);
      TransposeRows(rows.data(), count, dim, tile.data());

      std::vector<double> sq_active(count + 1, kUnwritten);
      std::vector<double> sq_scalar(count + 1, kUnwritten);
      std::vector<double> eu_active(count + 1, kUnwritten);
      std::vector<double> eu_scalar(count + 1, kUnwritten);
      active.squared_cols(query.data(), tile.data(), count, dim,
                          sq_active.data());
      scalar.squared_cols(query.data(), tile.data(), count, dim,
                          sq_scalar.data());
      active.euclidean_cols(query.data(), tile.data(), count, dim,
                            eu_active.data());
      scalar.euclidean_cols(query.data(), tile.data(), count, dim,
                            eu_scalar.data());
      for (size_t j = 0; j < count; ++j) {
        const double want =
            scalar.squared_distance(query.data(), rows[j], dim);
        EXPECT_TRUE(BitEqual(sq_scalar[j], want))
            << "squared scalar dim=" << dim << " count=" << count
            << " j=" << j;
        EXPECT_TRUE(BitEqual(sq_active[j], want))
            << "squared dim=" << dim << " count=" << count << " j=" << j;
        EXPECT_TRUE(BitEqual(eu_scalar[j], std::sqrt(want)))
            << "euclidean scalar dim=" << dim << " count=" << count
            << " j=" << j;
        EXPECT_TRUE(BitEqual(eu_active[j], std::sqrt(want)))
            << "euclidean dim=" << dim << " count=" << count << " j=" << j;
      }
      EXPECT_EQ(sq_active[count], kUnwritten) << "count=" << count;
      EXPECT_EQ(sq_scalar[count], kUnwritten) << "count=" << count;
      EXPECT_EQ(eu_active[count], kUnwritten) << "count=" << count;
      EXPECT_EQ(eu_scalar[count], kUnwritten) << "count=" << count;
    }
  }
}

TEST_P(SimdKernelsTest, ElementwiseUpdatesMatchScalarBitForBit) {
  const KernelTable& active = Active();
  const KernelTable& scalar = Scalar();
  Rng rng(poison() ? 277 : 242);
  for (size_t dim : SweepDims()) {
    std::vector<float> acc(dim), v(dim);
    FillFloats(&rng, acc.data(), dim, poison());
    FillFloats(&rng, v.data(), dim, poison());
    const float s = static_cast<float>(rng.Gaussian(0.0, 3.0));

    std::vector<float> acc_a = acc, acc_s = acc;
    active.axpy(acc_a.data(), s, v.data(), dim);
    scalar.axpy(acc_s.data(), s, v.data(), dim);
    EXPECT_TRUE(BuffersBitEqual(acc_a.data(), acc_s.data(), dim))
        << "axpy dim=" << dim;

    acc_a = acc;
    acc_s = acc;
    active.add_in_place(acc_a.data(), v.data(), dim);
    scalar.add_in_place(acc_s.data(), v.data(), dim);
    EXPECT_TRUE(BuffersBitEqual(acc_a.data(), acc_s.data(), dim))
        << "add_in_place dim=" << dim;

    acc_a = acc;
    acc_s = acc;
    active.scale_in_place(acc_a.data(), s, dim);
    scalar.scale_in_place(acc_s.data(), s, dim);
    EXPECT_TRUE(BuffersBitEqual(acc_a.data(), acc_s.data(), dim))
        << "scale_in_place dim=" << dim;
  }
}

INSTANTIATE_TEST_SUITE_P(FiniteAndPoisoned, SimdKernelsTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "NanInfPayloads" : "Finite";
                         });

// The transport-solve kernels over every length 0-67 (each 4-lane group
// boundary, with a partial last group of each size). Residuals straddle the
// tolerance and include NaN; costs include -0.0; distances include +inf and
// ties; every table must write the same distances bit for bit and report
// the same improved nodes.
TEST(SimdKernelsSolverTest, RelaxArcsMatchesScalarBitForBit) {
  const KernelTable& active = Active();
  const KernelTable& scalar = Scalar();
  Rng rng(4242);
  constexpr double kEps = 1e-12;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (size_t count = 0; count <= 67; ++count) {
    for (int trial = 0; trial < 8; ++trial) {
      std::vector<double> residual(count), cost(count), potential(count);
      std::vector<double> dist(count + 1, -1.0);  // one slot past `count`
      for (size_t k = 0; k < count; ++k) {
        switch (rng.UniformInt(0, 5)) {
          case 0: residual[k] = 0.0; break;
          case 1: residual[k] = kEps; break;
          case 2: residual[k] = 2 * kEps; break;
          case 3: residual[k] = std::numeric_limits<double>::quiet_NaN();
            break;
          default: residual[k] = rng.UniformDouble(0.0, 1.0); break;
        }
        cost[k] = rng.Bernoulli(0.2) ? -0.0 : rng.UniformDouble(-2.0, 2.0);
        potential[k] = static_cast<double>(rng.UniformInt(-2, 2));
        dist[k] = rng.Bernoulli(0.3) ? kInf
                                     : static_cast<double>(rng.UniformInt(0, 3));
      }
      const double from_dist = static_cast<double>(rng.UniformInt(0, 2));
      const double from_potential = rng.Bernoulli(0.5)
                                        ? rng.UniformDouble(-1.0, 1.0)
                                        : static_cast<double>(trial % 3);
      std::vector<double> dist_a = dist, dist_s = dist;
      std::vector<uint32_t> improved_a(count), improved_s(count);
      const size_t num_a = active.relax_arcs(
          from_dist, from_potential, residual.data(), cost.data(),
          potential.data(), count, kEps, dist_a.data(), improved_a.data());
      const size_t num_s = scalar.relax_arcs(
          from_dist, from_potential, residual.data(), cost.data(),
          potential.data(), count, kEps, dist_s.data(), improved_s.data());
      ASSERT_EQ(num_a, num_s) << "count=" << count;
      for (size_t k = 0; k < num_s; ++k) {
        EXPECT_EQ(improved_a[k], improved_s[k]) << "count=" << count;
      }
      for (size_t k = 0; k <= count; ++k) {
        EXPECT_TRUE(BitEqual(dist_a[k], dist_s[k]))
            << "count=" << count << " k=" << k;
      }
      EXPECT_EQ(dist_s[count], -1.0) << "count=" << count;
      // The scalar table is the per-arc formula.
      std::vector<double> dist_r = dist;
      size_t num_r = 0;
      for (size_t k = 0; k < count; ++k) {
        if (RelaxArc(from_dist, from_potential, residual[k], cost[k],
                     potential[k], kEps, &dist_r[k])) {
          EXPECT_EQ(improved_s[num_r++], k);
        }
      }
      EXPECT_EQ(num_r, num_s);
    }
  }
}

TEST(SimdKernelsSolverTest, FirstArgminMatchesScalar) {
  const KernelTable& active = Active();
  const KernelTable& scalar = Scalar();
  Rng rng(2424);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (size_t count = 0; count <= 67; ++count) {
    for (int trial = 0; trial < 16; ++trial) {
      std::vector<double> v(count);
      for (double& x : v) {
        switch (rng.UniformInt(0, 6)) {
          case 0: x = kInf; break;
          case 1: x = std::numeric_limits<double>::quiet_NaN(); break;
          case 2: x = 0.0; break;
          case 3: x = -0.0; break;
          default: x = static_cast<double>(rng.UniformInt(0, 4)); break;
        }
      }
      if (trial % 4 == 0) {  // nothing below +inf
        for (double& x : v) {
          x = rng.Bernoulli(0.5) ? kInf
                                 : std::numeric_limits<double>::quiet_NaN();
        }
      }
      size_t want = count;
      double best = kInf;
      for (size_t j = 0; j < count; ++j) {
        if (v[j] < best) {
          best = v[j];
          want = j;
        }
      }
      EXPECT_EQ(scalar.first_argmin(v.data(), count), want)
          << "count=" << count;
      EXPECT_EQ(active.first_argmin(v.data(), count), want)
          << "count=" << count;
    }
  }
}

TEST(SimdKernelsInt8Test, DotI8MatchesScalarAndIsExact) {
  const KernelTable& active = Active();
  const KernelTable& scalar = Scalar();
  Rng rng(1234);
  for (size_t dim : SweepDims()) {
    for (size_t offset = 0; offset <= 5; offset += 5) {
      std::vector<int8_t> a(dim + offset), b(dim + offset);
      for (size_t i = 0; i < dim + offset; ++i) {
        a[i] = static_cast<int8_t>(rng.UniformInt(-127, 127));
        b[i] = static_cast<int8_t>(rng.UniformInt(-127, 127));
      }
      const int8_t* pa = a.data() + offset;
      const int8_t* pb = b.data() + offset;
      int64_t want = 0;
      for (size_t i = 0; i < dim; ++i) {
        want += static_cast<int32_t>(pa[i]) * static_cast<int32_t>(pb[i]);
      }
      EXPECT_EQ(scalar.dot_i8(pa, pb, dim), want) << "dim=" << dim;
      EXPECT_EQ(active.dot_i8(pa, pb, dim), want)
          << "dim=" << dim << " offset=" << offset;
    }
  }
  // Saturating corner: every pair at the magnitude cap.
  std::vector<int8_t> hi(2048, 127), lo(2048, -127);
  EXPECT_EQ(active.dot_i8(hi.data(), lo.data(), 2048),
            -127LL * 127LL * 2048LL);
  EXPECT_EQ(active.dot_i8(hi.data(), hi.data(), 2048),
            127LL * 127LL * 2048LL);
}

TEST(SimdKernelsDispatchTest, ForceScalarSwitchesTable) {
  const bool had_avx2 = Avx2Active();
  ForceScalar(true);
  EXPECT_FALSE(Avx2Active());
  EXPECT_STREQ(Active().name, "scalar");
  ForceScalar(false);
  EXPECT_EQ(Avx2Active(), had_avx2);
}

TEST(SimdKernelsDispatchTest, TransposeRoundTrip) {
  Rng rng(5);
  const size_t count = 9, dim = 13;
  std::vector<float> data(count * dim);
  FillFloats(&rng, data.data(), data.size(), false);
  std::vector<const float*> rows(count);
  for (size_t j = 0; j < count; ++j) rows[j] = data.data() + j * dim;
  std::vector<float> tile(count * dim);
  TransposeRows(rows.data(), count, dim, tile.data());
  for (size_t j = 0; j < count; ++j) {
    for (size_t i = 0; i < dim; ++i) {
      EXPECT_EQ(tile[i * count + j], rows[j][i]);
    }
  }
}

TEST(SimdKernelsDispatchTest, AlignedAllocatorAligns) {
  std::vector<float, AlignedAllocator<float>> buf(1000);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(buf.data()) % kSoAAlignment, 0u);
}

}  // namespace
}  // namespace vz::simd
