// Deeper solver properties: exact EMD against an independent brute-force
// oracle, scale laws, and stress shapes the basic unit tests don't touch.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "solver/emd.h"
#include "solver/min_cost_flow.h"

namespace vz::solver {
namespace {

// For equal-cardinality uniform weights, EMD equals the optimal assignment
// cost / n (Birkhoff: the transportation polytope's vertices are
// permutation matrices). Brute-force all permutations as an oracle.
double AssignmentOracle(const std::vector<std::vector<double>>& cost) {
  const size_t n = cost.size();
  std::vector<size_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  double best = 1e300;
  do {
    double total = 0.0;
    for (size_t i = 0; i < n; ++i) total += cost[i][perm[i]];
    best = std::min(best, total);
  } while (std::next_permutation(perm.begin(), perm.end()));
  return best / static_cast<double>(n);
}

class EmdOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EmdOracleTest, ExactEmdMatchesAssignmentOracle) {
  Rng rng(GetParam());
  const size_t n = 2 + rng.UniformUint64(4);  // up to 5! = 120 permutations
  std::vector<std::vector<double>> cost(n, std::vector<double>(n));
  for (auto& row : cost) {
    for (double& c : row) c = rng.UniformDouble(0.0, 10.0);
  }
  std::vector<double> w(n, 1.0);
  auto emd = ExactEmd(w, w, [&cost](size_t i, size_t j) {
    return cost[i][j];
  });
  ASSERT_TRUE(emd.ok());
  EXPECT_NEAR(emd->distance, AssignmentOracle(cost), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EmdOracleTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                           12));

TEST(EmdScalingTest, DistanceScalesWithGroundDistance) {
  // EMD is linear in the ground distance: scaling every d(i,j) by c scales
  // the result by c.
  Rng rng(31);
  const size_t n = 6;
  std::vector<std::vector<double>> cost(n, std::vector<double>(n));
  for (auto& row : cost) {
    for (double& c : row) c = rng.UniformDouble(0.0, 5.0);
  }
  std::vector<double> w(n, 1.0);
  auto base = ExactEmd(w, w, [&](size_t i, size_t j) { return cost[i][j]; });
  auto scaled =
      ExactEmd(w, w, [&](size_t i, size_t j) { return 3.0 * cost[i][j]; });
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(scaled.ok());
  EXPECT_NEAR(scaled->distance, 3.0 * base->distance, 1e-9);
}

TEST(EmdScalingTest, MassConcentrationIsEquivalentToDuplication) {
  // One supply of weight 2 behaves like two coincident supplies of weight 1.
  std::vector<double> b_points = {0.0, 10.0};
  auto ground_single = [&](size_t, size_t j) {
    return std::fabs(4.0 - b_points[j]);
  };
  auto single = ExactEmd({2.0}, {1.0, 1.0}, ground_single);
  auto ground_double = [&](size_t, size_t j) {
    return std::fabs(4.0 - b_points[j]);
  };
  auto doubled = ExactEmd({1.0, 1.0}, {1.0, 1.0}, ground_double);
  ASSERT_TRUE(single.ok());
  ASSERT_TRUE(doubled.ok());
  EXPECT_NEAR(single->distance, doubled->distance, 1e-9);
}

TEST(EmdStressTest, HighlyAsymmetricCardinalities) {
  // 1 supply vs 50 demands and vice versa.
  Rng rng(37);
  std::vector<double> points(50);
  for (double& p : points) p = rng.UniformDouble(0.0, 100.0);
  std::vector<double> many(50, 1.0);
  const double anchor = 50.0;
  auto forward = ExactEmd({1.0}, many, [&](size_t, size_t j) {
    return std::fabs(anchor - points[j]);
  });
  auto backward = ExactEmd(many, {1.0}, [&](size_t i, size_t) {
    return std::fabs(points[i] - anchor);
  });
  ASSERT_TRUE(forward.ok());
  ASSERT_TRUE(backward.ok());
  // Both equal the mean absolute deviation from the anchor.
  double expected = 0.0;
  for (double p : points) expected += std::fabs(anchor - p) / 50.0;
  EXPECT_NEAR(forward->distance, expected, 1e-9);
  EXPECT_NEAR(backward->distance, expected, 1e-9);
}

TEST(EmdStressTest, ZeroWeightEntriesAreNeutral) {
  // Items with zero weight must not affect the distance.
  std::vector<double> a = {0.0, 3.0};
  std::vector<double> b = {1.0};
  auto with_zero = ExactEmd({1.0, 0.0}, {1.0}, [&](size_t i, size_t j) {
    return std::fabs(a[i] - b[j]);
  });
  auto without = ExactEmd({1.0}, {1.0}, [&](size_t, size_t) { return 1.0; });
  ASSERT_TRUE(with_zero.ok());
  ASSERT_TRUE(without.ok());
  EXPECT_NEAR(with_zero->distance, without->distance, 1e-9);
}

TEST(ThresholdedEmdStressTest, SparseGraphStillShipsEverything) {
  // With a tiny threshold almost no direct arcs exist; everything routes
  // through the transshipment vertex and the full mass still ships.
  Rng rng(41);
  const size_t n = 20;
  std::vector<double> a(n);
  std::vector<double> b(n);
  for (auto& v : a) v = rng.UniformDouble(0.0, 100.0);
  for (auto& v : b) v = rng.UniformDouble(0.0, 100.0);
  std::vector<double> w(n, 1.0);
  auto result = ThresholdedEmd(w, w, [&](size_t i, size_t j) {
    return std::fabs(a[i] - b[j]);
  }, 0.5);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result->distance, 0.0);
  EXPECT_LE(result->distance, 0.5 + 1e-9);  // capped ground distance
}

// --- The dense transport solve against MinCostFlow, bit for bit. ---

// The network the EMD entries built arc by arc before their solve moved onto
// a dense layout, solved by `MinCostFlow`: the distance, the arc count and
// the flow on every supply->demand pair (0 where there is no arc).
struct FlowOracle {
  double distance = 0.0;
  int num_arcs = 0;
  std::vector<double> flows;
};

std::vector<double> Normalized(std::vector<double> w) {
  double total = 0.0;
  for (double x : w) total += x;
  for (double& x : w) x /= total;
  return w;
}

FlowOracle SolveWithMinCostFlow(const std::vector<double>& supplies,
                                const std::vector<double>& demands,
                                const std::vector<double>& ground,
                                std::optional<double> threshold) {
  const std::vector<double> s = Normalized(supplies);
  const std::vector<double> d = Normalized(demands);
  const size_t n = s.size();
  const size_t m = d.size();
  MinCostFlow flow;
  const int source = flow.AddNode();
  const int sink = flow.AddNode();
  const int hub = threshold.has_value() ? flow.AddNode() : -1;
  const int supply_base = flow.AddNodes(static_cast<int>(n));
  const int demand_base = flow.AddNodes(static_cast<int>(m));
  for (size_t i = 0; i < n; ++i) {
    const int supply = supply_base + static_cast<int>(i);
    EXPECT_TRUE(flow.AddArc(source, supply, s[i], 0.0).ok());
    if (threshold.has_value()) {
      EXPECT_TRUE(flow.AddArc(supply, hub, 1.0, *threshold).ok());
    }
  }
  for (size_t j = 0; j < m; ++j) {
    const int demand = demand_base + static_cast<int>(j);
    EXPECT_TRUE(flow.AddArc(demand, sink, d[j], 0.0).ok());
    if (threshold.has_value()) {
      EXPECT_TRUE(flow.AddArc(hub, demand, 1.0, 0.0).ok());
    }
  }
  std::vector<int> arcs(n * m, -1);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < m; ++j) {
      const double cost = ground[i * m + j];
      if (threshold.has_value() && !(cost < *threshold)) continue;
      auto arc = flow.AddArc(supply_base + static_cast<int>(i),
                             demand_base + static_cast<int>(j), 1.0, cost);
      EXPECT_TRUE(arc.ok());
      arcs[i * m + j] = arc.ok() ? *arc : -1;
    }
  }
  FlowOracle oracle;
  oracle.num_arcs = flow.num_arcs();
  auto solved = flow.Solve(source, sink);
  EXPECT_TRUE(solved.ok());
  if (solved.ok()) oracle.distance = solved->min_cost;
  oracle.flows.assign(n * m, 0.0);
  for (size_t k = 0; k < n * m; ++k) {
    if (arcs[k] >= 0) oracle.flows[k] = flow.FlowOnArc(arcs[k]);
  }
  return oracle;
}

::testing::AssertionResult SameBits(double got, double want) {
  uint64_t g;
  uint64_t w;
  std::memcpy(&g, &got, sizeof(g));
  std::memcpy(&w, &want, sizeof(w));
  if (g == w) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << got << " vs " << want << " (bits 0x" << std::hex << g << " vs 0x"
         << w << ")";
}

// One instance shape: its size, its ground costs and its weights.
struct TransportCase {
  size_t n = 0;
  size_t m = 0;
  bool integer_costs = false;  // tie-heavy: every cost is 0, 1, 2 or 3
  enum class Weights { kOnes, kRandom, kSomeZero } weights = Weights::kOnes;
};

std::string CaseName(const ::testing::TestParamInfo<TransportCase>& info) {
  const TransportCase& c = info.param;
  static const char* const kWeights[] = {"Ones", "Random", "SomeZero"};
  return std::to_string(c.n) + "x" + std::to_string(c.m) +
         (c.integer_costs ? "IntegerCosts" : "RealCosts") +
         kWeights[static_cast<int>(c.weights)] + "Weights";
}

std::vector<double> CaseWeights(const TransportCase& c, size_t count,
                                Rng* rng) {
  std::vector<double> w(count, 1.0);
  if (c.weights == TransportCase::Weights::kOnes) return w;
  for (double& x : w) {
    const bool zero = c.weights == TransportCase::Weights::kSomeZero &&
                      rng->Bernoulli(0.3);
    x = zero ? 0.0 : rng->UniformDouble(0.1, 3.0);
  }
  w[rng->UniformUint64(count)] = 1.0;  // never zero total mass
  return w;
}

class DenseTransportOracleTest
    : public ::testing::TestWithParam<TransportCase> {};

// Every entry (callback and matrix ground, exact, with flow, thresholded at
// 0, a tiny, a middle and an at-least-max threshold) equals MinCostFlow's
// solve of the network the entries used to build, bit for bit.
TEST_P(DenseTransportOracleTest, EqualsMinCostFlowBitForBit) {
  const TransportCase& c = GetParam();
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed * 7919 + c.n * 131 + c.m);
    std::vector<double> ground(c.n * c.m);
    for (double& cost : ground) {
      cost = c.integer_costs ? static_cast<double>(rng.UniformInt(0, 3))
                             : rng.UniformDouble(0.0, 10.0);
    }
    const std::vector<double> supplies = CaseWeights(c, c.n, &rng);
    const std::vector<double> demands = CaseWeights(c, c.m, &rng);
    const auto fn = [&ground, &c](size_t i, size_t j) {
      return ground[i * c.m + j];
    };

    const FlowOracle exact =
        SolveWithMinCostFlow(supplies, demands, ground, std::nullopt);
    auto by_fn = ExactEmd(supplies, demands, fn);
    auto by_matrix = ExactEmd(supplies, demands, ground);
    ASSERT_TRUE(by_fn.ok()) << by_fn.status().ToString();
    ASSERT_TRUE(by_matrix.ok()) << by_matrix.status().ToString();
    EXPECT_TRUE(SameBits(by_fn->distance, exact.distance));
    EXPECT_TRUE(SameBits(by_matrix->distance, exact.distance));
    EXPECT_EQ(by_fn->num_arcs, exact.num_arcs);
    EXPECT_EQ(by_matrix->num_arcs, exact.num_arcs);

    auto with_flow = ExactEmdWithFlow(supplies, demands, fn);
    ASSERT_TRUE(with_flow.ok()) << with_flow.status().ToString();
    EXPECT_TRUE(SameBits(with_flow->distance, exact.distance));
    std::vector<EmdFlow> want_flows;
    for (size_t i = 0; i < c.n; ++i) {
      for (size_t j = 0; j < c.m; ++j) {
        const double amount = exact.flows[i * c.m + j];
        if (amount > 1e-12) want_flows.push_back({i, j, amount});
      }
    }
    ASSERT_EQ(with_flow->flows.size(), want_flows.size());
    for (size_t k = 0; k < want_flows.size(); ++k) {
      EXPECT_EQ(with_flow->flows[k].from, want_flows[k].from);
      EXPECT_EQ(with_flow->flows[k].to, want_flows[k].to);
      EXPECT_TRUE(SameBits(with_flow->flows[k].amount, want_flows[k].amount))
          << "flow " << k;
    }

    const double max_cost = *std::max_element(ground.begin(), ground.end());
    for (const double threshold :
         {0.0, 1e-9, 0.5 * max_cost, max_cost, 2.0 * max_cost + 1.0}) {
      SCOPED_TRACE("threshold " + std::to_string(threshold));
      const FlowOracle want =
          SolveWithMinCostFlow(supplies, demands, ground, threshold);
      auto thr_fn = ThresholdedEmd(supplies, demands, fn, threshold);
      auto thr_matrix = ThresholdedEmd(supplies, demands, ground, threshold);
      ASSERT_TRUE(thr_fn.ok()) << thr_fn.status().ToString();
      ASSERT_TRUE(thr_matrix.ok()) << thr_matrix.status().ToString();
      EXPECT_TRUE(SameBits(thr_fn->distance, want.distance));
      EXPECT_TRUE(SameBits(thr_matrix->distance, want.distance));
      EXPECT_EQ(thr_fn->num_arcs, want.num_arcs);
      EXPECT_EQ(thr_matrix->num_arcs, want.num_arcs);
    }
  }
}

std::vector<TransportCase> TransportCases() {
  std::vector<TransportCase> cases;
  const std::pair<size_t, size_t> sizes[] = {
      {1, 11}, {11, 1}, {12, 12}, {64, 27}, {64, 64}};
  for (const auto& [n, m] : sizes) {
    for (bool integer_costs : {false, true}) {
      for (auto weights :
           {TransportCase::Weights::kOnes, TransportCase::Weights::kRandom,
            TransportCase::Weights::kSomeZero}) {
        cases.push_back({n, m, integer_costs, weights});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Shapes, DenseTransportOracleTest,
                         ::testing::ValuesIn(TransportCases()), CaseName);

TEST(DenseTransportTest, RejectsAMatrixOfTheWrongSize) {
  const std::vector<double> w(3, 1.0);
  const std::vector<double> short_ground(8, 1.0);
  auto exact = ExactEmd(w, w, short_ground);
  ASSERT_FALSE(exact.ok());
  EXPECT_EQ(exact.status().code(), StatusCode::kInvalidArgument);
  auto thresholded = ThresholdedEmd(w, w, short_ground, 0.5);
  ASSERT_FALSE(thresholded.ok());
  EXPECT_EQ(thresholded.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace vz::solver
