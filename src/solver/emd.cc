#include "solver/emd.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>

#include "vector/simd_kernels.h"

namespace vz::solver {

namespace {

// The reference solver's residual tolerance (solver/min_cost_flow.cc): the
// dense solve keeps its arithmetic.
constexpr double kFlowEps = 1e-12;
constexpr double kInf = std::numeric_limits<double>::infinity();

// Writes `weights` normalized to sum to 1 into `out`. Errors on negative
// entries or zero mass.
Status Normalize(const std::vector<double>& weights, std::vector<double>* out) {
  double total = 0.0;
  for (double w : weights) {
    if (w < 0.0) return Status::InvalidArgument("negative weight");
    total += w;
  }
  if (total <= 0.0) return Status::InvalidArgument("zero total weight");
  out->assign(weights.begin(), weights.end());
  for (double& w : *out) w /= total;
  return Status::OK();
}

// The checks every instance passes before its ground distances are read:
// non-empty sides, a valid threshold (thresholded solves only), then each
// side's weights, normalized into `s` and `d`.
Status Prepare(const std::vector<double>& supplies,
               const std::vector<double>& demands,
               std::optional<double> threshold, std::vector<double>* s,
               std::vector<double>* d) {
  if (supplies.empty() || demands.empty()) {
    return Status::InvalidArgument("EMD inputs must be non-empty");
  }
  if (threshold.has_value() &&
      (!std::isfinite(*threshold) || *threshold < 0.0)) {
    return Status::InvalidArgument("threshold must be finite and >= 0");
  }
  VZ_RETURN_IF_ERROR(Normalize(supplies, s));
  return Normalize(demands, d);
}

Status CheckGround(double cost) {
  if (cost < 0.0 || !std::isfinite(cost)) {
    return Status::InvalidArgument("ground distance must be finite and >= 0");
  }
  return Status::OK();
}

// The callback entries' ground matrix: `distance` once per pair in
// ascending (i, j) order, after the instance's own checks, stopping at the
// first invalid value.
StatusOr<std::vector<double>> Materialize(const std::vector<double>& supplies,
                                          const std::vector<double>& demands,
                                          std::optional<double> threshold,
                                          const GroundDistanceFn& distance) {
  std::vector<double> s;
  std::vector<double> d;
  VZ_RETURN_IF_ERROR(Prepare(supplies, demands, threshold, &s, &d));
  const size_t n = supplies.size();
  const size_t m = demands.size();
  std::vector<double> ground(n * m);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < m; ++j) {
      ground[i * m + j] = distance(i, j);
      VZ_RETURN_IF_ERROR(CheckGround(ground[i * m + j]));
    }
  }
  return ground;
}

// One transport instance as a dense residual graph, solved by successive
// shortest paths with Johnson potentials exactly as the reference solver
// (solver/min_cost_flow.h) solves the same network built arc by arc:
//
//  - Node ids: source 0, sink 1, the transshipment hub 2 (thresholded
//    only), then the supplies, then the demands.
//  - Arcs, in each node's insertion order in the reference: the source to
//    every supply; the sink to the twins of the demand arcs; the hub to the
//    supply twins, then to every demand; supply i to the source twin, the
//    hub, then each demand j it has an arc to (cost < threshold),
//    ascending; demand j to the sink, the hub twin, then the supply twins,
//    ascending. No node has two arcs to one node, so a parent node names
//    the arc.
//  - Residuals: one array per arc family, the supply->demand arcs and their
//    twins as n x m matrices. A missing arc holds residual 0, which the
//    usable test rejects. Twin costs are the negated costs, -0.0 included.
//  - Dijkstra: nodes leave the frontier in ascending (dist, id) order,
//    which is the order the reference's heap pops them in. A settled node
//    never improves (steps are >= 0 and rounding is monotone), so the
//    heap's live entries are exactly the frontier. `relax_arcs` relaxes a node's rows
//    and `RelaxArc` its single arcs, both with the reference's formula.
//  - Frontier: the nodes fall in blocks of kBlock ids, each holding the
//    least frontier value in it and the first node with that value. The
//    next node is that node of the `first_argmin` block: the first least
//    node overall, found by a scan over the blocks instead of every node.
//    Settling a node rescans its block; an improved node only lowers its
//    block's entry.
//  - Skipped arcs: only arcs holding residual 0, which the usable test would
//    reject. A supply relaxes its demands from its first arc to its last; a
//    supply twin holds 0 until its forward arc carries flow, so each demand
//    relaxes only the twins of the arcs that have, in ascending supply
//    order.
//  - Augmentation: the bottleneck and the residual `-=`/`+=` pairs walk the
//    path back from the sink, adding `bottleneck * cost` in that order.
//
// The arrays keep their capacity between solves, so one instance per thread
// serves every solve on it.
class DenseTransport {
 public:
  // Solves the instance of `supplies` and `demands` (normalized here) over
  // the row-major `ground` matrix, read in place; with a threshold, only
  // pairs below it get a direct arc and the hub routes the rest. `cancel` is
  // checked at the top of every augmentation.
  Status Solve(const std::vector<double>& supplies,
               const std::vector<double>& demands,
               std::span<const double> ground,
               std::optional<double> threshold, const CancelToken* cancel);

  // After Solve: whether less than the full unit of mass shipped, at what
  // cost, over how many arcs, and the flow on supply i -> demand j.
  bool ShortOfMass() const { return max_flow_ < 1.0 - 1e-6; }
  double min_cost() const { return min_cost_; }
  int num_arcs() const { return num_arcs_; }
  double Flow(size_t i, size_t j) const { return 1.0 - to_demand_[i * m_ + j]; }

 private:
  static constexpr size_t kSource = 0;
  static constexpr size_t kSink = 1;
  static constexpr size_t kHub = 2;
  static constexpr size_t kBlock = 16;  // nodes per frontier block

  // An arc's residual, its twin's, and its cost.
  struct Arc {
    double* residual;
    double* twin;
    double cost;
  };

  Status Build(const std::vector<double>& supplies,
               const std::vector<double>& demands,
               std::span<const double> ground,
               std::optional<double> threshold);
  void Relax(const simd::KernelTable& kernels, size_t u);
  Arc ArcOf(size_t u, size_t v);
  // Records that node v's distance just improved through u: its parent, its
  // frontier value and its block's minimum (a node only improves downward).
  void Reached(size_t u, size_t v);
  // Rescans frontier block b for its least value and first node with it.
  void RefreshBlock(const simd::KernelTable& kernels, size_t b);
  bool IsSupply(size_t v) const {
    return v >= supply_base_ && v < demand_base_;
  }

  size_t n_ = 0;
  size_t m_ = 0;
  bool hub_ = false;
  size_t supply_base_ = 0;
  size_t demand_base_ = 0;
  size_t nodes_ = 0;
  size_t blocks_ = 0;
  int num_arcs_ = 0;
  double threshold_ = 0.0;
  const double* ground_ = nullptr;  // n x m, the caller's

  // Residuals: source -> supply i and its twin; demand j -> sink and its
  // twin; supply i -> demand j and its twin (n x m each); supply i -> hub,
  // hub -> demand j and their twins.
  std::vector<double> source_out_, source_in_;
  std::vector<double> sink_in_, sink_out_;
  std::vector<double> to_demand_, from_demand_;
  // Per supply i: its arcs lie in demands [arcs_lo_[i], arcs_hi_[i]).
  std::vector<size_t> arcs_lo_, arcs_hi_;
  std::vector<double> to_hub_, hub_to_supply_, hub_to_demand_, demand_to_hub_;
  // Per demand j, ascending: the supplies whose arc to j has carried flow.
  // Never shrunk, so its inner vectors keep their capacity.
  std::vector<std::vector<uint32_t>> twins_;
  // Cost rows of the arc families with one cost.
  std::vector<double> zero_, neg_zero_, neg_threshold_;
  // Per node, and per frontier block.
  std::vector<double> potential_, dist_, frontier_;
  std::vector<int32_t> parent_;
  std::vector<double> block_min_;
  std::vector<size_t> block_at_;
  std::vector<uint32_t> improved_;  // one row's improved nodes

  double max_flow_ = 0.0;
  double min_cost_ = 0.0;
};

Status DenseTransport::Build(const std::vector<double>& supplies,
                             const std::vector<double>& demands,
                             std::span<const double> ground,
                             std::optional<double> threshold) {
  VZ_RETURN_IF_ERROR(
      Prepare(supplies, demands, threshold, &source_out_, &sink_in_));
  n_ = supplies.size();
  m_ = demands.size();
  if (ground.size() != n_ * m_) {
    return Status::InvalidArgument(
        "ground matrix must hold supplies x demands distances");
  }
  for (double cost : ground) VZ_RETURN_IF_ERROR(CheckGround(cost));

  hub_ = threshold.has_value();
  threshold_ = threshold.value_or(0.0);
  supply_base_ = hub_ ? 3 : 2;
  demand_base_ = supply_base_ + n_;
  nodes_ = demand_base_ + m_;
  blocks_ = (nodes_ + kBlock - 1) / kBlock;
  ground_ = ground.data();
  source_in_.assign(n_, 0.0);
  sink_out_.assign(m_, 0.0);
  to_demand_.resize(n_ * m_);
  from_demand_.assign(n_ * m_, 0.0);
  arcs_lo_.assign(n_, 0);
  arcs_hi_.assign(n_, 0);
  num_arcs_ = static_cast<int>(n_ + m_);
  for (size_t i = 0; i < n_; ++i) {
    for (size_t j = 0; j < m_; ++j) {
      const bool arc = !hub_ || ground_[i * m_ + j] < threshold_;
      to_demand_[i * m_ + j] = arc ? 1.0 : 0.0;
      if (!arc) continue;
      ++num_arcs_;
      if (arcs_hi_[i] == 0) arcs_lo_[i] = j;
      arcs_hi_[i] = j + 1;
    }
  }
  if (hub_) {
    to_hub_.assign(n_, 1.0);
    hub_to_supply_.assign(n_, 0.0);
    hub_to_demand_.assign(m_, 1.0);
    demand_to_hub_.assign(m_, 0.0);
    neg_threshold_.assign(n_, -threshold_);
    num_arcs_ += static_cast<int>(n_ + m_);
  }
  if (twins_.size() < m_) twins_.resize(m_);
  for (size_t j = 0; j < m_; ++j) twins_[j].clear();
  improved_.resize(std::max(n_, m_));
  zero_.assign(std::max(n_, m_), 0.0);
  neg_zero_.assign(m_, -0.0);
  return Status::OK();
}

void DenseTransport::Relax(const simd::KernelTable& kernels, size_t u) {
  const double du = dist_[u];
  const double pu = potential_[u];
  // u's arcs into the `count` nodes from `first` on.
  const auto row = [&](const double* residual, const double* cost,
                       size_t first, size_t count) {
    const size_t improved = kernels.relax_arcs(
        du, pu, residual, cost, potential_.data() + first, count, kFlowEps,
        dist_.data() + first, improved_.data());
    for (size_t k = 0; k < improved; ++k) Reached(u, first + improved_[k]);
  };
  // u's arc into node v.
  const auto arc = [&](double residual, double cost, size_t v) {
    if (simd::RelaxArc(du, pu, residual, cost, potential_[v], kFlowEps,
                       &dist_[v])) {
      Reached(u, v);
    }
  };
  if (u == kSource) {
    row(source_out_.data(), zero_.data(), supply_base_, n_);
  } else if (u == kSink) {
    row(sink_out_.data(), neg_zero_.data(), demand_base_, m_);
  } else if (hub_ && u == kHub) {
    row(hub_to_supply_.data(), neg_threshold_.data(), supply_base_, n_);
    row(hub_to_demand_.data(), zero_.data(), demand_base_, m_);
  } else if (IsSupply(u)) {
    const size_t i = u - supply_base_;
    arc(source_in_[i], -0.0, kSource);
    if (hub_) arc(to_hub_[i], threshold_, kHub);
    const size_t lo = i * m_ + arcs_lo_[i];
    if (arcs_hi_[i] > arcs_lo_[i]) {
      row(to_demand_.data() + lo, ground_ + lo, demand_base_ + arcs_lo_[i],
          arcs_hi_[i] - arcs_lo_[i]);
    }
  } else {
    const size_t j = u - demand_base_;
    arc(sink_in_[j], 0.0, kSink);
    if (hub_) arc(demand_to_hub_[j], -0.0, kHub);
    for (const uint32_t i : twins_[j]) {
      arc(from_demand_[i * m_ + j], -ground_[i * m_ + j], supply_base_ + i);
    }
  }
}

void DenseTransport::Reached(size_t u, size_t v) {
  parent_[v] = static_cast<int32_t>(u);
  frontier_[v] = dist_[v];
  const size_t b = v / kBlock;
  if (dist_[v] < block_min_[b] ||
      (dist_[v] == block_min_[b] && v < block_at_[b])) {
    block_min_[b] = dist_[v];
    block_at_[b] = v;
  }
}

DenseTransport::Arc DenseTransport::ArcOf(size_t u, size_t v) {
  if (u == kSource) {
    const size_t i = v - supply_base_;
    return {&source_out_[i], &source_in_[i], 0.0};
  }
  if (v == kSource) {
    const size_t i = u - supply_base_;
    return {&source_in_[i], &source_out_[i], -0.0};
  }
  if (v == kSink) {
    const size_t j = u - demand_base_;
    return {&sink_in_[j], &sink_out_[j], 0.0};
  }
  if (u == kSink) {
    const size_t j = v - demand_base_;
    return {&sink_out_[j], &sink_in_[j], -0.0};
  }
  if (hub_ && v == kHub) {
    if (IsSupply(u)) {
      const size_t i = u - supply_base_;
      return {&to_hub_[i], &hub_to_supply_[i], threshold_};
    }
    const size_t j = u - demand_base_;
    return {&demand_to_hub_[j], &hub_to_demand_[j], -0.0};
  }
  if (hub_ && u == kHub) {
    if (IsSupply(v)) {
      const size_t i = v - supply_base_;
      return {&hub_to_supply_[i], &to_hub_[i], -threshold_};
    }
    const size_t j = v - demand_base_;
    return {&hub_to_demand_[j], &demand_to_hub_[j], 0.0};
  }
  if (IsSupply(u)) {
    const size_t k = (u - supply_base_) * m_ + (v - demand_base_);
    return {&to_demand_[k], &from_demand_[k], ground_[k]};
  }
  const size_t k = (v - supply_base_) * m_ + (u - demand_base_);
  return {&from_demand_[k], &to_demand_[k], -ground_[k]};
}

void DenseTransport::RefreshBlock(const simd::KernelTable& kernels,
                                  size_t b) {
  const size_t first = b * kBlock;
  const size_t count = std::min(kBlock, nodes_ - first);
  const size_t at = kernels.first_argmin(frontier_.data() + first, count);
  block_min_[b] = at == count ? kInf : frontier_[first + at];
  block_at_[b] = first + at;
}

Status DenseTransport::Solve(const std::vector<double>& supplies,
                             const std::vector<double>& demands,
                             std::span<const double> ground,
                             std::optional<double> threshold,
                             const CancelToken* cancel) {
  VZ_RETURN_IF_ERROR(Build(supplies, demands, ground, threshold));
  const simd::KernelTable& kernels = simd::Active();
  potential_.assign(nodes_, 0.0);  // valid: all costs non-negative
  max_flow_ = 0.0;
  min_cost_ = 0.0;
  for (;;) {
    if (Cancelled(cancel)) {
      return Status::Cancelled("min-cost-flow solve cancelled mid-pivot");
    }
    // Dijkstra on reduced costs.
    dist_.assign(nodes_, kInf);
    frontier_.assign(nodes_, kInf);
    parent_.assign(nodes_, -1);
    block_min_.assign(blocks_, kInf);
    block_at_.assign(blocks_, nodes_);
    dist_[kSource] = 0.0;
    // The source, at 0, leaves the frontier first.
    for (size_t u = kSource; u != nodes_;) {
      frontier_[u] = kInf;
      RefreshBlock(kernels, u / kBlock);
      Relax(kernels, u);
      const size_t b = kernels.first_argmin(block_min_.data(), blocks_);
      u = b == blocks_ ? nodes_ : block_at_[b];
    }
    if (dist_[kSink] == kInf) break;  // no augmenting path remains

    for (size_t v = 0; v < nodes_; ++v) {
      if (dist_[v] < kInf) potential_[v] += dist_[v];
    }

    double bottleneck = kInf;
    for (size_t v = kSink; v != kSource;) {
      const size_t u = static_cast<size_t>(parent_[v]);
      bottleneck = std::min(bottleneck, *ArcOf(u, v).residual);
      v = u;
    }
    if (bottleneck <= kFlowEps) break;

    for (size_t v = kSink; v != kSource;) {
      const size_t u = static_cast<size_t>(parent_[v]);
      const Arc arc = ArcOf(u, v);
      *arc.residual -= bottleneck;
      *arc.twin += bottleneck;
      min_cost_ += bottleneck * arc.cost;
      if (IsSupply(u) && v >= demand_base_) {
        std::vector<uint32_t>& twins = twins_[v - demand_base_];
        const uint32_t i = static_cast<uint32_t>(u - supply_base_);
        const auto at = std::lower_bound(twins.begin(), twins.end(), i);
        if (at == twins.end() || *at != i) twins.insert(at, i);
      }
      v = u;
    }
    max_flow_ += bottleneck;
  }
  return Status::OK();
}

DenseTransport& ThreadTransport() {
  thread_local DenseTransport transport;
  return transport;
}

}  // namespace

StatusOr<EmdResult> ExactEmd(const std::vector<double>& supplies,
                             const std::vector<double>& demands,
                             const GroundDistanceFn& distance,
                             const CancelToken* cancel) {
  VZ_ASSIGN_OR_RETURN(
      const std::vector<double> ground,
      Materialize(supplies, demands, std::nullopt, distance));
  return ExactEmd(supplies, demands, ground, cancel);
}

StatusOr<EmdResult> ExactEmd(const std::vector<double>& supplies,
                             const std::vector<double>& demands,
                             std::span<const double> ground,
                             const CancelToken* cancel) {
  DenseTransport& transport = ThreadTransport();
  VZ_RETURN_IF_ERROR(
      transport.Solve(supplies, demands, ground, std::nullopt, cancel));
  if (transport.ShortOfMass()) {
    return Status::Internal("EMD transportation did not ship full mass");
  }
  return EmdResult{transport.min_cost(), transport.num_arcs()};
}

StatusOr<EmdFlowResult> ExactEmdWithFlow(const std::vector<double>& supplies,
                                         const std::vector<double>& demands,
                                         const GroundDistanceFn& distance) {
  VZ_ASSIGN_OR_RETURN(
      const std::vector<double> ground,
      Materialize(supplies, demands, std::nullopt, distance));
  DenseTransport& transport = ThreadTransport();
  VZ_RETURN_IF_ERROR(
      transport.Solve(supplies, demands, ground, std::nullopt, nullptr));
  if (transport.ShortOfMass()) {
    return Status::Internal("EMD transportation did not ship full mass");
  }
  EmdFlowResult result;
  result.distance = transport.min_cost();
  for (size_t i = 0; i < supplies.size(); ++i) {
    for (size_t j = 0; j < demands.size(); ++j) {
      const double amount = transport.Flow(i, j);
      if (amount > 1e-12) result.flows.push_back({i, j, amount});
    }
  }
  return result;
}

StatusOr<EmdResult> ThresholdedEmd(const std::vector<double>& supplies,
                                   const std::vector<double>& demands,
                                   const GroundDistanceFn& distance,
                                   double threshold,
                                   const CancelToken* cancel) {
  VZ_ASSIGN_OR_RETURN(const std::vector<double> ground,
                      Materialize(supplies, demands, threshold, distance));
  return ThresholdedEmd(supplies, demands, ground, threshold, cancel);
}

StatusOr<EmdResult> ThresholdedEmd(const std::vector<double>& supplies,
                                   const std::vector<double>& demands,
                                   std::span<const double> ground,
                                   double threshold,
                                   const CancelToken* cancel) {
  DenseTransport& transport = ThreadTransport();
  VZ_RETURN_IF_ERROR(
      transport.Solve(supplies, demands, ground, threshold, cancel));
  if (transport.ShortOfMass()) {
    return Status::Internal("thresholded EMD did not ship full mass");
  }
  return EmdResult{transport.min_cost(), transport.num_arcs()};
}

}  // namespace vz::solver
