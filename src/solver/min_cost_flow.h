#ifndef VZ_SOLVER_MIN_COST_FLOW_H_
#define VZ_SOLVER_MIN_COST_FLOW_H_

#include <cstddef>
#include <vector>

#include "common/deadline.h"
#include "common/status.h"
#include "common/statusor.h"

namespace vz::solver {

/// Minimum-cost maximum-flow solver over a directed graph with real-valued
/// capacities and non-negative real-valued costs.
///
/// Implements successive shortest path augmentation with Johnson potentials
/// (Dijkstra on the reduced costs). For transportation-shaped instances —
/// the only shape Video-zilla produces (Sec. 3.2) — every augmentation
/// saturates a super-source or super-sink arc, so the number of augmenting
/// iterations is bounded by the number of supply plus demand nodes even with
/// real-valued capacities.
///
/// This is the reference, not the production path: the EMD entries
/// (`solver/emd.h`) solve the same transport networks on a dense layout
/// with this class's node order, arc order and arithmetic, and
/// `solver_property_test` checks them against it bit for bit. Nothing in
/// `src/` outside this file and its source calls it.
class MinCostFlow {
 public:
  /// Result of a solve: total flow shipped and its total cost.
  struct Result {
    double max_flow = 0.0;
    double min_cost = 0.0;
  };

  MinCostFlow() = default;

  MinCostFlow(const MinCostFlow&) = delete;
  MinCostFlow& operator=(const MinCostFlow&) = delete;

  /// Adds a node and returns its id (0-based, dense).
  int AddNode();

  /// Adds `count` nodes and returns the id of the first.
  int AddNodes(int count);

  /// Adds a directed arc. Returns the arc id usable with `FlowOnArc`, or an
  /// error for out-of-range endpoints, negative capacity, or negative cost.
  StatusOr<int> AddArc(int from, int to, double capacity, double cost);

  /// Number of nodes added so far.
  int num_nodes() const { return static_cast<int>(first_out_.size()); }

  /// Number of arcs added so far (residual arcs are not counted).
  int num_arcs() const { return static_cast<int>(head_.size()) / 2; }

  /// Computes the maximum flow from `source` to `sink` at minimum cost.
  /// May be called once per instance.
  ///
  /// `cancel` (may be null) is checked at the top of every augmentation
  /// pivot — the unit of work that bounds checkpoint latency to one Dijkstra
  /// pass. A fired token aborts the solve with `kCancelled`; partial flow is
  /// never reported as a result, so a cancelled solve cannot leak a wrong
  /// distance into callers or caches.
  StatusOr<Result> Solve(int source, int sink,
                         const CancelToken* cancel = nullptr);

  /// Flow shipped on arc `arc_id` after `Solve`.
  double FlowOnArc(int arc_id) const;

 private:
  // Arcs are stored as interleaved forward/reverse pairs: arc 2k is the k-th
  // user arc, arc 2k+1 its residual twin. `head_[a]` is the target node of
  // arc a, residual_[a] the remaining capacity, cost_[a] the unit cost.
  std::vector<int> head_;
  std::vector<double> residual_;
  std::vector<double> cost_;
  std::vector<double> capacity_;              // original capacity, forward arcs
  std::vector<std::vector<int>> first_out_;   // node -> outgoing arc indices
  bool solved_ = false;
};

}  // namespace vz::solver

#endif  // VZ_SOLVER_MIN_COST_FLOW_H_
