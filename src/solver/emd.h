#ifndef VZ_SOLVER_EMD_H_
#define VZ_SOLVER_EMD_H_

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "common/deadline.h"
#include "common/statusor.h"

namespace vz::solver {

/// Ground distance between supply item `i` and demand item `j`.
using GroundDistanceFn = std::function<double(size_t i, size_t j)>;

/// Outcome of an earth-mover's-distance computation.
struct EmdResult {
  /// The distance: minimum cumulative transport cost with both sides
  /// normalized to total mass 1 (Eq. 1 of the paper).
  double distance = 0.0;
  /// Number of arcs in the flow network that was solved — the quantity the
  /// thresholded approximation reduces (Sec. 3.2, Fig. 6).
  int num_arcs = 0;
};

/// Exact earth mover's distance between the discrete distributions
/// (`supplies`, `demands`) under `distance`.
///
/// Weights need not be pre-normalized; they are scaled to sum to 1 on each
/// side, matching the uniform 1/n weighting of Eq. 1 when callers pass all
/// ones. Errors on empty inputs, negative weights, zero-mass sides, or
/// negative ground distances. `cancel` (may be null) is checked at the top
/// of every augmentation of the transport solve; a fired token aborts with
/// `kCancelled`.
///
/// The solve is successive shortest paths with Dijkstra potentials on a
/// dense, row-major residual layout of the transport network, relaxed and
/// scanned by the `relax_arcs`/`first_argmin` kernels. It keeps
/// `MinCostFlow`'s node ids, settle order, arc order and arithmetic, so the
/// distance, `num_arcs` and every flow equal a `MinCostFlow` solve of the
/// same network bit for bit (`solver_property_test` holds it as the
/// oracle). Each thread reuses one set of solve buffers, so a solve
/// allocates nothing once its thread has seen an instance that large.
StatusOr<EmdResult> ExactEmd(const std::vector<double>& supplies,
                             const std::vector<double>& demands,
                             const GroundDistanceFn& distance,
                             const CancelToken* cancel = nullptr);

/// As above, over a dense row-major ground matrix: `ground[i *
/// demands.size() + j]` is the distance from supply i to demand j.
/// InvalidArgument when it does not hold `supplies.size() *
/// demands.size()` values.
StatusOr<EmdResult> ExactEmd(const std::vector<double>& supplies,
                             const std::vector<double>& demands,
                             std::span<const double> ground,
                             const CancelToken* cancel = nullptr);

/// One arc of an optimal transport plan.
struct EmdFlow {
  size_t from = 0;    // supply index
  size_t to = 0;      // demand index
  double amount = 0;  // mass shipped (normalized units)
};

/// Result of `ExactEmdWithFlow`: the distance plus the optimal plan.
struct EmdFlowResult {
  double distance = 0.0;
  /// Arcs carrying positive flow. Row sums equal the normalized supplies,
  /// column sums the normalized demands (Eq. 1's constraints).
  std::vector<EmdFlow> flows;
};

/// Like `ExactEmd`, but also returns the optimal transport plan — the
/// object-to-object correspondences drawn as arrows in the paper's Fig. 5.
StatusOr<EmdFlowResult> ExactEmdWithFlow(const std::vector<double>& supplies,
                                         const std::vector<double>& demands,
                                         const GroundDistanceFn& distance);

/// Thresholded-ground-distance EMD (FastEMD, Pele & Werman 2009; adopted by
/// the paper in Sec. 3.2).
///
/// The ground distance is replaced by `min(d(i, j), threshold)`: pairs closer
/// than the threshold keep direct arcs, while all farther pairs are routed
/// through one transshipment vertex whose incoming arcs cost `threshold` and
/// outgoing arcs cost 0 (Fig. 6b). The value is a lower bound on `ExactEmd`
/// and matches it when `threshold` is at least the maximum pairwise distance.
/// Solved like `ExactEmd`, with the same bit-for-bit guarantee.
StatusOr<EmdResult> ThresholdedEmd(const std::vector<double>& supplies,
                                   const std::vector<double>& demands,
                                   const GroundDistanceFn& distance,
                                   double threshold,
                                   const CancelToken* cancel = nullptr);

/// As above, over a dense row-major ground matrix (see `ExactEmd`).
StatusOr<EmdResult> ThresholdedEmd(const std::vector<double>& supplies,
                                   const std::vector<double>& demands,
                                   std::span<const double> ground,
                                   double threshold,
                                   const CancelToken* cancel = nullptr);

}  // namespace vz::solver

#endif  // VZ_SOLVER_EMD_H_
