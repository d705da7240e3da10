#ifndef VZ_CORE_OMD_H_
#define VZ_CORE_OMD_H_

#include <atomic>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/deadline.h"
#include "common/statusor.h"
#include "common/thread_pool.h"
#include "core/svs.h"
#include "index/item_metric.h"
#include "vector/feature_map.h"

namespace vz::core {

class OmdDistanceCache;

/// How OMD is evaluated.
enum class OmdMode {
  /// Exact transportation solve over the full bipartite cost matrix.
  kExact,
  /// FastOMD: thresholded ground distance with one transshipment vertex
  /// (Sec. 3.2); the threshold is `alpha` times the max pairwise distance.
  kThresholded,
};

/// Parameters for `OmdCalculator`.
struct OmdOptions {
  OmdMode mode = OmdMode::kThresholded;
  /// Relative threshold in (0, 1]: 1.0 reproduces the exact OMD. The paper's
  /// Fig. 10 sweeps this and settles on 0.6 as the accuracy/time balance.
  double threshold_alpha = 0.6;
  /// Each side is subsampled (deterministic, evenly spaced) to at most this
  /// many vectors before solving, bounding the O(n^3 log n) worst case.
  size_t max_vectors = 256;

  bool operator==(const OmdOptions&) const = default;
};

/// Computes the Object Mover's Distance between feature maps (Sec. 3.2).
///
/// The ground distance is Euclidean between object feature vectors; weights
/// follow the maps (uniform for raw SVSs, cluster masses for
/// representatives). An empty map is treated as a single zero vector so
/// pipeline edge cases (object-free video) stay well defined.
///
/// `Distance` is safe to call concurrently (the computation counter is
/// atomic and the solver is stateless) as long as the configuration setters
/// are not raced against it. When a thread pool is attached, the dense
/// ground-distance matrix is filled row-parallel with the batched
/// `EuclideanDistancesTo` kernel; results are bit-identical to the serial
/// fill for any thread count.
class OmdCalculator {
 public:
  explicit OmdCalculator(const OmdOptions& options = OmdOptions());

  /// OMD between `a` and `b` under the configured mode.
  StatusOr<double> Distance(const FeatureMap& a, const FeatureMap& b);

  /// Cancellation-aware variant: `cancel` (may be null) is checked at entry,
  /// at every ground-matrix row (via the `ParallelFor` cursor), and at every
  /// solver pivot. A fired token returns `kCancelled`; a partially filled
  /// ground matrix is never solved, so cancellation can only abort a
  /// distance, never corrupt one.
  StatusOr<double> Distance(const FeatureMap& a, const FeatureMap& b,
                            const CancelToken* cancel);

  /// Like `Distance`, but solved under `options` instead of the calculator's
  /// configuration — the per-query override used by the admission
  /// controller's latency rung, which routes oversized queries to FastOMD
  /// without perturbing the globally configured mode (the configuration
  /// setters are not safe to race against in-flight queries).
  StatusOr<double> DistanceWithOptions(const FeatureMap& a, const FeatureMap& b,
                                       const OmdOptions& options,
                                       const CancelToken* cancel);

  /// The dense ground-distance matrix between the (subsampled) maps — the
  /// quadratic kernel `Distance` runs before solving, exposed so benchmarks
  /// can measure the matrix-fill path in isolation.
  struct GroundMatrix {
    size_t rows = 0;
    size_t cols = 0;
    /// Row-major: cost[i * cols + j] = d(a_i, b_j).
    std::vector<double> cost;
    double max_cost = 0.0;
  };
  StatusOr<GroundMatrix> ComputeGroundMatrix(const FeatureMap& a,
                                             const FeatureMap& b) const;

  /// Number of OMD solves performed (the cost metric of Figs. 13-14).
  uint64_t num_computations() const {
    return num_computations_.load(std::memory_order_relaxed);
  }
  void ResetCounter() { num_computations_.store(0, std::memory_order_relaxed); }

  const OmdOptions& options() const { return options_; }
  /// Adjusts the approximation threshold at runtime; the performance monitor
  /// raises it toward 1.0 when query quality degrades (Sec. 5.3).
  void set_threshold_alpha(double alpha);
  void set_mode(OmdMode mode) { options_.mode = mode; }

  /// Attaches the pool used to parallelize the ground-distance matrix fill;
  /// nullptr (the default) keeps the serial path.
  void set_thread_pool(ThreadPool* pool) { pool_ = pool; }
  ThreadPool* thread_pool() const { return pool_; }

 private:
  OmdOptions options_;
  ThreadPool* pool_ = nullptr;
  std::atomic<uint64_t> num_computations_{0};
};

/// A certified lower bound on `OmdCalculator::DistanceWithOptions(a, b,
/// options, ...)` computed purely from the maps' 8-bit quantized shadows
/// (`FeatureMap::quantized()`), without touching the float buffers or the
/// solver.
///
/// For every pair the quantized distance q(i, j) satisfies
/// `|d(i, j) - q(i, j)| <= margin` with `margin = (scale_a + scale_b) / 2 *
/// sqrt(dim)` (each component is off by at most scale/2). Every unit of
/// supply mass from row i therefore pays at least
/// `min(max(0, min_j q(i, j) - margin), cap)` under the solver's effective
/// ground metric — `cap` accounts for the thresholded mode's `min(d, t)`
/// ground distance and is +inf in exact mode. The bound is the max of the
/// supply-side and demand-side sums.
///
/// Returns 0 (no information) whenever the tier cannot certify a bound:
/// empty or mismatched maps, a missing shadow (non-finite values), or a map
/// larger than `options.max_vectors` — the solver would subsample such a map,
/// and a bound over a superset of the solver's vectors is not a bound on the
/// subsampled distance.
double QuantizedOmdLowerBound(const FeatureMap& a, const FeatureMap& b,
                              const OmdOptions& options);

/// Options for `SvsMetric`.
struct SvsMetricOptions {
  /// Cache pairwise distances by SVS-id pair. Keep off when counting OMD
  /// computations for benchmarks that model cold queries.
  bool memoize = true;
  /// Tighten `LowerBound` with the quantized shadow tier
  /// (`QuantizedOmdLowerBound`) on top of OCD. Pruning-only: a larger valid
  /// lower bound lets the best-first search skip OMD solves but can never
  /// change which neighbors are returned or their distances.
  bool quantized_prune = true;
};

/// Binds the OMD metric and OCD lower bound over stored SVSs to the integer
/// item-id interface used by the index structures (Sec. 4).
///
/// Item ids >= 0 are SVS ids in the bound store. Negative ids (from
/// `RegisterTemporary`) denote transient query feature maps, letting the
/// nearest-neighbor machinery run on queries that are not stored.
class SvsMetric : public index::ItemMetric {
 public:
  /// `store` and `calculator` must outlive the metric.
  SvsMetric(const SvsStore* store, OmdCalculator* calculator,
            const SvsMetricOptions& options = SvsMetricOptions());

  /// OMD between the two items. A failed solve (solver error, dimension
  /// mismatch, unknown id) returns +inf — a poison value that keeps the pair
  /// maximally far apart instead of silently reading as "identical" — and
  /// bumps `failed_distances`.
  double Distance(int a, int b) override;
  double LowerBound(int a, int b) override;
  uint64_t num_distance_evals() const override { return num_evals_; }
  /// Number of Distance calls that failed and returned the +inf poison.
  /// Surfaced through Monitor as `QueryLoadStats::omd_failures`.
  uint64_t failed_distances() const {
    return failed_distances_.load(std::memory_order_relaxed);
  }
  void ResetCounters() { num_evals_ = 0; }

  /// Registers a query-time feature map and returns a temporary (negative)
  /// id. The map must stay alive until `UnregisterTemporary`.
  int RegisterTemporary(const FeatureMap* map);
  void UnregisterTemporary(int id);

  /// Routes memoization through a cache shared with other consumers (keyed
  /// by id pair *and* OMD configuration, LRU-bounded, invalidatable per
  /// SVS). nullptr restores the private unbounded memo. The cache must
  /// outlive the metric.
  void set_shared_cache(OmdDistanceCache* cache) { shared_cache_ = cache; }

  /// Clears the memoization cache (e.g. after representatives change).
  void InvalidateCache();

 private:
  const FeatureMap* Resolve(int id) const;
  const FeatureVector& CentroidOf(int id);

  const SvsStore* store_;
  OmdCalculator* calculator_;
  SvsMetricOptions options_;
  std::unordered_map<int, const FeatureMap*> temporaries_;
  int next_temporary_ = -2;
  OmdDistanceCache* shared_cache_ = nullptr;
  std::unordered_map<int64_t, double> memo_;       // packed (a, b) -> distance
  std::unordered_map<int, FeatureVector> centroids_;
  uint64_t num_evals_ = 0;
  std::atomic<uint64_t> failed_distances_{0};
};

}  // namespace vz::core

#endif  // VZ_CORE_OMD_H_
