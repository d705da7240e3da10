#ifndef VZ_CORE_OMD_H_
#define VZ_CORE_OMD_H_

#include <atomic>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/deadline.h"
#include "common/statusor.h"
#include "common/thread_pool.h"
#include "core/omd_cache.h"
#include "core/svs.h"
#include "index/item_metric.h"
#include "vector/feature_map.h"

namespace vz::core {

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
  /// Memoize pair distances by identity pair (see `OmdDistanceCache`). Keep
  /// off when counting OMD computations for benchmarks that model cold
  /// queries.
  bool memoize = true;
  /// Tighten `LowerBound` with the quantized shadow tier
  /// (`QuantizedOmdLowerBound`) on top of OCD. Pruning-only: a larger valid
  /// lower bound lets the best-first search skip OMD solves but can never
  /// change which neighbors are returned or their distances.
  bool quantized_prune = true;
};

/// An item of a list-backed `SvsMetric`: a map the caller holds, its
/// centroid (the OCD basis) and its memo identity.
struct OmdItem {
  const FeatureMap* map = nullptr;
  FeatureVector centroid;
  uint64_t identity = 0;
};

/// One item per map, item i with identity i. `maps` must outlive the metric
/// the items are given to.
std::vector<OmdItem> ListItems(const std::vector<FeatureMap>& maps);

/// The OMD metric over index items, bound to the integer item-id interface
/// of the index structures (Sec. 4). Items are either the SVSs of a store
/// (item id and identity: the `SvsId`) or a caller's list of `OmdItem`s (the
/// inter-camera index's entries; synthetic maps in benches).
///
/// `Distance` resolves both items, serves a memoized pair from the memo, and
/// otherwise solves it, lower identity first when it memoizes. An unknown
/// item or a failed solve (solver error, dimension mismatch) returns +inf —
/// a poison value that keeps the pair maximally far apart instead of
/// silently reading as "identical" — and bumps `failed_distances`.
/// `LowerBound` is OCD, tightened by the quantized tier when enabled. A
/// `Query` searches the items with a map that is not one of them.
class SvsMetric : public index::ItemMetric {
 public:
  /// Items are the SVSs of `store`. `store` and `calculator` must outlive
  /// the metric.
  SvsMetric(const SvsStore* store, OmdCalculator* calculator,
            const SvsMetricOptions& options = SvsMetricOptions());

  /// Items are `items`; `calculator` must outlive the metric.
  SvsMetric(std::vector<OmdItem> items, OmdCalculator* calculator,
            const SvsMetricOptions& options = SvsMetricOptions());

  /// Replaces the items of a list-backed metric. The memo keeps its pairs:
  /// callers give a map a new identity when it changes.
  void set_items(std::vector<OmdItem> items) { items_ = std::move(items); }

  double Distance(int a, int b) override;
  double LowerBound(int a, int b) override;
  uint64_t num_distance_evals() const override { return num_evals_; }
  /// Number of distances that failed and returned the +inf poison, queries'
  /// included. Surfaced through Monitor as `QueryLoadStats::omd_failures`.
  uint64_t failed_distances() const {
    return failed_distances_.load(std::memory_order_relaxed);
  }
  void ResetCounters() { num_evals_ = 0; }

  /// Routes memoization through a cache shared with other consumers; nullptr
  /// restores the metric's own. The cache must outlive the metric.
  void set_shared_cache(OmdDistanceCache* cache) { shared_cache_ = cache; }

  /// The memo in use: the shared cache, or the metric's own.
  OmdDistanceCache& cache() const {
    return shared_cache_ != nullptr ? *shared_cache_ : own_cache_;
  }

  /// Clears the memo in use.
  void InvalidateCache() { cache().Clear(); }

  /// A search target that is not an item: a query map, its centroid and,
  /// when the map is a stored SVS, its identity. Distances from it write
  /// nothing shared but the memo and count no solve in
  /// `num_distance_evals`, so concurrent searches are safe. Pairs are
  /// memoized only when the query has an identity; otherwise every solve
  /// puts the query map first.
  class Query final : public index::ItemQuery {
   public:
    /// `metric` and `map` must outlive the query.
    Query(const SvsMetric* metric, const FeatureMap* map,
          std::optional<uint64_t> identity = std::nullopt);

    double Distance(int item) const override;
    double LowerBound(int item) const override;

   private:
    const SvsMetric* metric_;
    const FeatureMap* map_;
    FeatureVector centroid_;
    std::optional<uint64_t> identity_;
  };

 private:
  // A resolved item or query; `map` is null for an unknown item id.
  struct Ref {
    const FeatureMap* map = nullptr;
    const FeatureVector* centroid = nullptr;
    std::optional<uint64_t> identity;
  };
  Ref Resolve(int id) const;
  // OMD between two resolved maps; sets `*solved` when it ran the solver.
  double Between(Ref a, Ref b, bool* solved) const;
  double Bound(const Ref& a, const Ref& b) const;

  const SvsStore* store_ = nullptr;  // null: `items_` are the items
  std::vector<OmdItem> items_;
  OmdCalculator* calculator_;
  SvsMetricOptions options_;
  OmdDistanceCache* shared_cache_ = nullptr;
  mutable OmdDistanceCache own_cache_;
  uint64_t num_evals_ = 0;
  mutable std::atomic<uint64_t> failed_distances_{0};
};

}  // namespace vz::core

#endif  // VZ_CORE_OMD_H_
