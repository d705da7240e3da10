#ifndef VZ_CORE_FEATURE_MAP_METRIC_H_
#define VZ_CORE_FEATURE_MAP_METRIC_H_

#include <atomic>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/omd.h"
#include "index/item_metric.h"
#include "vector/feature_map.h"

namespace vz::core {

/// OMD values keyed by the *ordered* pair of caller-assigned map identities.
///
/// The solver is not bit-symmetric, so (a, b) and (b, a) are separate
/// entries, and a hit returns exactly the bits a fresh solve of that
/// orientation returns. The memo outlives the metrics that consult it (see
/// `FeatureMapListMetric::set_pair_memo`): a caller that renumbers its items
/// on every rebuild keeps the solves of the items it kept by giving each map
/// an identity for as long as it holds the map. Not thread-safe.
class PairDistanceMemo {
 public:
  std::optional<double> Lookup(uint64_t a, uint64_t b) const;
  void Insert(uint64_t a, uint64_t b, double distance);

  /// Readies the memo for solves under `options` over the maps `live`:
  /// drops every pair with an identity not in `live`, and every pair when
  /// `options` differ from those of the previous call (the monitor may
  /// retune the solver between rebuilds).
  void Prune(const std::vector<uint64_t>& live, const OmdOptions& options);

  void Clear() { distances_.clear(); }
  size_t size() const { return distances_.size(); }

 private:
  using Key = std::pair<uint64_t, uint64_t>;
  struct KeyHash {
    size_t operator()(const Key& key) const;
  };

  std::unordered_map<Key, double, KeyHash> distances_;
  std::optional<OmdOptions> options_;
};

/// OMD metric over an externally owned list of feature maps; item ids are
/// indices into the list. Used by the inter-camera index, whose items are
/// representative SVSs rather than stored SVSs, and by tests/benches that
/// operate on synthetic feature maps directly.
class FeatureMapListMetric : public index::ItemMetric {
 public:
  /// `maps` and `calculator` must outlive the metric. The list may grow
  /// (ids stay valid); it must not reorder existing entries. With `memoize`
  /// the metric caches pair distances and `num_distance_evals` counts cache
  /// misses only (actual OMD solves). With `quantized_prune`, `LowerBound`
  /// tightens OCD with the maps' quantized shadows (pruning-only — results
  /// of the search never change, only how many solves it needs).
  FeatureMapListMetric(const std::vector<FeatureMap>* maps,
                       OmdCalculator* calculator, bool memoize = false,
                       bool quantized_prune = true)
      : maps_(maps),
        calculator_(calculator),
        memoize_(memoize),
        quantized_prune_(quantized_prune) {}

  /// OMD between the two maps; +inf (poison) on out-of-range ids or solver
  /// failure, counted in `failed_distances`.
  double Distance(int a, int b) override;
  double LowerBound(int a, int b) override;
  uint64_t num_distance_evals() const override { return num_evals_; }
  /// Number of Distance calls that failed and returned the +inf poison.
  uint64_t failed_distances() const {
    return failed_distances_.load(std::memory_order_relaxed);
  }
  void ResetCounters() { num_evals_ = 0; }

  /// Routes every pair of items below `ids->size()` through `memo`, keyed by
  /// `((*ids)[a], (*ids)[b])` in the order asked. Items past the end of `ids`
  /// (a query's scratch slot) are solved and never looked up or stored.
  /// Failed solves are not memoized. Both must outlive the metric.
  void set_pair_memo(const std::vector<uint64_t>* ids, PairDistanceMemo* memo) {
    pair_ids_ = ids;
    pair_memo_ = memo;
  }

  /// Drops the cached centroid for slot `i`; callers that replace a map at
  /// an existing index (e.g. a popped-then-reused scratch slot) must call
  /// this or lower bounds would read the stale centroid.
  void InvalidateCentroid(size_t i) {
    if (i < centroids_.size()) centroids_[i] = FeatureVector();
  }

 private:
  const std::vector<FeatureMap>* maps_;
  OmdCalculator* calculator_;
  bool memoize_;
  bool quantized_prune_;
  const std::vector<uint64_t>* pair_ids_ = nullptr;
  PairDistanceMemo* pair_memo_ = nullptr;
  std::unordered_map<int64_t, double> memo_;
  std::vector<FeatureVector> centroids_;  // lazily filled, index-aligned
  uint64_t num_evals_ = 0;
  std::atomic<uint64_t> failed_distances_{0};
};

}  // namespace vz::core

#endif  // VZ_CORE_FEATURE_MAP_METRIC_H_
