#ifndef VZ_INDEX_ITEM_METRIC_H_
#define VZ_INDEX_ITEM_METRIC_H_

#include <cstdint>

namespace vz::index {

/// Metric over integer item ids, with a cheap lower bound for pruning.
///
/// The index structures (PERCH tree, M-tree, NN-descent) are written against
/// this interface so they work for any metric space. Video-zilla binds it to
/// OMD with the OCD lower bound (`vz::core::SvsMetric`, over stored SVSs or
/// over a list of maps); tests bind it to plain Euclidean points. Building an
/// index calls it from one thread at a time.
class ItemMetric {
 public:
  virtual ~ItemMetric() = default;

  /// The full metric d(a, b). Must satisfy the metric axioms; the pruning
  /// correctness argument of Sec. 4.3 depends on the triangle inequality.
  virtual double Distance(int a, int b) = 0;

  /// A cheap lower bound on `Distance(a, b)` (OCD in the paper). The default
  /// returns 0, which disables pruning but stays correct.
  virtual double LowerBound(int a, int b) {
    (void)a;
    (void)b;
    return 0.0;
  }

  /// Number of full-metric evaluations `Distance` performed so far (cache
  /// misses only, if the implementation memoizes). This is the cost axis of
  /// Figs. 13-14. Searches through an `ItemQuery` are not counted.
  virtual uint64_t num_distance_evals() const = 0;
};

/// One search target's distances to an index's items: how a query that is
/// not an item of the metric reaches a nearest-neighbour search. The query
/// carries its own state (its map, centroid and memo identity for OMD), so
/// the search writes nothing the index shares, and any number of searches
/// may run at once on one index as long as their queries are thread-safe.
class ItemQuery {
 public:
  virtual ~ItemQuery() = default;

  /// The full metric from the target to `item`.
  virtual double Distance(int item) const = 0;

  /// A cheap lower bound on `Distance(item)`; 0 disables pruning.
  virtual double LowerBound(int item) const = 0;
};

}  // namespace vz::index

#endif  // VZ_INDEX_ITEM_METRIC_H_
