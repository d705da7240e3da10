#ifndef VZ_INDEX_PERCH_TREE_H_
#define VZ_INDEX_PERCH_TREE_H_

#include <cstdint>
#include <vector>

#include "clustering/cluster_tree.h"
#include "common/statusor.h"
#include "index/item_metric.h"

namespace vz::index {

/// Tuning knobs for the incremental cluster tree of Sec. 4.
struct PerchOptions {
  /// Apply masking-triggered rotations (Sec. 4.1, Fig. 7). Disabling them is
  /// the ablation of `bench_ablation_rotations`.
  bool enable_masking_rotations = true;
  /// Apply balance-triggered rotations (Sec. 4.3).
  bool enable_balance_rotations = true;
  /// Use the OCD-lower-bound best-first nearest-neighbor search (Sec. 4.3).
  /// When false, insertion/search probes every leaf with the full metric —
  /// the unpruned baseline of Fig. 13.
  bool enable_pruned_nn = true;
  /// Leaves sampled per node for the approximate masking / cost heuristics.
  size_t samples_per_node = 3;
  /// Evaluate the masking predicate exhaustively over all leaves (exact but
  /// quadratic; for tests and small trees only).
  bool exact_masking_check = false;
  /// Relative margin the masking predicate must clear before a rotation
  /// fires: masked iff max-to-sibling > margin * min-to-aunt. The strict
  /// paper predicate (margin 1.0) triggers on near-ties inside a pure
  /// cluster, where noise alone decides and rotations only churn.
  double masking_margin = 1.1;
  /// Safety cap on rotation chains per insertion.
  size_t max_rotations_per_insert = 256;
};

/// Counters describing the work a `PerchTree` has performed.
struct PerchStats {
  /// Nearest-leaf searches made by `Insert`; query searches count nothing.
  uint64_t nn_searches = 0;
  uint64_t insertions = 0;
  uint64_t masking_rotations = 0;
  uint64_t balance_rotations = 0;
};

/// Incremental hierarchical cluster tree: greedy nearest-neighbor insertion
/// plus purity-enhancing (masking-triggered) and balance-triggered rotations,
/// after PERCH (Kobren et al. 2017), operating in an arbitrary metric space
/// through `ItemMetric` (Sec. 4: "Our incremental clustering algorithm
/// extends [47] to our OMD metric space").
///
/// Each leaf stores one item id. Internal nodes are strictly binary and
/// maintain summaries (leaf count, sampled leaves, an approximate *cost* =
/// max intra-node distance) used by the approximate masking check, the
/// balance heuristic, and cluster extraction (Sec. 4.2).
class PerchTree {
 public:
  /// `metric` must outlive the tree.
  PerchTree(ItemMetric* metric, const PerchOptions& options);

  PerchTree(const PerchTree&) = delete;
  PerchTree& operator=(const PerchTree&) = delete;

  /// Pre-sizes internal storage for `expected_items` leaves (a binary tree
  /// over n leaves has 2n-1 nodes). Bulk rebuilds — e.g. an
  /// `InterCameraIndex` re-indexing after a representative sync — insert
  /// one item at a time; reserving up front avoids the vector regrowth
  /// copies on that path. Never shrinks.
  void Reserve(size_t expected_items);

  /// Inserts an item: finds its nearest leaf, splits it, updates ancestor
  /// summaries, then runs masking- and balance-triggered rotations
  /// (Algorithm 2).
  Status Insert(int item);

  /// Nearest stored item to `target`, an item of the tree's metric that may
  /// or may not already be stored, or NotFound for an empty tree. Uses the
  /// OCD-pruned best-first search when enabled.
  StatusOr<int> NearestNeighbor(int target);

  /// As above for a target that carries its own distances. Writes nothing,
  /// so concurrent calls are safe whenever `query` is.
  StatusOr<int> NearestNeighbor(const ItemQuery& query) const;

  /// The `count` stored items nearest to `target`, ascending by distance.
  StatusOr<std::vector<int>> KNearestNeighbors(int target, size_t count);

  /// Flat clustering with (up to) `k` clusters, derived by repeatedly
  /// splitting the highest-cost node in the frontier list (Sec. 4.2).
  /// Returns the items of each cluster.
  std::vector<std::vector<int>> ExtractClusters(size_t k) const;

  /// Number of items stored.
  size_t size() const { return leaves_.size(); }

  /// All stored item ids in insertion order.
  const std::vector<int>& items() const { return inserted_items_; }

  /// Depth of the deepest leaf (root = depth 0); 0 for empty trees.
  size_t Depth() const;

  /// Mean local balance over internal nodes (Sec. 4.3); 1.0 for empty trees.
  double AverageBalance() const;

  /// Exports the structure for dendrogram-purity evaluation.
  clustering::ClusterTree ToClusterTree() const;

  /// Checks the structural invariants (binary internal nodes, consistent
  /// parent links and leaf counts).
  Status Validate() const;

  const PerchStats& stats() const { return stats_; }

 private:
  struct Node {
    int parent = -1;
    int left = -1;
    int right = -1;
    int item = -1;  // >= 0 for leaves
    size_t leaf_count = 1;
    double cost = 0.0;            // approximate max intra-node distance
    std::vector<int> samples;     // sampled leaf items for approx checks

    bool is_leaf() const { return left < 0; }
  };

  int NewLeaf(int item);
  int Sibling(int v) const;
  int Aunt(int v) const;

  // Best-first (pruned) or exhaustive nearest-leaf search. Returns node id.
  int FindNearestLeafNode(const ItemQuery& query) const;

  // Recomputes leaf_count / samples / cost of `v` from its children.
  void RefreshFromChildren(int v);
  // Refreshes summaries along the path from `v` to the root; stops early
  // when the cost stops changing (the bottom-up heuristic of Sec. 4.3).
  void RefreshUpwards(int v);

  // The masking predicate of Sec. 4.1 for node `v` (needs a grandparent).
  bool IsMasked(int v);
  // True if rotating `v` with its aunt improves the local balance.
  bool BalanceImproves(int v) const;
  // Swaps `v` with its aunt and refreshes the two affected ancestors.
  void RotateWithAunt(int v);

  // Algorithm 1 driver: walks from `v` toward the root applying `check`.
  enum class RotateKind { kMasking, kBalance };
  void RotateLoop(int v, RotateKind kind);

  ItemMetric* metric_;
  PerchOptions options_;
  std::vector<Node> nodes_;
  std::vector<int> leaves_;          // node ids of all leaves
  std::vector<int> inserted_items_;  // item ids in insertion order
  int root_ = -1;
  PerchStats stats_;
};

}  // namespace vz::index

#endif  // VZ_INDEX_PERCH_TREE_H_
