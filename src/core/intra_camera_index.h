#ifndef VZ_CORE_INTRA_CAMERA_INDEX_H_
#define VZ_CORE_INTRA_CAMERA_INDEX_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "common/statusor.h"
#include "core/omd.h"
#include "core/representative.h"
#include "core/svs.h"
#include "index/perch_tree.h"

namespace vz::core {

/// Parameters of a per-camera SVS index.
struct IntraIndexOptions {
  /// Re-derive flat clusters and representatives every N insertions (the
  /// "representative SVS update" cadence of Sec. 5.1).
  size_t recluster_interval = 4;
  /// Silhouette sweep range for the per-camera cluster count (Sec. 4.2).
  size_t min_clusters = 2;
  size_t max_clusters = 8;
  /// When set, overrides the silhouette-selected cluster count — used by the
  /// Fig. 20 sweep and by the performance monitor's adjustments (Sec. 5.3).
  std::optional<size_t> forced_num_clusters;
  /// Build cluster representatives as covering summaries over member SVS
  /// representatives (lossless two-level pruning; the default). When false,
  /// cluster representatives are pooled k-means over member features — the
  /// paper's plain Sec. 3.3 construction, whose selectivity depends on the
  /// cluster count (the Fig. 20 trade-off).
  bool covering_cluster_representatives = true;
  /// Representative construction parameters.
  RepresentativeOptions representative;
  /// PERCH tree parameters.
  index::PerchOptions perch;
};

/// The intra-camera index: an incremental PERCH tree over one camera's SVSs
/// plus the flat clusters and per-cluster representative SVSs derived from
/// it (Sec. 5: "an intra-camera index per camera feed to index the video
/// streams captured by the same camera").
class IntraCameraIndex {
 public:
  /// A derived SVS cluster with its representative.
  struct Cluster {
    Representative representative;
    std::vector<SvsId> members;
  };

  /// `store` and `metric` must outlive the index. `metric` must be bound to
  /// the same store.
  IntraCameraIndex(CameraId camera, SvsStore* store, SvsMetric* metric,
                   const IntraIndexOptions& options, Rng rng);

  IntraCameraIndex(const IntraCameraIndex&) = delete;
  IntraCameraIndex& operator=(const IntraCameraIndex&) = delete;

  /// Inserts an SVS of this camera into the tree; periodically re-derives
  /// clusters and representatives. Builds the SVS's own representative if it
  /// does not have one yet.
  Status Insert(SvsId id);

  const CameraId& camera() const { return camera_; }
  size_t size() const { return tree_.size(); }

  /// Current flat clusters with their representatives.
  const std::vector<Cluster>& clusters() const { return clusters_; }

  /// Monotonic counter bumped whenever representatives are rebuilt; the
  /// inter-camera index uses it to know when to refresh (Sec. 5.1,
  /// "Hierarchical index update").
  uint64_t representative_version() const { return representative_version_; }

  /// Direct-query support: member SVSs of clusters whose representative's
  /// decision boundary contains `feature`, filtered by each SVS's own
  /// representative (Sec. 4.2, "feature search").
  std::vector<SvsId> FeatureSearch(const FeatureVector& feature,
                                   double boundary_scale = 1.0) const;

  /// All members of the cluster at `cluster_index`.
  StatusOr<std::vector<SvsId>> ClusterMembers(size_t cluster_index) const;

  /// Nearest stored SVS to `query` under OMD ("SVS search", Sec. 4.2). The
  /// search carries the query itself, so concurrent calls are safe.
  StatusOr<SvsId> NearestSvs(const FeatureMap& query) const;

  /// Representative of the cluster containing `id`, for the segmenter's
  /// reference (Sec. 5.1); NotFound if `id` is in no derived cluster yet.
  StatusOr<const Representative*> ClusterRepresentativeFor(SvsId id) const;

  /// Forces cluster/representative re-derivation now.
  Status Recluster();

  /// Overrides (or restores, with nullopt) the cluster count.
  void SetForcedClusterCount(std::optional<size_t> k);

  /// Read access to the underlying tree, for diagnostics and benches.
  const index::PerchTree& tree() const { return tree_; }

 private:
  // Chooses the cluster count: forced, else silhouette over SVS centroids.
  size_t ChooseClusterCount();

  CameraId camera_;
  SvsStore* store_;
  SvsMetric* metric_;
  IntraIndexOptions options_;
  Rng rng_;
  index::PerchTree tree_;
  std::vector<Cluster> clusters_;
  uint64_t representative_version_ = 0;
  size_t inserts_since_recluster_ = 0;
};

}  // namespace vz::core

#endif  // VZ_CORE_INTRA_CAMERA_INDEX_H_
