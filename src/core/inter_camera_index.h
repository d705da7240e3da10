#ifndef VZ_CORE_INTER_CAMERA_INDEX_H_
#define VZ_CORE_INTER_CAMERA_INDEX_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "common/statusor.h"
#include "core/intra_camera_index.h"
#include "core/omd.h"
#include "core/omd_cache.h"
#include "core/representative.h"
#include "index/perch_tree.h"

namespace vz::core {

/// Parameters of the inter-camera index.
struct InterIndexOptions {
  /// Silhouette sweep range for the representative-SVS group count.
  size_t min_groups = 2;
  size_t max_groups = 10;
  /// When set, overrides the group count — the x-axis of Fig. 20 and a knob
  /// of the performance monitor (Sec. 5.3).
  std::optional<size_t> forced_num_groups;
  RepresentativeOptions representative;
  index::PerchOptions perch;
  /// Tighten the tree's lower bounds with the representatives' quantized
  /// shadows (see `QuantizedOmdLowerBound`); pruning-only.
  bool quantized_prune = true;
};

/// The inter-camera index: indexes the representative SVSs exported by every
/// intra-camera index, grouping semantically similar representatives across
/// cameras (Sec. 5: "an inter-camera index across all cameras to index the
/// representative semantic video streams constructed by all intra-camera
/// indices").
///
/// Because only representatives — never raw SVSs — cross the camera
/// boundary, this is also the privacy/traffic boundary of Sec. 2.2/5.4.
class InterCameraIndex {
 public:
  /// One representative SVS exported by an intra-camera index.
  struct RepEntry {
    CameraId camera;
    size_t intra_cluster_index = 0;
    /// The representative as a weighted feature map (for OMD).
    FeatureMap map;
    /// The representative's centers/boundaries (for hit tests).
    Representative rep;
  };

  /// A group of semantically similar representatives with its own summary.
  struct Group {
    Representative representative;
    std::vector<size_t> entry_indices;
  };

  /// `calculator` must outlive the index.
  InterCameraIndex(OmdCalculator* calculator, const InterIndexOptions& options,
                   Rng rng);

  /// Memoizes the index's OMDs in `cache`, shared with other consumers;
  /// nullptr restores the index's own memo. The cache must outlive the index.
  void set_shared_cache(OmdDistanceCache* cache) {
    metric_.set_shared_cache(cache);
  }

  InterCameraIndex(const InterCameraIndex&) = delete;
  InterCameraIndex& operator=(const InterCameraIndex&) = delete;

  /// Replaces all representatives of `intra`'s camera with its current ones
  /// and rebuilds the tree and groups (Sec. 5.1: "The updated representative
  /// SVSs will then replace the outdated versions in the inter-camera
  /// index"). Tracks bytes "sent" for the traffic accounting of Sec. 7.3.
  Status UpdateCamera(const IntraCameraIndex& intra);

  /// Drops a camera's representatives (cameraTerminate support).
  Status RemoveCamera(const CameraId& camera);

  /// Replaces the whole entry set and rebuilds — how a coordinator installs
  /// the representatives its edges shipped over RepSync. Unlike
  /// `UpdateCamera` this takes entries directly (there is no local intra
  /// index behind them) and does not count traffic bytes; the caller owns
  /// that accounting.
  Status SetEntries(std::vector<RepEntry> entries);

  /// Drops every entry AND restores the random stream to `rng` — the full
  /// reset used when the owning system is re-seeded from a checkpoint, so
  /// the rebuilt index consumes the same stream as a freshly constructed
  /// instance restoring the same store (bit-identical recovery).
  Status Reset(Rng rng);

  size_t size() const { return entries_.size(); }
  const std::vector<RepEntry>& entries() const { return entries_; }
  const std::vector<Group>& groups() const { return groups_; }

  /// Direct-query pruning: representatives in groups whose summary contains
  /// `feature`, filtered by each representative's own boundaries.
  std::vector<const RepEntry*> FeatureSearch(const FeatureVector& feature,
                                             double boundary_scale = 1.0) const;

  /// Clustering-query support: the group containing the representative
  /// nearest (under OMD) to `query` (Sec. 5.2). Errors when empty. When
  /// `query_id` names the stored SVS `query` belongs to, its solves are
  /// memoized, so a repeat on an unchanged index solves nothing. The search
  /// writes nothing shared but the memo: concurrent calls are safe.
  StatusOr<const Group*> GroupOfNearest(
      const FeatureMap& query,
      std::optional<SvsId> query_id = std::nullopt) const;

  /// Overrides (or restores) the group count and regroups.
  Status SetForcedGroupCount(std::optional<size_t> k);

  /// Bytes of representative data received from edge indices so far — the
  /// hierarchical side of the Sec. 7.3 traffic comparison.
  size_t representative_bytes_received() const { return rep_bytes_received_; }

  /// Read access to the underlying tree.
  const index::PerchTree& tree() const { return *tree_; }

  /// Entry pairs whose OMD is memoized across rebuilds; at most size()^2.
  size_t memoized_pairs() const {
    return metric_.cache().PairsAtOrAbove(kFirstEntryIdentity);
  }

  /// Cumulative poisoned (+inf) OMD evaluations, rebuilds and searches
  /// alike; folded into `QueryLoadStats::omd_failures`.
  uint64_t omd_failures() const { return metric_.failed_distances(); }

 private:
  /// Removes `camera`'s entries, keeping the order of the rest, and drops
  /// the memoized pairs of the removed ones.
  void DropCamera(const CameraId& camera);
  Status Rebuild();
  Status Regroup();
  size_t ChooseGroupCount();

  InterIndexOptions options_;
  Rng rng_;
  std::vector<RepEntry> entries_;
  /// Memo identity of each entry, index-aligned with `entries_`: assigned
  /// on import (from `kFirstEntryIdentity` up), kept while the entry is
  /// kept, never sent anywhere. Entry pairs memoized under them survive
  /// `Rebuild`, so no rebuild re-solves a pair an earlier one solved.
  std::vector<uint64_t> entry_ids_;
  uint64_t next_entry_id_ = kFirstEntryIdentity;
  /// OMD over the entries: `Rebuild` hands it their maps, centroids and
  /// identities; tree items index `entries_`.
  SvsMetric metric_;
  std::unique_ptr<index::PerchTree> tree_;
  std::vector<Group> groups_;
  size_t rep_bytes_received_ = 0;
};

}  // namespace vz::core

#endif  // VZ_CORE_INTER_CAMERA_INDEX_H_
