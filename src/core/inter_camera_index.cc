#include "core/inter_camera_index.h"

#include <algorithm>
#include <utility>

#include "clustering/silhouette.h"

namespace vz::core {

namespace {

// Wire size of a representative feature map: floats per vector plus one
// double weight each (the Sec. 7.3 traffic accounting).
size_t WireBytes(const FeatureMap& map) {
  return map.size() * (map.dim() * sizeof(float) + sizeof(double));
}

}  // namespace

InterCameraIndex::InterCameraIndex(OmdCalculator* calculator,
                                   const InterIndexOptions& options, Rng rng)
    : options_(options),
      rng_(rng),
      metric_(std::vector<OmdItem>(), calculator,
              SvsMetricOptions{.memoize = true,
                               .quantized_prune = options.quantized_prune}) {}

Status InterCameraIndex::UpdateCamera(const IntraCameraIndex& intra) {
  DropCamera(intra.camera());
  // Import the fresh ones.
  const auto& clusters = intra.clusters();
  for (size_t c = 0; c < clusters.size(); ++c) {
    if (clusters[c].representative.empty()) continue;
    RepEntry entry;
    entry.camera = intra.camera();
    entry.intra_cluster_index = c;
    entry.map = clusters[c].representative.AsFeatureMap();
    entry.rep = clusters[c].representative;
    rep_bytes_received_ += WireBytes(entry.map);
    entries_.push_back(std::move(entry));
    entry_ids_.push_back(next_entry_id_++);
  }
  return Rebuild();
}

Status InterCameraIndex::Reset(Rng rng) {
  rng_ = std::move(rng);
  metric_.cache().Invalidate(std::move(entry_ids_));
  entries_.clear();
  entry_ids_.clear();
  rep_bytes_received_ = 0;
  return Rebuild();
}

Status InterCameraIndex::RemoveCamera(const CameraId& camera) {
  DropCamera(camera);
  return Rebuild();
}

void InterCameraIndex::DropCamera(const CameraId& camera) {
  std::vector<RepEntry> kept;
  std::vector<uint64_t> kept_ids;
  std::vector<uint64_t> dropped_ids;
  kept.reserve(entries_.size());
  kept_ids.reserve(entries_.size());
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].camera == camera) {
      dropped_ids.push_back(entry_ids_[i]);
      continue;
    }
    kept.push_back(std::move(entries_[i]));
    kept_ids.push_back(entry_ids_[i]);
  }
  entries_ = std::move(kept);
  entry_ids_ = std::move(kept_ids);
  metric_.cache().Invalidate(std::move(dropped_ids));
}

Status InterCameraIndex::Rebuild() {
  // Centroids are filled here, so a search reads the items without writing.
  std::vector<OmdItem> items;
  items.reserve(entries_.size());
  for (size_t i = 0; i < entries_.size(); ++i) {
    items.push_back(
        {&entries_[i].map, entries_[i].map.Centroid(), entry_ids_[i]});
  }
  metric_.set_items(std::move(items));
  // PERCH's insertions and masking checks re-ask the same entry pairs on
  // every rebuild; the memo answers each pair an earlier rebuild solved.
  tree_ = std::make_unique<index::PerchTree>(&metric_, options_.perch);
  tree_->Reserve(entries_.size());
  for (size_t i = 0; i < entries_.size(); ++i) {
    VZ_RETURN_IF_ERROR(tree_->Insert(static_cast<int>(i)));
  }
  return Regroup();
}

size_t InterCameraIndex::ChooseGroupCount() {
  if (options_.forced_num_groups.has_value()) {
    return std::max<size_t>(1, *options_.forced_num_groups);
  }
  const size_t n = entries_.size();
  if (n < 3) return std::max<size_t>(1, n);
  std::vector<FeatureVector> centroids;
  centroids.reserve(n);
  for (const RepEntry& e : entries_) centroids.push_back(e.map.Centroid());
  auto sweep = clustering::ChooseKBySilhouette(
      centroids, options_.min_groups,
      std::min(options_.max_groups, centroids.size() - 1), &rng_);
  if (!sweep.ok()) return std::max<size_t>(1, options_.min_groups);
  return sweep->best_k;
}

Status InterCameraIndex::Regroup() {
  groups_.clear();
  if (entries_.empty() || tree_ == nullptr || tree_->size() == 0) {
    return Status::OK();
  }
  const size_t k = ChooseGroupCount();
  const std::vector<std::vector<int>> raw = tree_->ExtractClusters(k);
  groups_.reserve(raw.size());
  for (const std::vector<int>& members : raw) {
    Group group;
    group.entry_indices.assign(members.begin(), members.end());
    groups_.push_back(std::move(group));
  }
  return Status::OK();
}

std::vector<const InterCameraIndex::RepEntry*> InterCameraIndex::FeatureSearch(
    const FeatureVector& feature, double boundary_scale) const {
  // Sec. 5.2: "The candidate representative SVSs will be first identified in
  // the inter-camera index". The representative population is tiny (cameras
  // x clusters), so each representative's decision boundary is tested
  // directly; the group structure serves clustering queries, where the OMD
  // tree does the narrowing.
  std::vector<const RepEntry*> result;
  for (const RepEntry& entry : entries_) {
    if (entry.rep.Hit(feature, boundary_scale)) {
      result.push_back(&entry);
    }
  }
  return result;
}

StatusOr<const InterCameraIndex::Group*> InterCameraIndex::GroupOfNearest(
    const FeatureMap& query, std::optional<SvsId> query_id) const {
  if (entries_.empty() || tree_ == nullptr || tree_->size() == 0) {
    return Status::NotFound("inter-camera index is empty");
  }
  // An SvsId sorts below every entry identity, so a memoized pair is solved
  // (query, entry), the orientation of an unmemoized one.
  std::optional<uint64_t> identity;
  if (query_id.has_value()) identity = static_cast<uint64_t>(*query_id);
  VZ_ASSIGN_OR_RETURN(
      int item,
      tree_->NearestNeighbor(SvsMetric::Query(&metric_, &query, identity)));
  for (const Group& group : groups_) {
    for (size_t idx : group.entry_indices) {
      if (static_cast<int>(idx) == item) return &group;
    }
  }
  return Status::Internal("nearest representative not in any group");
}

Status InterCameraIndex::SetForcedGroupCount(std::optional<size_t> k) {
  options_.forced_num_groups = k;
  return Regroup();
}

}  // namespace vz::core
