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
    : calculator_(calculator), options_(options), rng_(rng) {}

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

Status InterCameraIndex::SetEntries(std::vector<RepEntry> entries) {
  entries_ = std::move(entries);
  entry_ids_.clear();
  for (size_t i = 0; i < entries_.size(); ++i) {
    entry_ids_.push_back(next_entry_id_++);
  }
  return Rebuild();
}

Status InterCameraIndex::Reset(Rng rng) {
  rng_ = std::move(rng);
  entries_.clear();
  entry_ids_.clear();
  distance_memo_.Clear();
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
  kept.reserve(entries_.size());
  kept_ids.reserve(entries_.size());
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].camera == camera) continue;
    kept.push_back(std::move(entries_[i]));
    kept_ids.push_back(entry_ids_[i]);
  }
  entries_ = std::move(kept);
  entry_ids_ = std::move(kept_ids);
}

Status InterCameraIndex::Rebuild() {
  entry_maps_.clear();
  entry_maps_.reserve(entries_.size() + 1);
  for (const RepEntry& e : entries_) entry_maps_.push_back(e.map);
  if (metric_ != nullptr) {
    failed_distances_accum_ += metric_->failed_distances();
  }
  // PERCH's insertions and masking checks re-ask the same entry pairs on
  // every rebuild; the memo answers each pair an earlier rebuild solved.
  distance_memo_.Prune(entry_ids_, calculator_->options());
  metric_ = std::make_unique<FeatureMapListMetric>(
      &entry_maps_, calculator_, /*memoize=*/false, options_.quantized_prune);
  metric_->set_pair_memo(&entry_ids_, &distance_memo_);
  tree_ = std::make_unique<index::PerchTree>(metric_.get(), options_.perch);
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
    std::vector<const Representative*> reps;
    for (int m : members) {
      group.entry_indices.push_back(static_cast<size_t>(m));
      reps.push_back(&entries_[static_cast<size_t>(m)].rep);
    }
    if (!reps.empty()) {
      // Covering summaries keep group-level pruning lossless: whatever hits
      // a member representative also hits the group.
      VZ_ASSIGN_OR_RETURN(
          group.representative,
          BuildCoveringRepresentative(reps, options_.representative, &rng_));
    }
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
    const FeatureMap& query) {
  if (entries_.empty() || tree_ == nullptr || tree_->size() == 0) {
    return Status::NotFound("inter-camera index is empty");
  }
  // Append the query as a scratch slot, search, then remove it again — one
  // search at a time, since the slot and the metric's caches are shared.
  std::lock_guard<std::mutex> lock(search_mu_);
  entry_maps_.push_back(query);
  const int scratch = static_cast<int>(entry_maps_.size()) - 1;
  metric_->InvalidateCentroid(static_cast<size_t>(scratch));
  auto nearest = tree_->NearestNeighbor(scratch);
  entry_maps_.pop_back();
  metric_->InvalidateCentroid(static_cast<size_t>(scratch));
  VZ_ASSIGN_OR_RETURN(int item, std::move(nearest));
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
