#include "core/intra_camera_index.h"

#include <algorithm>
#include <utility>

#include "clustering/silhouette.h"

namespace vz::core {

IntraCameraIndex::IntraCameraIndex(CameraId camera, SvsStore* store,
                                   SvsMetric* metric,
                                   const IntraIndexOptions& options, Rng rng)
    : camera_(std::move(camera)),
      store_(store),
      metric_(metric),
      options_(options),
      rng_(rng),
      tree_(metric, options.perch) {}

Status IntraCameraIndex::Insert(SvsId id) {
  VZ_ASSIGN_OR_RETURN(Svs * svs, store_->GetMutable(id));
  if (svs->camera() != camera_) {
    return Status::InvalidArgument("SVS belongs to a different camera");
  }
  if (svs->representative().empty() && !svs->features().empty()) {
    VZ_ASSIGN_OR_RETURN(
        Representative rep,
        BuildRepresentative(svs->features(), options_.representative, &rng_));
    svs->set_representative(std::move(rep));
  }
  VZ_RETURN_IF_ERROR(tree_.Insert(static_cast<int>(id)));
  ++inserts_since_recluster_;
  if (inserts_since_recluster_ >= options_.recluster_interval ||
      clusters_.empty()) {
    VZ_RETURN_IF_ERROR(Recluster());
  }
  return Status::OK();
}

size_t IntraCameraIndex::ChooseClusterCount() {
  if (options_.forced_num_clusters.has_value()) {
    return std::max<size_t>(1, *options_.forced_num_clusters);
  }
  const size_t n = tree_.size();
  if (n < 3) return 1;
  // Silhouette sweep over SVS centroids — a cheap Euclidean proxy for the
  // OMD space (the OCD centroid stands in for each SVS, Sec. 4.3).
  std::vector<FeatureVector> centroids;
  centroids.reserve(n);
  for (int item : tree_.items()) {
    auto svs = store_->Get(item);
    if (svs.ok()) centroids.push_back((*svs)->centroid());
  }
  auto sweep = clustering::ChooseKBySilhouette(
      centroids, options_.min_clusters,
      std::min(options_.max_clusters, centroids.size() - 1), &rng_);
  if (!sweep.ok()) return std::max<size_t>(1, options_.min_clusters);
  return sweep->best_k;
}

Status IntraCameraIndex::Recluster() {
  inserts_since_recluster_ = 0;
  if (tree_.size() == 0) {
    clusters_.clear();
    return Status::OK();
  }
  const size_t k = ChooseClusterCount();
  const std::vector<std::vector<int>> raw = tree_.ExtractClusters(k);
  std::vector<Cluster> next;
  next.reserve(raw.size());
  for (const std::vector<int>& members : raw) {
    Cluster cluster;
    std::vector<const Representative*> reps;
    std::vector<const FeatureMap*> maps;
    maps.reserve(members.size());
    for (int m : members) {
      cluster.members.push_back(static_cast<SvsId>(m));
      auto svs = store_->Get(m);
      if (!svs.ok()) continue;
      maps.push_back(&(*svs)->features());
      if (!(*svs)->representative().empty()) {
        reps.push_back(&(*svs)->representative());
      }
    }
    // The cluster representative must *cover* its members' representatives:
    // a query feature that hits a member SVS's decision boundary must also
    // hit the cluster's, or the hierarchy filters out reachable content
    // (rare classes dilute away under pooled re-clustering).
    if (!reps.empty() && options_.covering_cluster_representatives) {
      VZ_ASSIGN_OR_RETURN(
          cluster.representative,
          BuildCoveringRepresentative(reps, options_.representative, &rng_));
    } else if (!maps.empty()) {
      VZ_ASSIGN_OR_RETURN(
          cluster.representative,
          BuildRepresentative(maps, options_.representative, &rng_));
    }
    next.push_back(std::move(cluster));
  }
  clusters_ = std::move(next);
  ++representative_version_;
  return Status::OK();
}

std::vector<SvsId> IntraCameraIndex::FeatureSearch(
    const FeatureVector& feature, double boundary_scale) const {
  std::vector<SvsId> result;
  for (const Cluster& cluster : clusters_) {
    if (!cluster.representative.Hit(feature, boundary_scale)) continue;
    for (SvsId id : cluster.members) {
      auto svs = store_->Get(id);
      if (!svs.ok()) continue;
      if ((*svs)->representative().Hit(feature, boundary_scale)) {
        result.push_back(id);
      }
    }
  }
  return result;
}

StatusOr<std::vector<SvsId>> IntraCameraIndex::ClusterMembers(
    size_t cluster_index) const {
  if (cluster_index >= clusters_.size()) {
    return Status::OutOfRange("cluster index out of range");
  }
  return clusters_[cluster_index].members;
}

StatusOr<SvsId> IntraCameraIndex::NearestSvs(const FeatureMap& query) const {
  if (tree_.size() == 0) return Status::NotFound("index is empty");
  VZ_ASSIGN_OR_RETURN(int item,
                      tree_.NearestNeighbor(SvsMetric::Query(metric_, &query)));
  return static_cast<SvsId>(item);
}

StatusOr<const Representative*> IntraCameraIndex::ClusterRepresentativeFor(
    SvsId id) const {
  for (const Cluster& cluster : clusters_) {
    for (SvsId member : cluster.members) {
      if (member == id) return &cluster.representative;
    }
  }
  return Status::NotFound("SVS is not in any derived cluster");
}

void IntraCameraIndex::SetForcedClusterCount(std::optional<size_t> k) {
  options_.forced_num_clusters = k;
}

}  // namespace vz::core
