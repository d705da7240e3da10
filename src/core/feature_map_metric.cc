#include "core/feature_map_metric.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <unordered_set>

#include "common/logging.h"

namespace vz::core {

size_t PairDistanceMemo::KeyHash::operator()(const Key& key) const {
  return std::hash<uint64_t>()(key.first * 0x9E3779B97F4A7C15ULL ^ key.second);
}

std::optional<double> PairDistanceMemo::Lookup(uint64_t a, uint64_t b) const {
  auto it = distances_.find({a, b});
  if (it == distances_.end()) return std::nullopt;
  return it->second;
}

void PairDistanceMemo::Insert(uint64_t a, uint64_t b, double distance) {
  distances_.emplace(Key{a, b}, distance);
}

void PairDistanceMemo::Prune(const std::vector<uint64_t>& live,
                             const OmdOptions& options) {
  if (options_ != options) {
    distances_.clear();
    options_ = options;
    return;
  }
  const std::unordered_set<uint64_t> alive(live.begin(), live.end());
  std::erase_if(distances_, [&alive](const auto& entry) {
    return alive.count(entry.first.first) == 0 ||
           alive.count(entry.first.second) == 0;
  });
}

double FeatureMapListMetric::Distance(int a, int b) {
  if (a == b) return 0.0;
  // Failures poison the pair with +inf instead of reading as "identical";
  // see SvsMetric::Distance for the rationale.
  if (a < 0 || b < 0 || static_cast<size_t>(a) >= maps_->size() ||
      static_cast<size_t>(b) >= maps_->size()) {
    VZ_LOG(Error) << "FeatureMapListMetric: id out of range";
    failed_distances_.fetch_add(1, std::memory_order_relaxed);
    return std::numeric_limits<double>::infinity();
  }
  const bool keyed = pair_memo_ != nullptr &&
                     static_cast<size_t>(a) < pair_ids_->size() &&
                     static_cast<size_t>(b) < pair_ids_->size();
  uint64_t id_a = 0;
  uint64_t id_b = 0;
  if (keyed) {
    id_a = (*pair_ids_)[static_cast<size_t>(a)];
    id_b = (*pair_ids_)[static_cast<size_t>(b)];
    if (auto hit = pair_memo_->Lookup(id_a, id_b)) return *hit;
  }
  int64_t key = 0;
  if (memoize_) {
    const auto lo = static_cast<uint32_t>(std::min(a, b));
    const auto hi = static_cast<uint32_t>(std::max(a, b));
    key = static_cast<int64_t>((static_cast<uint64_t>(lo) << 32) | hi);
    auto it = memo_.find(key);
    if (it != memo_.end()) return it->second;
  }
  ++num_evals_;
  auto result = calculator_->Distance((*maps_)[static_cast<size_t>(a)],
                                      (*maps_)[static_cast<size_t>(b)]);
  if (!result.ok()) {
    VZ_LOG(Error) << "OMD failed: " << result.status().ToString();
    failed_distances_.fetch_add(1, std::memory_order_relaxed);
    return std::numeric_limits<double>::infinity();
  }
  if (memoize_) memo_.emplace(key, *result);
  if (keyed) pair_memo_->Insert(id_a, id_b, *result);
  return *result;
}

double FeatureMapListMetric::LowerBound(int a, int b) {
  if (a == b) return 0.0;
  if (a < 0 || b < 0 || static_cast<size_t>(a) >= maps_->size() ||
      static_cast<size_t>(b) >= maps_->size()) {
    return 0.0;
  }
  if (centroids_.size() < maps_->size()) centroids_.resize(maps_->size());
  auto centroid_of = [this](size_t i) -> const FeatureVector& {
    if (centroids_[i].empty() && !(*maps_)[i].empty()) {
      centroids_[i] = (*maps_)[i].Centroid();
    }
    return centroids_[i];
  };
  const FeatureVector& ca = centroid_of(static_cast<size_t>(a));
  const FeatureVector& cb = centroid_of(static_cast<size_t>(b));
  double bound = 0.0;
  if (ca.dim() == cb.dim() && !ca.empty()) {
    bound = EuclideanDistance(ca, cb);
  }
  if (quantized_prune_) {
    bound = std::max(
        bound, QuantizedOmdLowerBound((*maps_)[static_cast<size_t>(a)],
                                      (*maps_)[static_cast<size_t>(b)],
                                      calculator_->options()));
  }
  return bound;
}

}  // namespace vz::core
