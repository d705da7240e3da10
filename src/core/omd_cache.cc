#include "core/omd_cache.h"

#include <algorithm>
#include <bit>

#include "core/omd.h"

namespace vz::core {

namespace {

// splitmix64 finalizer, for mixing the packed key fields.
uint64_t Mix(uint64_t x) {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x;
}

}  // namespace

size_t OmdDistanceCache::KeyHash::operator()(const Key& key) const {
  uint64_t h = Mix(key.lo ^ Mix(key.hi));
  h = Mix(h ^ static_cast<uint64_t>(key.mode));
  h = Mix(h ^ std::bit_cast<uint64_t>(key.alpha));
  return static_cast<size_t>(h);
}

OmdDistanceCache::Key OmdDistanceCache::MakeKey(uint64_t a, uint64_t b,
                                                OmdMode mode, double alpha) {
  Key key;
  key.lo = std::min(a, b);
  key.hi = std::max(a, b);
  key.mode = mode;
  key.alpha = alpha;
  return key;
}

OmdDistanceCache::OmdDistanceCache(size_t capacity)
    : capacity_(std::max<size_t>(1, capacity)) {}

std::optional<double> OmdDistanceCache::Lookup(uint64_t a, uint64_t b,
                                               OmdMode mode, double alpha) {
  const Key key = MakeKey(a, b, mode, alpha);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    ++misses_;
    return std::nullopt;
  }
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second);  // bump to most recent
  return it->second->second;
}

void OmdDistanceCache::Insert(uint64_t a, uint64_t b, OmdMode mode,
                              double alpha, double distance) {
  const Key key = MakeKey(a, b, mode, alpha);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->second = distance;
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  if (lru_.size() >= capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
  }
  lru_.emplace_front(key, distance);
  index_.emplace(key, lru_.begin());
  ++insertions_;
}

void OmdDistanceCache::Insert(uint64_t a, uint64_t b, OmdMode mode,
                              double alpha, double distance,
                              const CancelToken* cancel) {
  if (Cancelled(cancel)) {
    std::lock_guard<std::mutex> lock(mu_);
    ++rejected_inserts_;
    return;
  }
  Insert(a, b, mode, alpha, distance);
}

void OmdDistanceCache::InvalidateSvs(SvsId id) {
  Invalidate({static_cast<uint64_t>(id)});
}

void OmdDistanceCache::Invalidate(std::vector<uint64_t> identities) {
  if (identities.empty()) return;
  std::sort(identities.begin(), identities.end());
  const auto dropped = [&identities](const Key& key) {
    // A pair whose higher identity sorts below every dropped one survives.
    return key.hi >= identities.front() &&
           (std::binary_search(identities.begin(), identities.end(), key.lo) ||
            std::binary_search(identities.begin(), identities.end(), key.hi));
  };
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (dropped(it->first)) {
      index_.erase(it->first);
      it = lru_.erase(it);
      ++invalidations_;
    } else {
      ++it;
    }
  }
}

void OmdDistanceCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  invalidations_ += lru_.size();
  lru_.clear();
  index_.clear();
}

OmdCacheStats OmdDistanceCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  OmdCacheStats stats;
  stats.hits = hits_;
  stats.misses = misses_;
  stats.insertions = insertions_;
  stats.invalidations = invalidations_;
  stats.rejected_inserts = rejected_inserts_;
  stats.entries = lru_.size();
  stats.capacity = capacity_;
  return stats;
}

void OmdDistanceCache::ResetStats() {
  std::lock_guard<std::mutex> lock(mu_);
  hits_ = misses_ = insertions_ = invalidations_ = rejected_inserts_ = 0;
}

size_t OmdDistanceCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

size_t OmdDistanceCache::PairsAtOrAbove(uint64_t identity) const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<size_t>(std::count_if(
      lru_.begin(), lru_.end(),
      [identity](const auto& entry) { return entry.first.lo >= identity; }));
}

}  // namespace vz::core
