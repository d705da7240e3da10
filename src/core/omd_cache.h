#ifndef VZ_CORE_OMD_CACHE_H_
#define VZ_CORE_OMD_CACHE_H_

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/deadline.h"
#include "core/frame.h"

namespace vz::core {

enum class OmdMode;  // core/omd.h

/// Counters of the shared OMD distance cache, surfaced through
/// `PerformanceMonitor::omd_cache_stats()` so parameter adaptation can see
/// how much of the query cost is being absorbed by memoization.
struct OmdCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  /// Entries dropped by `InvalidateSvs` / `Invalidate` / `Clear` (not by LRU
  /// eviction).
  uint64_t invalidations = 0;
  /// Inserts refused because the distance was computed under a fired cancel
  /// token (see the token-guarded `Insert` overload).
  uint64_t rejected_inserts = 0;
  size_t entries = 0;
  size_t capacity = 0;

  double hit_rate() const {
    const uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

/// Memo identities of the maps `OmdDistanceCache` keys. A stored SVS's
/// identity is its `SvsId`. An inter-camera entry takes one at or above this
/// when `InterCameraIndex` imports it and keeps it while the entry is kept.
/// The two ranges never meet, and every SVS sorts below every entry.
inline constexpr uint64_t kFirstEntryIdentity = uint64_t{1} << 63;

/// The one OMD memo: a thread-safe LRU of pair distances keyed by
/// `(lower identity, higher identity, mode, threshold_alpha)`.
///
/// One instance per `VideoZilla` serves every solve between identified maps:
/// the intra indices' PERCH insertions and rotations (SVS pairs), the
/// inter-camera index's rebuilds (entry pairs), the hierarchical
/// `ClusteringQuery(id)` (target SVS to entry) and the flat fallback (target
/// SVS to candidate SVS). An `SvsMetric` or `InterCameraIndex` built without
/// a shared instance owns one.
///
/// The solver is not bit-symmetric, so every consumer solves a pair lower
/// identity first; a hit then returns the bits a cold solve would, whichever
/// side asked first. The OMD configuration is part of the key, so the
/// performance monitor's switch to exact OMD (Sec. 5.3 adjustment ii) can
/// never be served a stale thresholded value. Pairs of a map that changed or
/// went away must be dropped: `VideoZilla` calls `InvalidateSvs` on every
/// store insertion, and the inter-camera index drops the pairs of the entries
/// it drops. A query map without an identity is never memoized.
class OmdDistanceCache {
 public:
  static constexpr size_t kDefaultCapacity = 1 << 16;

  explicit OmdDistanceCache(size_t capacity = kDefaultCapacity);

  /// Cached distance for the identity pair under the given configuration,
  /// bumping it to most-recently-used; nullopt on miss. Allocation-free.
  std::optional<double> Lookup(uint64_t a, uint64_t b, OmdMode mode,
                               double alpha);

  /// Memoizes a computed distance (evicting the least-recently-used entry at
  /// capacity). Overwrites an existing entry for the same key.
  void Insert(uint64_t a, uint64_t b, OmdMode mode, double alpha,
              double distance);

  /// Token-guarded insert: refuses (and counts `rejected_inserts`) when
  /// `cancel` has fired. A distance produced under an expired deadline may
  /// rest on a partially filled ground matrix or an aborted solve; caching it
  /// would poison every later query for the pair, so deadline-carrying call
  /// sites must insert through this overload.
  void Insert(uint64_t a, uint64_t b, OmdMode mode, double alpha,
              double distance, const CancelToken* cancel);

  /// Drops every entry involving `id`. Call whenever an SVS is (re)ingested
  /// or its feature map could have changed.
  void InvalidateSvs(SvsId id);

  /// Drops every entry involving any of `identities`, in one pass.
  void Invalidate(std::vector<uint64_t> identities);

  /// Drops everything (e.g. after a bulk restore).
  void Clear();

  OmdCacheStats stats() const;
  void ResetStats();

  size_t size() const;
  size_t capacity() const { return capacity_; }

  /// Entries whose both identities are at least `identity`; with
  /// `kFirstEntryIdentity`, the pairs between inter-camera entries.
  size_t PairsAtOrAbove(uint64_t identity) const;

 private:
  struct Key {
    uint64_t lo = 0;
    uint64_t hi = 0;
    OmdMode mode;
    double alpha = 0.0;

    bool operator==(const Key& other) const {
      return lo == other.lo && hi == other.hi && mode == other.mode &&
             alpha == other.alpha;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& key) const;
  };
  static Key MakeKey(uint64_t a, uint64_t b, OmdMode mode, double alpha);

  using LruList = std::list<std::pair<Key, double>>;

  const size_t capacity_;
  mutable std::mutex mu_;
  LruList lru_;  // front = most recently used
  std::unordered_map<Key, LruList::iterator, KeyHash> index_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t insertions_ = 0;
  uint64_t invalidations_ = 0;
  uint64_t rejected_inserts_ = 0;
};

}  // namespace vz::core

#endif  // VZ_CORE_OMD_CACHE_H_
