#ifndef VZ_NET_EDGE_REGISTRY_H_
#define VZ_NET_EDGE_REGISTRY_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/svs.h"
#include "net/wire.h"

namespace vz::net {

/// Address of one edge shard a coordinator fans out to.
struct EdgeEndpoint {
  std::string host;
  uint16_t port = 0;
};

/// Tuning of the per-edge health ladder (see DESIGN.md, "Sharded
/// deployment").
struct EdgeRegistryOptions {
  /// Consecutive RPC failures that evict an edge from fan-out
  /// (`kUnreachable`). The first failure already demotes it to `kDegraded`.
  uint64_t unreachable_after = 2;
  /// A reachable edge whose last successful rep-sync is older than this is
  /// reported (and still fanned out) as `kDegraded`: its representatives may
  /// no longer prune correctly. <= 0 disables staleness demotion.
  int64_t rep_staleness_bound_ms = 10'000;
  /// Probe cadence for unreachable edges: exponential from the floor to the
  /// cap, with subtractive jitter from a stream seeded by `seed ^ index` so
  /// a coordinator never probes every dead edge in lockstep.
  int64_t probe_backoff_floor_ms = 50;
  int64_t probe_backoff_cap_ms = 2'000;
  double probe_backoff_jitter = 0.25;
  uint64_t seed = 0x5EED;
};

/// The coordinator's shard-health state machine: one row per configured edge,
/// driven by RPC outcomes (`RecordSuccess` / `RecordFailure`), rep-sync
/// progress (`RecordRepSync`) and the passage of time (staleness).
///
/// The ladder (wire enum `ShardState`):
///
///   kHealthy      — answering RPCs, representatives fresh. Full fan-out
///                   member.
///   kDegraded     — still fanned out, flagged for operators: either errors
///                   were seen since the last success, the edge has never
///                   completed a rep-sync, or its last sync is older than
///                   the staleness bound.
///   kUnreachable  — `unreachable_after` consecutive failures: evicted from
///                   fan-out, probed with seeded exponential backoff until a
///                   probe succeeds, then re-admitted.
///
/// All time arguments are milliseconds on one monotonic clock of the
/// caller's choosing (the coordinator passes steady-clock ms; tests may pass
/// anything monotone) — the registry itself never reads a clock, which keeps
/// every transition deterministic and unit-testable.
///
/// Thread-safe; every method takes the internal lock.
class EdgeRegistry {
 public:
  /// Everything the coordinator knows about one edge, as one snapshot.
  struct EdgeSnapshot {
    EdgeEndpoint endpoint;
    size_t index = 0;
    ShardState state = ShardState::kDegraded;
    uint64_t consecutive_failures = 0;
    /// ms since the last successful rep-sync at the probe time; -1 = never.
    int64_t rep_staleness_ms = -1;
    uint64_t synced_version = 0;
    uint64_t rep_entries = 0;
    std::vector<core::CameraId> cameras;
  };

  EdgeRegistry(std::vector<EdgeEndpoint> edges,
               const EdgeRegistryOptions& options);

  EdgeRegistry(const EdgeRegistry&) = delete;
  EdgeRegistry& operator=(const EdgeRegistry&) = delete;

  size_t size() const { return edges_.size(); }
  EdgeEndpoint endpoint(size_t index) const;

  /// Any RPC against the edge completed. Resets the failure streak; an
  /// unreachable edge is re-admitted (its probe just succeeded).
  void RecordSuccess(size_t index, int64_t now_ms);

  /// Any RPC against the edge failed at the transport level. Crossing
  /// `unreachable_after` consecutive failures evicts the edge and schedules
  /// its next probe with backoff (each further failed probe doubles the
  /// delay up to the cap).
  void RecordFailure(size_t index, int64_t now_ms);

  /// A rep-sync round-trip succeeded: the edge's index version is `version`
  /// and the coordinator now holds `entries` representatives for it. Counts
  /// as a success and resets the staleness clock.
  void RecordRepSync(size_t index, uint64_t version, uint64_t entries,
                     int64_t now_ms);

  /// Installs the edge's camera inventory (from its CameraHealth report) —
  /// what a degraded answer lists as `excluded_cameras` when the shard is
  /// down.
  void RecordCameras(size_t index, std::vector<core::CameraId> cameras);

  /// Index version acknowledged by the last successful rep-sync (the
  /// `since_version` of the next one).
  uint64_t synced_version(size_t index) const;

  /// True when the edge participates in fan-out (not `kUnreachable`).
  bool Eligible(size_t index) const;

  /// True when an unreachable edge's probe backoff has elapsed. Always
  /// false for reachable edges (they are synced on the regular cadence, not
  /// probed).
  bool ProbeDue(size_t index, int64_t now_ms) const;

  /// Cameras known to live on the edge.
  std::vector<core::CameraId> CamerasOf(size_t index) const;

  EdgeSnapshot Snapshot(size_t index, int64_t now_ms) const;

  /// The Monitor reply's per-shard table, one row per edge in index order.
  std::vector<ShardHealthInfo> HealthTable(int64_t now_ms) const;

 private:
  struct Edge {
    EdgeEndpoint endpoint;
    /// RPC-outcome level only; staleness demotion is applied at read time
    /// (it depends on `now`, not on an event).
    bool unreachable = false;
    uint64_t consecutive_failures = 0;
    int64_t last_sync_ms = -1;
    uint64_t synced_version = 0;
    uint64_t rep_entries = 0;
    /// Earliest monotonic ms for the next probe while unreachable.
    int64_t next_probe_ms = 0;
    /// Failed probes since eviction (the backoff exponent).
    uint64_t probe_attempt = 0;
    std::vector<core::CameraId> cameras;
    Rng rng{0};
  };

  ShardState StateAtLocked(const Edge& edge, int64_t now_ms) const;
  void ScheduleProbeLocked(Edge* edge, int64_t now_ms);

  const EdgeRegistryOptions options_;
  mutable std::mutex mu_;
  std::vector<Edge> edges_;
};

}  // namespace vz::net

#endif  // VZ_NET_EDGE_REGISTRY_H_
