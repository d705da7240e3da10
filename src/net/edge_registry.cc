#include "net/edge_registry.h"

#include <algorithm>
#include <utility>

namespace vz::net {

EdgeRegistry::EdgeRegistry(std::vector<EdgeEndpoint> edges,
                           const EdgeRegistryOptions& options)
    : options_(options) {
  edges_.reserve(edges.size());
  for (size_t i = 0; i < edges.size(); ++i) {
    Edge edge;
    edge.endpoint = std::move(edges[i]);
    edge.rng = Rng(options_.seed ^ static_cast<uint64_t>(i));
    edges_.push_back(std::move(edge));
  }
}

EdgeEndpoint EdgeRegistry::endpoint(size_t index) const {
  std::lock_guard<std::mutex> lock(mu_);
  return edges_[index].endpoint;
}

void EdgeRegistry::RecordSuccess(size_t index, int64_t now_ms) {
  (void)now_ms;
  std::lock_guard<std::mutex> lock(mu_);
  Edge& edge = edges_[index];
  edge.consecutive_failures = 0;
  edge.unreachable = false;
  edge.probe_attempt = 0;
  edge.next_probe_ms = 0;
}

void EdgeRegistry::RecordFailure(size_t index, int64_t now_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  Edge& edge = edges_[index];
  ++edge.consecutive_failures;
  if (edge.unreachable) {
    // A failed probe: back off further before the next one.
    ++edge.probe_attempt;
    ScheduleProbeLocked(&edge, now_ms);
    return;
  }
  if (edge.consecutive_failures >= options_.unreachable_after) {
    edge.unreachable = true;
    edge.probe_attempt = 0;
    ScheduleProbeLocked(&edge, now_ms);
  }
}

void EdgeRegistry::RecordRepSync(size_t index, uint64_t version,
                                 uint64_t entries, int64_t now_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  Edge& edge = edges_[index];
  edge.consecutive_failures = 0;
  edge.unreachable = false;
  edge.probe_attempt = 0;
  edge.next_probe_ms = 0;
  edge.synced_version = version;
  edge.rep_entries = entries;
  edge.last_sync_ms = now_ms;
}

void EdgeRegistry::RecordCameras(size_t index,
                                 std::vector<core::CameraId> cameras) {
  std::sort(cameras.begin(), cameras.end());
  std::lock_guard<std::mutex> lock(mu_);
  edges_[index].cameras = std::move(cameras);
}

uint64_t EdgeRegistry::synced_version(size_t index) const {
  std::lock_guard<std::mutex> lock(mu_);
  return edges_[index].synced_version;
}

bool EdgeRegistry::Eligible(size_t index) const {
  std::lock_guard<std::mutex> lock(mu_);
  return !edges_[index].unreachable;
}

bool EdgeRegistry::ProbeDue(size_t index, int64_t now_ms) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Edge& edge = edges_[index];
  return edge.unreachable && now_ms >= edge.next_probe_ms;
}

ShardState EdgeRegistry::StateAtLocked(const Edge& edge,
                                       int64_t now_ms) const {
  if (edge.unreachable) return ShardState::kUnreachable;
  if (edge.consecutive_failures > 0) return ShardState::kDegraded;
  if (edge.last_sync_ms < 0) return ShardState::kDegraded;
  if (options_.rep_staleness_bound_ms > 0 &&
      now_ms - edge.last_sync_ms > options_.rep_staleness_bound_ms) {
    return ShardState::kDegraded;
  }
  return ShardState::kHealthy;
}

std::vector<core::CameraId> EdgeRegistry::CamerasOf(size_t index) const {
  std::lock_guard<std::mutex> lock(mu_);
  return edges_[index].cameras;
}

EdgeRegistry::EdgeSnapshot EdgeRegistry::Snapshot(size_t index,
                                                  int64_t now_ms) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Edge& edge = edges_[index];
  EdgeSnapshot snapshot;
  snapshot.endpoint = edge.endpoint;
  snapshot.index = index;
  snapshot.state = StateAtLocked(edge, now_ms);
  snapshot.consecutive_failures = edge.consecutive_failures;
  snapshot.rep_staleness_ms =
      edge.last_sync_ms < 0 ? -1 : now_ms - edge.last_sync_ms;
  snapshot.synced_version = edge.synced_version;
  snapshot.rep_entries = edge.rep_entries;
  snapshot.cameras = edge.cameras;
  return snapshot;
}

std::vector<ShardHealthInfo> EdgeRegistry::HealthTable(int64_t now_ms) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ShardHealthInfo> table;
  table.reserve(edges_.size());
  for (const Edge& edge : edges_) {
    ShardHealthInfo info;
    info.host = edge.endpoint.host;
    info.port = edge.endpoint.port;
    info.state = StateAtLocked(edge, now_ms);
    info.consecutive_failures = edge.consecutive_failures;
    info.rep_staleness_ms =
        edge.last_sync_ms < 0 ? -1 : now_ms - edge.last_sync_ms;
    info.rep_entries = edge.rep_entries;
    info.cameras = edge.cameras.size();
    table.push_back(std::move(info));
  }
  return table;
}

void EdgeRegistry::ScheduleProbeLocked(Edge* edge, int64_t now_ms) {
  int64_t delay = options_.probe_backoff_floor_ms;
  for (uint64_t i = 0; i < edge->probe_attempt && i < 32; ++i) {
    delay *= 2;
    if (delay >= options_.probe_backoff_cap_ms) break;
  }
  delay = std::min(delay, options_.probe_backoff_cap_ms);
  delay = std::max<int64_t>(delay, 1);
  // Subtractive jitter, like the client's shed backoff: never exceeds the
  // cap, de-synchronises coordinators (and edges) probing in lockstep.
  if (options_.probe_backoff_jitter > 0.0) {
    const double jitter =
        std::min(1.0, std::max(0.0, options_.probe_backoff_jitter));
    delay -= static_cast<int64_t>(edge->rng.UniformDouble() * jitter *
                                  static_cast<double>(delay));
  }
  edge->next_probe_ms = now_ms + delay;
}

}  // namespace vz::net
