#include "net/subscription.h"

#include <algorithm>
#include <chrono>

#include "vector/feature_vector.h"

namespace vz::net {

SubscriptionEngine::SubscriptionEngine() : SubscriptionEngine(Options{}) {}

SubscriptionEngine::SubscriptionEngine(Options options)
    : options_(options) {}

uint64_t SubscriptionEngine::Subscribe(uint64_t conn_id, uint64_t correlation,
                                       SubscribeRequest spec) {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t id = next_id_++;
  Subscription sub;
  sub.id = id;
  sub.conn_id = conn_id;
  sub.correlation = correlation;
  sub.spec = std::move(spec);
  subscriptions_.emplace(id, std::move(sub));
  by_conn_[conn_id].push_back(id);
  ++stats_.subscriptions_total;
  stats_.subscriptions_active = subscriptions_.size();
  return id;
}

Status SubscriptionEngine::Unsubscribe(uint64_t conn_id,
                                       uint64_t subscription_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = subscriptions_.find(subscription_id);
  if (it == subscriptions_.end() || it->second.conn_id != conn_id) {
    return Status::NotFound("unknown subscription id " +
                            std::to_string(subscription_id));
  }
  auto conn_it = by_conn_.find(conn_id);
  if (conn_it != by_conn_.end()) {
    auto& ids = conn_it->second;
    ids.erase(std::remove(ids.begin(), ids.end(), subscription_id),
              ids.end());
    if (ids.empty()) by_conn_.erase(conn_it);
  }
  subscriptions_.erase(it);
  stats_.subscriptions_active = subscriptions_.size();
  return Status::OK();
}

std::vector<uint64_t> SubscriptionEngine::DropConnection(uint64_t conn_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto conn_it = by_conn_.find(conn_id);
  if (conn_it == by_conn_.end()) return {};
  std::vector<uint64_t> ids = std::move(conn_it->second);
  by_conn_.erase(conn_it);
  for (uint64_t id : ids) subscriptions_.erase(id);
  stats_.subscriptions_active = subscriptions_.size();
  return ids;
}

void SubscriptionEngine::EnqueueLocked(Subscription* sub, PushEvent event) {
  if (sub->queue.size() >= options_.queue_capacity) {
    // Drop-oldest, never drop-newest: the subscriber's view stays as close
    // to the live edge as its drain rate allows, and the loss is recorded
    // for the next gap marker. A dropped gap marker folds its own count in.
    const PushEvent& oldest = sub->queue.front();
    sub->dropped_pending +=
        oldest.kind == PushKind::kGap ? oldest.dropped : 1;
    sub->queue.pop_front();
    ++stats_.events_dropped;
  }
  sub->queue.push_back(std::move(event));
  ++stats_.events_enqueued;
}

void SubscriptionEngine::OnSegment(const core::Svs& svs) {
  const FeatureMap& map = svs.features();
  // The row-pointer table is built lazily: most segments match no
  // subscription filter, and many engines have no match subscriptions at
  // all.
  std::vector<const float*> rows;
  std::vector<double> distances;
  bool enqueued = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [id, sub] : subscriptions_) {
      if (!sub.spec.want_matches) continue;
      if (sub.spec.has_camera_filter &&
          std::find(sub.spec.cameras.begin(), sub.spec.cameras.end(),
                    svs.camera()) == sub.spec.cameras.end()) {
        continue;
      }
      // A dimension mismatch is a non-match, not an error: cameras with
      // differing feature dimensionality can coexist under one engine.
      if (sub.spec.query.dim() != map.dim() || map.size() == 0) continue;
      if (rows.empty()) {
        rows.reserve(map.size());
        for (size_t i = 0; i < map.size(); ++i) rows.push_back(map.row(i));
        distances.resize(map.size());
      }
      EuclideanDistancesTo(sub.spec.query.data(), rows.data(), rows.size(),
                           map.dim(), distances.data());
      ++stats_.matches_evaluated;
      const double best =
          *std::min_element(distances.begin(), distances.end());
      if (best > sub.spec.threshold) continue;
      PushEvent event;
      event.subscription_id = sub.id;
      event.kind = PushKind::kMatch;
      event.svs_id = svs.id();
      event.camera = svs.camera();
      event.start_ms = svs.start_ms();
      event.end_ms = svs.end_ms();
      event.distance = best;
      EnqueueLocked(&sub, std::move(event));
      enqueued = true;
    }
  }
  if (enqueued) work_cv_.notify_all();
}

void SubscriptionEngine::OnIndexVersion(uint64_t version) {
  bool enqueued = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [id, sub] : subscriptions_) {
      if (!sub.spec.want_stats) continue;
      if (version <= sub.seen_index_version) continue;
      sub.seen_index_version = version;
      // Coalesce: a pending index update is overwritten in place — the
      // subscriber only ever cares about the newest version, and a slow
      // stats subscriber must not burn queue slots on stale ones.
      if (!sub.queue.empty() &&
          sub.queue.back().kind == PushKind::kIndexUpdate) {
        sub.queue.back().index_version = version;
      } else {
        PushEvent event;
        event.subscription_id = sub.id;
        event.kind = PushKind::kIndexUpdate;
        event.index_version = version;
        EnqueueLocked(&sub, std::move(event));
      }
      enqueued = true;
    }
  }
  if (enqueued) work_cv_.notify_all();
}

bool SubscriptionEngine::Forward(uint64_t subscription_id, PushEvent event) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = subscriptions_.find(subscription_id);
    if (it == subscriptions_.end()) return false;
    event.subscription_id = subscription_id;
    EnqueueLocked(&it->second, std::move(event));
  }
  work_cv_.notify_all();
  return true;
}

bool SubscriptionEngine::WaitForWork(int64_t timeout_ms) {
  std::unique_lock<std::mutex> lock(mu_);
  auto has_work = [this] {
    for (const auto& [id, sub] : subscriptions_) {
      if (!sub.queue.empty() || sub.dropped_pending > 0) return true;
    }
    return false;
  };
  if (timeout_ms <= 0) return has_work();
  work_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms), has_work);
  return has_work();
}

std::vector<uint64_t> SubscriptionEngine::ConnectionsWithPending() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<uint64_t> conns;
  for (const auto& [conn_id, ids] : by_conn_) {
    for (uint64_t id : ids) {
      auto it = subscriptions_.find(id);
      if (it != subscriptions_.end() &&
          (!it->second.queue.empty() || it->second.dropped_pending > 0)) {
        conns.push_back(conn_id);
        break;
      }
    }
  }
  // Deterministic delivery order across rounds.
  std::sort(conns.begin(), conns.end());
  return conns;
}

std::vector<SubscriptionEngine::Delivery> SubscriptionEngine::Drain(
    uint64_t conn_id) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Delivery> out;
  auto conn_it = by_conn_.find(conn_id);
  if (conn_it == by_conn_.end()) return out;
  for (uint64_t id : conn_it->second) {
    auto it = subscriptions_.find(id);
    if (it == subscriptions_.end()) continue;
    Subscription& sub = it->second;
    size_t budget = options_.max_drain_per_subscription;
    // Loss first: the gap marker precedes the events that survived it, so
    // the subscriber knows the discontinuity's position in the stream.
    if (sub.dropped_pending > 0 && budget > 0) {
      PushEvent gap;
      gap.subscription_id = sub.id;
      gap.kind = PushKind::kGap;
      gap.dropped = sub.dropped_pending;
      gap.sequence = sub.next_sequence++;
      sub.dropped_pending = 0;
      ++stats_.gaps_recorded;
      out.push_back(Delivery{sub.correlation, std::move(gap)});
      --budget;
    }
    while (!sub.queue.empty() && budget > 0) {
      PushEvent event = std::move(sub.queue.front());
      sub.queue.pop_front();
      event.sequence = sub.next_sequence++;
      out.push_back(Delivery{sub.correlation, std::move(event)});
      --budget;
    }
  }
  return out;
}

SubscriptionEngine::Stats SubscriptionEngine::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace vz::net
