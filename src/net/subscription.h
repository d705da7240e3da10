#ifndef VZ_NET_SUBSCRIPTION_H_
#define VZ_NET_SUBSCRIPTION_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/svs.h"
#include "net/wire.h"

namespace vz::net {

/// Registry and delivery buffer of standing queries (see DESIGN.md,
/// "Standing queries and multiplexing").
///
/// The engine sits between two planes with incompatible latency contracts:
///
///  - The *ingest* plane calls `OnSegment` for every finalized segment,
///    typically under the serving layer's exclusive state lock. It must
///    never block on a subscriber: match evaluation is a handful of
///    Euclidean kernels against the new segment's feature map, and delivery
///    is an O(1) enqueue into a bounded per-subscription queue.
///  - The *delivery* plane (the front end's `RpcEndpoint` push thread)
///    waits on `WaitForWork`, drains pending events per connection with
///    `Drain`, and writes them to sockets it has verified writable. A
///    subscriber that stops reading simply stops being drained; its queue
///    saturates and drop-oldest kicks in, recorded by a `PushKind::kGap`
///    marker that is materialized as the FIRST event of the next successful
///    drain.
///
/// Delivery is therefore at-most-once with explicit loss accounting:
/// sequences are assigned at drain time, so as-delivered sequence numbers
/// are dense and a subscriber can prove it saw every frame the server sent.
///
/// An edge server feeds the engine from its own ingest (`OnSegment`,
/// `OnIndexVersion`); a coordinator feeds it the remapped pushes of its
/// edges (`Forward`). Both deliver under the same contract.
///
/// Thread-safe; every public method takes the engine mutex. Subscription
/// state is connection-scoped: `DropConnection` reclaims everything a
/// closed or evicted connection registered.
class SubscriptionEngine {
 public:
  struct Options {
    /// Bounded per-subscription event queue; the oldest event is dropped
    /// (and counted into the next gap marker) when a new one arrives full.
    size_t queue_capacity = 256;
    /// Cap on events handed out per subscription per Drain call, so one
    /// hot subscription cannot monopolize a delivery round.
    size_t max_drain_per_subscription = 64;
  };

  struct Stats {
    uint64_t subscriptions_active = 0;
    uint64_t subscriptions_total = 0;
    uint64_t events_enqueued = 0;
    uint64_t events_dropped = 0;
    uint64_t gaps_recorded = 0;
    uint64_t matches_evaluated = 0;
  };

  /// One drained event bound for one connection.
  struct Delivery {
    uint64_t correlation = 0;  // the owning Subscribe RPC's correlation id
    PushEvent event;
  };

  SubscriptionEngine();
  explicit SubscriptionEngine(Options options);

  /// Registers a standing query owned by `conn_id`; pushes for it carry
  /// `correlation`. Returns the new subscription id (unique per engine).
  uint64_t Subscribe(uint64_t conn_id, uint64_t correlation,
                     SubscribeRequest spec);

  /// Cancels one subscription. kNotFound when the id is unknown or owned by
  /// a different connection (a connection may only cancel its own).
  Status Unsubscribe(uint64_t conn_id, uint64_t subscription_id);

  /// Reclaims every subscription owned by `conn_id` (connection closed or
  /// evicted) and returns their ids. Idempotent.
  std::vector<uint64_t> DropConnection(uint64_t conn_id);

  /// Ingest-plane hook: evaluate `svs` against every match subscription and
  /// enqueue a `kMatch` event for each hit. Non-blocking (bounded queues
  /// drop oldest). Wakes the delivery plane when anything was enqueued.
  void OnSegment(const core::Svs& svs);

  /// Ingest-plane hook: the index version advanced; enqueue a
  /// `kIndexUpdate` for every stats subscription that has not yet seen
  /// `version`. Consecutive updates coalesce: a queue whose newest pending
  /// event is an index update is overwritten in place rather than grown.
  void OnIndexVersion(uint64_t version);

  /// Enqueues `event`, produced elsewhere (a coordinator forwarding an edge
  /// push), for `subscription_id`, stamped with that id. The queue bound
  /// and drop-oldest apply as to local events; a forwarded gap marker keeps
  /// its place in the stream, and its count folds into the next local one
  /// if it is dropped. Returns false, enqueueing nothing, when the id is
  /// unknown (the subscription is gone).
  bool Forward(uint64_t subscription_id, PushEvent event);

  /// Delivery-plane wait: blocks until any subscription has a pending event
  /// or `timeout_ms` elapses. Returns true when work may be pending.
  bool WaitForWork(int64_t timeout_ms);

  /// Connections that own at least one subscription with pending events.
  std::vector<uint64_t> ConnectionsWithPending();

  /// Drains up to `max_drain_per_subscription` events from each of
  /// `conn_id`'s subscriptions, assigning delivery sequences. A recorded
  /// gap is materialized as the first event of its subscription's batch.
  std::vector<Delivery> Drain(uint64_t conn_id);

  Stats stats() const;

 private:
  struct Subscription {
    uint64_t id = 0;
    uint64_t conn_id = 0;
    uint64_t correlation = 0;
    SubscribeRequest spec;
    std::deque<PushEvent> queue;
    /// Events dropped since the last materialized gap marker.
    uint64_t dropped_pending = 0;
    /// Next as-delivered sequence number (assigned at drain time).
    uint64_t next_sequence = 0;
    /// Newest index version already enqueued or delivered (stats subs).
    uint64_t seen_index_version = 0;
  };

  /// Enqueues under `mu_`, applying drop-oldest.
  void EnqueueLocked(Subscription* sub, PushEvent event);

  const Options options_;
  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  uint64_t next_id_ = 1;
  std::unordered_map<uint64_t, Subscription> subscriptions_;
  /// conn id -> subscription ids owned by it (registration order).
  std::unordered_map<uint64_t, std::vector<uint64_t>> by_conn_;
  Stats stats_;
};

}  // namespace vz::net

#endif  // VZ_NET_SUBSCRIPTION_H_
