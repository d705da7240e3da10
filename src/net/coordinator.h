#ifndef VZ_NET_COORDINATOR_H_
#define VZ_NET_COORDINATOR_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "core/inter_camera_index.h"
#include "core/omd.h"
#include "core/query.h"
#include "net/edge_registry.h"
#include "net/rpc_endpoint.h"
#include "net/subscription.h"
#include "net/wire.h"

namespace vz::net {

class Client;

/// Shard-qualified SVS ids. Every edge numbers its SVSs locally from 0; the
/// coordinator exposes a single id space by packing the shard index into the
/// high bits. 40 bits of local id leaves room for 2^23 shards — both far
/// beyond anything a deployment reaches before other limits bite.
inline constexpr int kShardIdBits = 40;

inline constexpr core::SvsId GlobalSvsId(size_t shard, core::SvsId local) {
  return (static_cast<core::SvsId>(shard) << kShardIdBits) | local;
}
inline constexpr size_t ShardOfSvsId(core::SvsId global) {
  return static_cast<size_t>(global >> kShardIdBits);
}
inline constexpr core::SvsId LocalSvsId(core::SvsId global) {
  return global & ((core::SvsId{1} << kShardIdBits) - 1);
}

/// Configuration of the coordinator front end.
struct CoordinatorOptions {
  /// Port to listen on; 0 lets the kernel pick (read back with `port()`).
  uint16_t port = 0;
  std::string bind_address = "127.0.0.1";
  /// The edge shards, in shard-index order. The order is part of the
  /// deployment contract: it defines the global id space and the merge
  /// order, so every coordinator of one deployment must list the same edges
  /// in the same order.
  std::vector<EdgeEndpoint> edges;

  // --- Client-facing connection handling (see `RpcEndpoint::Config`; the
  // --- coordinator never evicts idle connections). ---
  size_t max_connections = 8;
  int64_t shed_retry_after_ms = 50;
  int64_t idle_poll_ms = 50;
  int64_t read_timeout_ms = 10'000;
  int64_t write_timeout_ms = 10'000;

  // --- Fan-out. ---

  /// Per-frame I/O budget of every edge RPC — the hard backstop bounding
  /// how long a stalled or blackholed shard can hold a fan-out leg (connects
  /// get the fixed `kEdgeConnectTimeoutMs`). A killed edge fails much faster
  /// (connection refused / reset).
  int64_t edge_io_timeout_ms = 5'000;
  /// Prune direct-query fan-out with the edges' shipped representatives:
  /// shards none of whose synced representatives pass the hit test are not
  /// consulted (never-synced shards always are — there is nothing to prune
  /// with). Pruning-only at the shard granularity: an edge would reject the
  /// same representatives itself.
  bool prune_direct_fanout = true;
  /// Boundary scale of the coordinator-side hit tests until an `AdminTune`
  /// fanned out through this coordinator sets another; must match the
  /// edges' `VideoZillaOptions::boundary_scale`.
  double boundary_scale = 1.0;

  // --- Representative sync / probing. ---

  /// Cadence of the background rep-sync/probe thread. <= 0 disables the
  /// thread entirely; tests then drive `PollEdgesNow()` by hand for
  /// deterministic transitions.
  int64_t sync_interval_ms = 250;
  EdgeRegistryOptions registry;

  /// Unused: the coordinator keeps no representative index of its own, so
  /// nothing reads these. Kept only while existing callers still assign them.
  core::OmdOptions omd;
  core::InterIndexOptions inter;
};

/// Lifetime counters of the coordinator.
struct CoordinatorStats {
  uint64_t connections_accepted = 0;
  uint64_t connections_shed = 0;
  size_t connections_active = 0;  // gauge
  uint64_t requests_served = 0;
  uint64_t request_errors = 0;
  /// Fan-out legs attempted / failed at the transport level.
  uint64_t fanout_legs = 0;
  uint64_t fanout_failures = 0;
  /// Answers returned with `degraded = true` (a shard was down, slow, or
  /// already evicted).
  uint64_t degraded_answers = 0;
  /// Query legs pruned by the shipped representatives.
  uint64_t pruned_legs = 0;
  /// Rep-sync rounds that shipped a changed entry set.
  uint64_t rep_sync_updates = 0;
  /// Probes sent to unreachable edges.
  uint64_t probes_sent = 0;
  /// Representative entries currently held, summed over edges (gauge).
  uint64_t rep_entries = 0;
  /// Standing queries registered by clients (gauge / lifetime).
  uint64_t subscriptions_active = 0;
  uint64_t subscriptions_total = 0;
  /// Push frames forwarded to clients (edge events, shard-merged).
  uint64_t pushes_forwarded = 0;
  /// Gap markers forwarded (edge-originated and coordinator-local alike).
  uint64_t push_gaps_forwarded = 0;
  /// Rep-sync passes triggered by an edge push rather than the interval.
  uint64_t rep_push_wakeups = 0;
};

/// The coordinator of a sharded deployment (see DESIGN.md, "Sharded
/// deployment"): speaks the same wire protocol as `Server`, but answers
/// queries by scattering them over the edge shards and merging the partial
/// results, never holding video state of its own. What it does hold — fed by
/// the `kRepSync` RPC — is each edge's list of representatives, which lets
/// it prune direct-query fan-out: a shard none of whose representatives
/// pass the hit test, at the boundary scale and index mode last fanned out
/// by `kAdminTune`, is not consulted.
///
/// Robustness contract: a query never fails because a shard is down or slow.
/// Each leg travels with a deadline carved from the client's budget; a leg
/// that fails (or a shard already evicted by the health ladder) contributes
/// nothing, flips `degraded`, lists the shard's known cameras in
/// `excluded_cameras`, and lowers `completed_fraction` — the same partial-
/// answer shape a single node produces for a stalled camera. Merging is by
/// shard index, never by completion order, so answers are bit-identical
/// across thread interleavings.
///
/// Shard health is the `EdgeRegistry` ladder, driven by every RPC outcome
/// (query legs and sync rounds alike) and surfaced through `MonitorStats`.
/// A background thread rep-syncs reachable edges on `sync_interval_ms` and
/// probes unreachable ones with seeded backoff; `PollEdgesNow()` runs one
/// such pass synchronously (ignoring backoff), which is how tests and drills
/// make transitions deterministic.
///
/// Mutating and replication RPCs are refused (`kFailedPrecondition`):
/// ingest goes to the edges, the coordinator is a read-only query plane.
/// Two exceptions: `kAdminTune` fans out to every eligible shard (tuning is
/// fleet-wide operator state), and `kSubscribe` registers a standing query
/// in the coordinator's own `SubscriptionEngine` and subscribes one leg of
/// it on every eligible edge. Edge pushes are remapped into the global id
/// space and forwarded into that engine, so the client gets the contract
/// an edge gives its own subscribers: bounded queue, drop-oldest, gap
/// markers, dense sequences. Per-edge order is kept; legs of different
/// edges interleave as their pushes arrive.
///
/// Edge connections: the checkout pool that queries, rep-sync and tuning
/// share, plus one push connection per edge. The push connection carries
/// the rep-push stats subscription and every client subscription's leg on
/// that edge, however many standing queries the coordinator serves. A leg
/// is unsubscribed explicitly when its client subscription ends; legs on a
/// push connection that dies die with it.
///
/// The client-facing front end is an `RpcEndpoint`, so connection
/// supervision (deadlines, slow-client eviction, the connection registry
/// and its Monitor counters) and push delivery work exactly as on an edge
/// `Server`; idle eviction stays off.
class Coordinator {
 public:
  explicit Coordinator(const CoordinatorOptions& options);
  ~Coordinator();

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// Binds, starts the accept loop and (unless disabled) the sync/probe
  /// thread, and runs one initial synchronous edge poll so the first query
  /// does not race an empty registry.
  Status Start();

  /// Graceful stop; idempotent.
  void Shutdown();

  /// The bound port (valid after a successful `Start`).
  uint16_t port() const { return endpoint_.port(); }

  /// One synchronous sync/probe pass over every edge, ignoring probe
  /// backoff: reachable edges are rep-synced (and their camera inventory
  /// refreshed), unreachable ones probed and re-admitted if they answer.
  /// Returns the number of edges eligible for fan-out afterwards.
  size_t PollEdgesNow();

  /// The registry (tests drive and inspect the ladder through it).
  EdgeRegistry& registry() { return registry_; }

  /// The Monitor reply's per-shard health table, as of now.
  std::vector<ShardHealthInfo> shard_health() const;

  CoordinatorStats stats() const;

 private:
  /// The outcome of one fan-out leg, slotted by shard index before merging.
  template <typename Result>
  struct Leg {
    /// False when the shard was not consulted (evicted or pruned).
    bool consulted = false;
    /// Meaningful only when consulted; a failed leg carries the transport
    /// (or RPC) error.
    Status status;
    Result result;
  };

  /// One edge's part of a client subscription: an edge-side subscription
  /// on that edge's push connection.
  struct EdgeLeg {
    size_t edge = 0;
    uint64_t id = 0;  // the edge's subscription id
    /// Expired once the connection was replaced; the leg died with it.
    std::weak_ptr<Client> connection;
  };

  static int64_t NowMs();

  /// Registers the RPC handlers on `endpoint_`.
  void RegisterHandlers();
  std::string ExecuteRequest(MsgType type, io::BinaryReader* reader,
                             Status* failure);

  /// kSubscribe: registers the standing query in `engine_`, then a leg on
  /// every eligible edge whose pushes are remapped into the global id
  /// space and forwarded into `engine_`. kUnsubscribe and connection
  /// teardown cancel the legs (`UnsubscribeLegs`).
  std::string HandleSubscribe(const RpcEndpoint::Call& call,
                              io::BinaryReader* reader, Status* failure);
  std::string HandleUnsubscribe(uint64_t conn_id, io::BinaryReader* reader,
                                Status* failure);
  /// kAdminTune: fans the knobs out to every eligible shard and records the
  /// echoed boundary scale and index mode for direct-query pruning.
  std::string HandleAdminTune(io::BinaryReader* reader, Status* failure);
  /// Unsubscribes the edge legs of the client subscriptions `ids`, each on
  /// the push connection it rides, holding no coordinator lock across the
  /// edge RPCs.
  void UnsubscribeLegs(const std::vector<uint64_t>& ids);
  /// The push connection to `edge`, dialed with its rep-push stats
  /// subscription when there is none. Null when dialing or subscribing
  /// fails.
  std::shared_ptr<Client> PushConnection(size_t edge);
  /// Forgets `client` as `edge`'s push connection if it still is (its
  /// transport failed), so the next `PushConnection` re-dials.
  void DropPushConnection(size_t edge, const std::shared_ptr<Client>& client);

  std::string HandleDirectQuery(io::BinaryReader* reader, Status* failure);
  std::string HandleClusteringQuery(MsgType type, io::BinaryReader* reader,
                                    Status* failure);
  std::string HandleGetMetaData(io::BinaryReader* reader, Status* failure);
  std::string HandleSvsFeatureMap(io::BinaryReader* reader, Status* failure);
  std::string HandleMonitorStats();
  std::string HandleCameraHealth();
  std::string HandleQueryLoadStats();

  /// Carves the per-shard deadline out of a client deadline: each leg
  /// travels with `kMergeReserveMs` less (floored at 1 ms), reserved for
  /// the merge, so partial per-shard answers are back before the client's
  /// own budget expires. Identity when no deadline travels.
  core::QueryConstraints ShardConstraints(
      const core::QueryConstraints& constraints) const;

  /// Sends the `type` request `payload` (encoded once) to every shard
  /// whose slot in `consult` is true and decodes each reply as a `Result`,
  /// recording every outcome into the registry. No thread per leg: this
  /// thread starts every leg that has an idle pooled connection, then
  /// awaits them in shard order, each attempt's deadline counted from its
  /// own send. Only a leg that must dial a connection or retry (stale
  /// connection, shed) finishes on a short-lived thread of its own, joined
  /// before returning, so one leg's dial or backoff never delays
  /// another's. Results come back slotted by shard index — merge order
  /// never depends on completion order.
  template <typename Result>
  std::vector<Leg<Result>> FanOut(const std::vector<bool>& consult,
                                  MsgType type, const std::string& payload);
  /// Decodes one leg's reply into `leg` and settles its edge call (see
  /// `SettleEdgeCall`), counting a transport failure.
  template <typename Result>
  void SettleLeg(size_t edge, std::unique_ptr<Client> client,
                 StatusOr<std::string> reply, Leg<Result>* leg);

  /// Pops an idle pooled connection to `edge` (null when there is none).
  std::unique_ptr<Client> TakeIdleClient(size_t edge);
  /// Dials a new connection to `edge`. A push connection gets no reconnect
  /// budget: a silently reconnected one would have silently lost its
  /// subscriptions.
  StatusOr<std::unique_ptr<Client>> DialClient(size_t edge,
                                               size_t max_reconnects = 1);
  /// Pops a pooled connection to `edge` or dials a new one.
  StatusOr<std::unique_ptr<Client>> CheckoutClient(size_t edge);
  void CheckinClient(size_t edge, std::unique_ptr<Client> client);
  /// Records one edge RPC's outcome on the health ladder and returns
  /// `client` to the pool, unless the transport failed (the broken
  /// connection closes with `client`). Returns whether it did.
  bool SettleEdgeCall(size_t edge, const Status& status,
                      std::unique_ptr<Client> client);

  /// One sync/probe pass (the body of `PollEdgesNow` and the background
  /// thread). With `respect_backoff`, unreachable edges whose probe is not
  /// yet due are skipped.
  size_t SyncPass(bool respect_backoff);
  void SyncLoop();

  /// The shards a direct query must consult: eligible edges, minus those
  /// whose synced representatives all fail the hit test (when pruning is
  /// on and the edges answer from cluster representatives). Never-synced
  /// eligible edges are always consulted.
  std::vector<bool> DirectQueryConsultSet(const FeatureVector& feature);
  /// The shards a clustering query (or stats fan-out) consults: every
  /// eligible edge.
  std::vector<bool> EligibleSet() const;

  /// Folds one unconsulted (evicted) or failed shard into a partial answer:
  /// flips `degraded` and excludes the shard's known cameras (filtered by
  /// the query's camera constraint).
  void ExcludeShard(size_t edge, const core::QueryConstraints& constraints,
                    bool* degraded,
                    std::vector<core::CameraId>* excluded) const;

  const CoordinatorOptions options_;
  EdgeRegistry registry_;

  // --- Pruning state (fed by rep-sync and kAdminTune). ---
  /// Guards the three fields below. Shared by query pruning, exclusive for
  /// sync installs and tuning.
  mutable std::shared_mutex prune_mu_;
  /// Entry sets as shipped per edge, in shard order.
  std::vector<std::vector<core::InterCameraIndex::RepEntry>> edge_entries_;
  /// Boundary scale of the hit tests: the option until a fanned-out
  /// `kAdminTune` echoes another.
  double prune_scale_;
  /// False once a fanned-out `kAdminTune` put the edges in an index mode
  /// whose candidates do not all come from a shipped representative
  /// (`kFlatSvs`, `kFlat`); pruning then consults every eligible shard.
  bool prune_by_reps_ = true;

  // --- Edge connection pool. ---
  std::mutex pool_mu_;
  std::vector<std::vector<std::unique_ptr<Client>>> idle_clients_;

  // --- Standing queries. ---
  /// The client subscriptions, fed by the legs' pushes and delivered by
  /// `endpoint_`.
  SubscriptionEngine engine_;
  /// Guards the two fields below. A leaf lock, never held across an edge
  /// RPC.
  std::mutex push_mu_;
  /// One push connection per edge (null until dialed or after its
  /// transport failed; the next sync pass re-dials).
  std::vector<std::shared_ptr<Client>> push_clients_;
  /// Client subscription id -> its edge legs.
  std::unordered_map<uint64_t, std::vector<EdgeLeg>> legs_;
  std::atomic<uint64_t> subscriptions_total_{0};

  // --- Client-facing front end. ---
  RpcEndpoint endpoint_;
  std::atomic<bool> stopping_{false};
  bool started_ = false;

  std::thread sync_thread_;
  std::mutex sync_mu_;
  std::condition_variable sync_cv_;
  /// Serializes sync passes (the background thread vs `PollEdgesNow`).
  std::mutex pass_mu_;
  /// Set by a rep-push (an edge's index moved); wakes the sync thread.
  std::atomic<bool> rep_dirty_{false};

  std::atomic<uint64_t> fanout_legs_{0};
  std::atomic<uint64_t> fanout_failures_{0};
  std::atomic<uint64_t> degraded_answers_{0};
  std::atomic<uint64_t> pruned_legs_{0};
  std::atomic<uint64_t> rep_sync_updates_{0};
  std::atomic<uint64_t> probes_sent_{0};
  std::atomic<uint64_t> rep_push_wakeups_{0};
};

}  // namespace vz::net

#endif  // VZ_NET_COORDINATOR_H_
