#ifndef VZ_NET_SERVER_H_
#define VZ_NET_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "core/videozilla.h"
#include "io/wal.h"
#include "net/rpc_endpoint.h"
#include "net/subscription.h"
#include "net/wire.h"

namespace vz::net {

class Client;

/// Configuration of the TCP serving front end: the endpoint's connection
/// handling (`RpcEndpoint::Config`: address, connection cap, supervision)
/// plus the server's own settings below.
struct ServerOptions : RpcEndpoint::Config {
  // --- Standing-query push delivery (protocol v5; see DESIGN.md, "Standing
  // --- queries and multiplexing"). ---

  /// Bounded per-subscription event queue; when full the oldest event is
  /// dropped and counted into the next `PushKind::kGap` marker. A slow
  /// subscriber therefore loses events, never stalls ingest.
  size_t subscription_queue_capacity = 256;
  /// Delivery-thread wakeup cadence when idle (it is also woken eagerly by
  /// enqueues).
  int64_t push_poll_ms = 50;

  // --- Exactly-once dedup (idempotency tokens). ---

  /// Cached responses retained per client session. A mutating RPC re-sent
  /// after an ambiguous transport failure is answered from this window
  /// instead of being re-applied; a duplicate older than the window is
  /// refused with `kFailedPrecondition` (exactly-once can no longer be
  /// proven). One in-flight request per client means even a window of 1 is
  /// safe; the default leaves room for future pipelining.
  size_t dedup_window = 64;
  /// Bound on distinct client sessions tracked; least-recently-used
  /// sessions are evicted beyond it.
  size_t max_sessions = 1024;

  // --- Durability (write-ahead log; see DESIGN.md, "Durability and
  // --- replication"). ---

  /// Directory of the write-ahead log. Non-empty enables durability: every
  /// successful mutating RPC is acked only after its WAL record (with its
  /// idempotency token) is fsynced, and `Start` replays the newest valid
  /// checkpoint plus the log tail. Empty = in-memory only (the pre-WAL
  /// behaviour).
  std::string wal_dir;
  /// Group-commit gather window (see `io::WalOptions::fsync_interval_ms`):
  /// 0, the log's default, fsyncs as soon as an append is pending.
  int64_t wal_fsync_interval_ms = io::WalOptions{}.fsync_interval_ms;
  /// WAL segment rotation threshold.
  uint64_t wal_segment_bytes = 4ull << 20;
  /// Live log bytes that trigger a checkpoint (snapshot + manifest, then
  /// log compaction) at the next Flush. 0 disables checkpointing — the log
  /// grows without bound and recovery replays from the beginning.
  uint64_t wal_compact_bytes = 8ull << 20;
  /// When true, a mutating ack additionally waits until a standby has
  /// acknowledged (via its WalShip `from_lsn`) everything up to the
  /// record's LSN — semi-synchronous replication: an acked write survives
  /// the loss of the whole primary, not just a crash.
  bool sync_replication = false;
  /// Storage environment for the WAL, checkpoints and snapshots; null means
  /// the real POSIX disk. Tests substitute `sim::FaultEnv` to inject ENOSPC,
  /// EIO, fsync failures and crash-points. Not owned; must outlive the
  /// server.
  io::Env* env = nullptr;
  /// When true (the default), the first persistent disk fault on the
  /// durability path — a failed WAL write or fsync, a full disk — flips the
  /// server into read-only degraded mode: mutating RPCs shed with
  /// `kResourceExhausted` (retry-after attached), queries, stats and
  /// subscriptions keep serving, and a standby promotion takes over writes.
  /// False keeps refusing each mutating RPC individually with the
  /// underlying error instead (every ack still waits out durability; no
  /// mode flip).
  bool read_only_on_disk_error = true;

  // --- Warm standby. ---

  /// Non-empty makes this server a warm standby: it does not listen for
  /// clients; instead it tails `standby_of_host:standby_of_port`'s WAL via
  /// the WalShip RPC, applying records as they arrive. `Promote` turns it
  /// into a primary listening on `port`. A standby requires its own
  /// `wal_dir` (it mirrors the primary's log, preserving LSN numbering).
  std::string standby_of_host;
  uint16_t standby_of_port = 0;
  /// Long-poll budget per WalShip request (also the reconnect backoff when
  /// the primary is unreachable).
  int64_t replication_poll_ms = 50;
};

/// Counters of the serving layer: the Monitor reply's `ServingStats` (its
/// `connections` and `shards` stay empty here; see `connection_stats()`)
/// plus the fields below, which only in-process callers read.
struct ServerStats : ServingStats {
  size_t connections_active = 0;  // gauge
  uint64_t requests_served = 0;
  uint64_t request_errors = 0;
  /// WalShip errors observed by the standby's replication loop (reconnects).
  uint64_t replication_errors = 0;
  /// The promotion epoch this server serves under (1 = never failed over).
  uint64_t wal_epoch = 0;
};

/// TCP front end over one `VideoZilla` instance: the RPC handlers of an
/// `RpcEndpoint`, which serves each connection on a thread of its own and
/// leaves the system's query `ThreadPool` to the queries.
///
/// Request handling preserves the library's concurrency contract: queries
/// and stats reads from different connections run concurrently (shared
/// lock), while ingestion, flush, camera lifecycle and snapshot restore are
/// exclusive (unique lock) — the documented single-caller ingestion
/// contract, enforced at the service boundary instead of trusted per
/// client.
///
/// Exactly-once: every mutating request carries an idempotency token
/// (session id + sequence). The server keeps a bounded per-session window of
/// cached responses; a duplicate sequence is answered byte-identically from
/// the window without re-executing, and a sequence already executing (the
/// client timed out and retried while the original is still running) waits
/// for the original instead of racing it. A session evicted from the LRU
/// registry leaves its highest sequence behind, so its late duplicates are
/// refused rather than re-executed.
///
/// Supervision: per-connection read/write deadlines plus idle eviction with
/// a grace period bound every connection's lifetime; `kPing` is the
/// keepalive. A registry tracks per-connection bytes/RPCs/age, surfaced
/// through `stats()`, the Monitor RPC and `vz_server`.
///
/// Overload and deadlines compose end to end: a client deadline travels in
/// the query constraints and becomes the per-query `CancelToken` budget
/// inside `VideoZilla`; admission-controller sheds surface as wire-level
/// `kResourceExhausted` carrying the configured retry-after hint.
///
/// `Shutdown` is graceful: stop accepting, let every handler finish the
/// request it is serving (responses are written before sockets close), then
/// force-close whatever is still open after a 10 s drain budget.
///
/// Durability (opt-in via `wal_dir`): the commit rule is apply -> log (the
/// verbatim post-token request bytes, inside the state lock) -> ack only
/// after the record is fsynced. Recovery restores the newest valid
/// checkpoint, replays the log tail through the same dispatch that served
/// the originals, and rebuilds the dedup windows from the logged tokens —
/// so a retry that straddles a crash is still replayed, not re-applied. A
/// warm standby tails the log over WalShip and can take over the primary's
/// port via `Promote`. See DESIGN.md, "Durability and replication".
class Server {
 public:
  /// `system` is borrowed and must outlive the server.
  Server(core::VideoZilla* system, const ServerOptions& options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds and starts the accept loop (after WAL recovery when `wal_dir`
  /// is set). A standby (`standby_of_host` set) instead starts the
  /// replication loop and does not listen until `Promote`. Fails if the
  /// port is taken, or if recovery finds an unreplayable log.
  Status Start();

  /// Graceful stop; idempotent. Safe to call concurrently with traffic.
  void Shutdown();

  /// Abrupt stop: no drain, no responses, in-flight requests dropped on the
  /// floor — the in-process stand-in for `kill -9` in failover drills.
  /// Everything fsynced (i.e. everything acked) survives; nothing else is
  /// guaranteed to.
  void Kill();

  /// Turns a standby into a primary: stops tailing the old primary, makes
  /// the mirrored log durable, and starts listening on `options().port`.
  /// Binding fails while the old primary still holds the port — the
  /// split-brain guard.
  Status Promote();

  /// The serving role (primary / standby / promoted standby).
  ServerRole role() const;

  /// The bound port (valid after a successful `Start`).
  uint16_t port() const { return endpoint_.port(); }

  /// Lifetime counters. Takes the state lock shared: a standby's
  /// checkpoint re-seed replaces the WAL under it.
  ServerStats stats() const;

  /// Snapshot of the per-connection registry (age/idle/bytes/RPCs).
  std::vector<ConnectionInfo> connection_stats() const;

 private:
  /// A cached mutating response plus the WAL LSN that made it durable (0
  /// when the server runs without a WAL, or when the entry was rebuilt
  /// during recovery — then the log already holds it). A duplicate replayed
  /// from the window must wait out the same durability its original ack
  /// waited for.
  struct CachedResponse {
    std::string bytes;
    uint64_t lsn = 0;
  };

  /// Exactly-once state of one client session. Sessions are shared across
  /// reconnects (the token's session id, not the connection, is the key),
  /// so entries hold their own lock independent of the registry map.
  struct Session {
    std::mutex mu;
    std::condition_variable cv;
    /// Sequences currently executing. A duplicate of one waits on `cv` for
    /// the cached response instead of double-applying (the client timed out
    /// and retried over a new connection while the original still runs).
    std::set<uint64_t> executing;
    /// Completed sequence -> cached response, trimmed to the window.
    std::map<uint64_t, CachedResponse> done;
    /// Highest sequence trimmed out of `done` (or, for a session re-created
    /// after an LRU eviction, the highest its evicted predecessor saw);
    /// duplicates at or below it can no longer be replayed and are refused.
    uint64_t evicted_up_to = 0;
    uint64_t last_used_tick = 0;
  };

  /// What an LRU-evicted session leaves behind: its highest sequence (the
  /// newest of its `evicted_up_to`, `done` and `executing`).
  struct EvictedSession {
    uint64_t high_sequence = 0;
    uint64_t evicted_tick = 0;
  };

  /// Registers the RPC handlers on `endpoint_`.
  void RegisterHandlers();
  /// Shutdown (`drain`) and Kill.
  void Stop(bool drain);
  /// Starts `endpoint_` (and with it push delivery) on `options().port`.
  Status StartListener();
  /// Runs a tokened mutating request exactly once: replays from the session
  /// window, waits out a concurrent execution of the same sequence, or
  /// executes, logs, caches the response, and waits for durability (and,
  /// under sync replication, the standby's ack) before returning. `reader`
  /// is positioned past the token.
  std::string DispatchMutating(MsgType type, const IdempotencyToken& token,
                               io::BinaryReader* reader, Status* failure);
  /// The RPC switch for token-free requests (queries, stats, ship).
  std::string ExecuteRequest(MsgType type, io::BinaryReader* reader,
                             Status* failure);
  /// `stats()` for a caller already holding `state_mu_` (shared suffices).
  ServerStats StatsLocked() const;
  /// The mutating RPC switch proper. Caller holds `state_mu_` exclusively;
  /// shared by the client path, WAL replay and replication apply — the one
  /// dispatch that regenerates byte-identical state from logged bytes.
  std::string ExecuteMutating(MsgType type, io::BinaryReader* reader,
                              Status* failure);
  /// The session for `id`, creating it (and LRU-evicting beyond
  /// `max_sessions`) as needed. A re-created session starts its
  /// `evicted_up_to` from its evicted predecessor's record.
  std::shared_ptr<Session> GetSession(uint64_t id);
  /// Completes `sequence`: caches the response (window-trimmed) and wakes
  /// duplicate waiters.
  void CacheSessionResponse(Session* session, uint64_t sequence,
                            const std::string& response, uint64_t lsn);

  // --- Durability. ---

  /// Restores the newest fully-valid checkpoint (snapshot + manifest),
  /// rebuilds the per-session dedup windows it recorded, opens the WAL
  /// (salvaging any torn tail), and replays the tail through
  /// `ApplyWalRecord`.
  Status RecoverFromWal();
  /// Installs one already-validated checkpoint: restores the store into
  /// `system_`, reconciles started cameras and their guard state against
  /// the manifest, and rebuilds the dedup windows (replacing any existing
  /// sessions). Shared by crash recovery and the standby re-seed path; the
  /// re-seed caller holds `state_mu_` exclusively.
  Status RestoreCheckpointState(const io::WalCheckpoint& checkpoint,
                                const core::SvsStore& store);
  /// The standby re-seed path, entered when the primary compacted past our
  /// replication cursor (`WalShip` -> `kOutOfRange`): fetches the newest
  /// checkpoint pair over `client`, writes it into our own `wal_dir` first
  /// (crash-safe — recovery validates pairs), resets `system_`, restores
  /// through `RestoreCheckpointState`, and reopens the mirrored log at the
  /// checkpoint's LSN so tailing resumes from there.
  Status ReseedFromPrimary(Client* client);
  /// Raises `wal_epoch_` to `epoch` if newer (never lowers it).
  void AdoptEpoch(uint64_t epoch);
  /// Re-applies one logged op through `ExecuteMutating` and rebuilds its
  /// dedup-window entry. With `from_replication` the record is also
  /// mirrored into this server's own WAL under the primary's LSN.
  Status ApplyWalRecord(const io::WalRecord& record, bool from_replication);
  /// Takes a checkpoint at `lsn` (snapshot, then manifest, then log
  /// compaction — crash-safe in that order) and prunes older checkpoints.
  /// Caller holds `state_mu_` exclusively. Failures are non-fatal: the WAL
  /// still covers everything.
  void CheckpointLocked(uint64_t lsn);
  /// Blocks until a standby has acknowledged `lsn` (sync replication) or
  /// the server is stopping.
  Status WaitShipped(uint64_t lsn);
  /// Classifies and counts a disk fault from the durability path, flipping
  /// read-only degraded mode per `read_only_on_disk_error`. `from_fsync`
  /// marks failed fsyncs (the fsyncgate class) separately from failed
  /// writes. Pass `counted = false` for faults the WAL already counted in
  /// its own stats (the stats() accessor merges both tallies) — the call
  /// then only latches the degraded-mode flags.
  void RecordDiskFault(const Status& status, bool from_fsync,
                       bool counted = true);
  /// The standby's tailing loop: WalShip long-polls against the primary,
  /// applying and mirroring each batch.
  void ReplicationLoop();
  void StopReplication();

  core::VideoZilla* system_;
  const ServerOptions options_;
  RpcEndpoint endpoint_;
  std::atomic<bool> stopping_{false};
  bool started_ = false;

  /// Serializes mutating RPCs against concurrent queries (see class
  /// comment).
  mutable std::shared_mutex state_mu_;

  /// Guards the session registry. Never held while executing an RPC — the
  /// per-session lock takes over.
  mutable std::mutex sessions_mu_;
  std::unordered_map<uint64_t, std::shared_ptr<Session>> sessions_;
  /// Records of LRU-evicted sessions: at most `max_sessions`, the oldest
  /// dropped first. Cleared wherever `sessions_` is replaced; checkpoints
  /// do not carry them.
  std::unordered_map<uint64_t, EvictedSession> evicted_sessions_;
  uint64_t session_tick_ = 0;

  std::atomic<uint64_t> duplicates_replayed_{0};
  std::atomic<uint64_t> sessions_evicted_{0};

  // --- Standing-query push state. ---

  SubscriptionEngine engine_;
  std::atomic<uint64_t> ingest_batches_{0};

  // --- Durability state. ---

  /// `options_.env` or the POSIX default; every durability-path file
  /// operation (WAL, checkpoints, snapshots, re-seeds) goes through it.
  io::Env* env_ = nullptr;
  /// The write-ahead log (null without `wal_dir`). Internally synchronized.
  std::unique_ptr<io::Wal> wal_;
  /// True while `RecoverFromWal` replays the tail — checkpointing is
  /// suppressed (compaction would delete segments mid-replay).
  bool in_recovery_ = false;
  std::atomic<uint64_t> wal_replayed_records_{0};
  std::atomic<uint64_t> wal_checkpoints_{0};

  // --- Disk health (see RecordDiskFault). ---

  std::atomic<uint64_t> disk_io_errors_{0};
  std::atomic<uint64_t> disk_fsync_failures_{0};
  std::atomic<uint64_t> checkpoints_quarantined_{0};
  std::atomic<bool> disk_full_{false};
  /// Degraded mode: mutating RPCs shed `kResourceExhausted`, reads keep
  /// serving. Latched by the first durability-path fault (never cleared at
  /// runtime — a poisoned WAL cannot come back; restart to recover).
  std::atomic<bool> read_only_{false};

  /// Highest LSN a standby has acknowledged as durably applied (via its
  /// WalShip `from_lsn`). Sync-replication acks wait on this frontier.
  std::mutex ship_mu_;
  std::condition_variable ship_cv_;
  uint64_t shipped_acked_ = 0;

  // --- Standby state. ---

  bool standby_ = false;
  std::atomic<bool> promoted_{false};
  std::thread replication_thread_;
  std::atomic<bool> replication_stop_{false};
  /// The primary's durable frontier as of the last WalShip reply (lag
  /// gauge numerator).
  std::atomic<uint64_t> replication_primary_durable_{0};
  std::atomic<uint64_t> replication_errors_{0};
  std::atomic<uint64_t> replication_reseeds_{0};
  /// Promotion epoch (fencing; see DESIGN.md, "Durability and
  /// replication"). Starts
  /// at 1, raised by recovery/replication to the max epoch ever seen, and
  /// bumped by `Promote` (which also appends a durable epoch-marker record).
  /// A WalShip caller announcing a *newer* epoch proves this server was
  /// demoted by a failover it never saw: the request is refused instead of
  /// acked.
  std::atomic<uint64_t> wal_epoch_{1};
};

}  // namespace vz::net

#endif  // VZ_NET_SERVER_H_
