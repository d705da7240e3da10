#ifndef VZ_NET_CLIENT_H_
#define VZ_NET_CLIENT_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/socket.h"
#include "common/status.h"
#include "common/statusor.h"
#include "net/wire.h"

namespace vz::net {

/// Connection and retry behaviour of `Client`.
struct ClientOptions {
  int64_t connect_timeout_ms = 5'000;
  /// Per-frame I/O deadline: every request write and response read must
  /// complete within this budget, so a stalled or blackholed server surfaces
  /// as `kUnavailable` (and a reconnect-retry) instead of a hang. <= 0
  /// blocks indefinitely.
  int64_t io_timeout_ms = 10'000;
  /// Attempts per request when the server sheds with `kResourceExhausted`
  /// (connection- or admission-level). 0 disables retrying.
  size_t max_shed_retries = 4;
  /// Backoff between shed retries: the server's retry-after hint (or this
  /// floor when absent), doubled per attempt, capped below.
  int64_t backoff_floor_ms = 10;
  int64_t backoff_cap_ms = 2'000;
  /// Fraction of each backoff delay randomised away (subtractive jitter):
  /// the actual sleep is uniform in [delay * (1 - jitter), delay], which
  /// de-synchronises a herd of clients all shed at the same instant while
  /// never exceeding the cap. 0 disables jitter.
  double backoff_jitter = 0.25;
  /// Seed of the jitter stream; 0 derives one from the session id so two
  /// clients never share a jitter sequence. Pin it in tests.
  uint64_t backoff_seed = 0;
  /// Reconnect attempts PER CALL when the transport drops mid-conversation
  /// (server restart, graceful-shutdown close, I/O deadline expiry). The
  /// budget resets at the start of every RPC; 0 disables reconnecting.
  /// Reconnect-retries of mutating RPCs are exactly-once: the retry carries
  /// the same idempotency token, so a server that already applied the first
  /// attempt replays its cached response instead of re-applying.
  size_t max_reconnects = 1;
  /// Session id stamped into idempotency tokens; 0 auto-generates a
  /// process-unique id. Pin it in tests (or to resume a session's dedup
  /// window across client restarts).
  uint64_t session_id = 0;
};

/// Per-client counters, mostly for tests and diagnostics.
struct ClientCallStats {
  uint64_t requests_sent = 0;
  /// Requests that were shed at least once and retried with backoff.
  uint64_t shed_retries = 0;
  /// Transport drops observed mid-call (connection reset, torn frame, I/O
  /// deadline expiry) — each one either consumes reconnect budget or fails
  /// the call.
  uint64_t transport_failures = 0;
  /// Successful re-handshakes after a transport drop.
  uint64_t reconnects = 0;
  /// Total milliseconds slept honoring retry-after backoff (post-jitter).
  int64_t backoff_ms_total = 0;
  /// Keepalive pings answered by the server.
  uint64_t pings_sent = 0;
};

/// Backoff delay for retry `attempt` (0-based): the server's retry-after
/// hint (or the options floor) doubled per attempt and capped, then jittered
/// subtractively by up to `options.backoff_jitter` of itself using `rng`
/// (`nullptr` disables jitter). Exposed for the backoff unit tests.
int64_t BackoffDelayMs(const ClientOptions& options, int64_t hint_ms,
                       size_t attempt, Rng* rng);

/// Invoked by the client's reader thread for every push frame delivered on
/// a subscription (see `Client::Subscribe`). Runs on the reader thread, so
/// it must not block for long — a stalled callback stalls response demux
/// for the whole connection — and must not call `Close` or any RPC method
/// that could tear down the connection (it would join its own thread).
/// Read-only RPCs issued from a callback are safe.
using PushCallback = std::function<void(const PushEvent&)>;

/// RPC client for the Video-zilla serving layer. One TCP connection; a
/// background reader demultiplexes responses by correlation id, so multiple
/// threads may issue RPCs concurrently over the same connection, and
/// server-pushed `kPushEvent` frames are dispatched to the callbacks
/// registered by `Subscribe`. `Connect` performs the version handshake (the
/// server accepts exactly `kProtocolVersion`); every RPC mirrors the
/// corresponding `VideoZilla` method, so call sites can swap between
/// in-process and remote execution.
///
/// Every RPC is one call path: `Start` sends the request, `Await` collects
/// that attempt's reply, and `Finish` retries within the budget below. The
/// blocking methods are `Start` + `Finish`; a caller with several requests
/// in flight (the coordinator's fan-out) starts them all and awaits each,
/// so one thread drives them without a thread per request.
///
/// Overload handling: a `kResourceExhausted` response (a shed query or a
/// shed connection) is retried up to `max_shed_retries` times with capped,
/// jittered exponential backoff seeded by the server's retry-after hint.
///
/// Transport failures (`kUnavailable`, `kDataLoss`, a server that closed
/// the connection) trigger reconnect-retries within the per-call
/// `max_reconnects` budget. Mutating RPCs stamp an idempotency token
/// (session id + per-call sequence) so those retries are exactly-once: the
/// server deduplicates and replays instead of re-applying. All other errors
/// are returned as-is.
///
/// Subscriptions are connection-scoped and do NOT survive reconnects: a
/// transport drop silently ends every standing query (the server reclaims
/// them on disconnect). A subscriber that needs continuity re-subscribes
/// after a drop and treats the discontinuity like a gap marker.
class Client {
  // Defined in client.cc; declared ahead of `Pending`, which holds them.
  /// Per-connection state, shared with the reader thread. Lives behind a
  /// `shared_ptr` so the reader can outlive a `Close` racing a call, and so
  /// the Client object itself stays movable while the thread runs.
  struct ConnCore;
  /// One attempt's completion slot, filled by the reader thread.
  struct ReplySlot;

 public:
  /// Connects, negotiates the protocol version, and returns a ready client.
  static StatusOr<Client> Connect(const std::string& host, uint16_t port,
                                  const ClientOptions& options = {});

  ~Client();
  Client(Client&&) noexcept;
  Client& operator=(Client&&) noexcept;

  // --- Asynchronous calls. ---

  /// One call between `Start` and its final reply: the request as sent (a
  /// mutating request carries its idempotency token, which every retry
  /// re-sends unchanged), its current attempt's connection, correlation
  /// and deadline, and what is left of its retry budget. Drive it only
  /// through the client that started it, while that client lives.
  /// Destroying it with an attempt in flight abandons the attempt: a late
  /// reply is dropped.
  class Pending {
   public:
    Pending(Pending&&) noexcept = default;
    Pending& operator=(Pending&&) = delete;
    ~Pending();

   private:
    friend class Client;
    enum class Outcome {
      kInFlight,      // sent; the reply is not yet awaited
      kNotConnected,  // no connection could be made for the attempt
      kTransport,     // the connection failed under the attempt
      kRefused,       // the server answered with an error status
      kAnswered,      // the server answered OK (reply handed out)
    };

    Pending(MsgType type, std::string payload)
        : type_(type), payload_(std::move(payload)) {}

    MsgType type_;
    std::string payload_;
    std::shared_ptr<ConnCore> core_;  // the current attempt's connection
    std::shared_ptr<ReplySlot> slot_;
    uint64_t correlation_ = 0;
    /// `io_timeout_ms` after the attempt's send (unused without a budget).
    std::chrono::steady_clock::time_point deadline_;
    Outcome outcome_ = Outcome::kNotConnected;
    /// The attempt's failure (transport or server status) once resolved.
    Status failure_ = Status::OK();
    int64_t retry_after_ms_ = 0;  // the server's hint on a shed reply
    size_t reconnects_used_ = 0;
    size_t shed_attempts_ = 0;
  };

  /// Sends a `type` request carrying `payload` (the body the typed method
  /// would encode) and returns without waiting for the reply. Stamps the
  /// idempotency token for mutating types exactly as the blocking methods
  /// do. Reconnects first if the connection was dropped — the one step
  /// that can block. Never retries: a failure to connect or send is
  /// reported by the next `Await`.
  Pending Start(MsgType type, const std::string& payload);

  /// Waits for the reply to `pending`'s current attempt, until
  /// `io_timeout_ms` after that attempt was sent (not after this call
  /// began), so requests awaited one after another each keep their own
  /// budget. Returns the reply body after its wire status, the server's
  /// error status, or the transport failure (the connection is then
  /// dropped; the next attempt reconnects). Never retries.
  StatusOr<std::string> Await(Pending& pending);

  /// True when `pending`'s attempt failed, at `Start` or in `Await`, in a
  /// way `Finish` retries and the call's budget still covers: a shed (up to
  /// `max_shed_retries`), or a lost connection or server-reported
  /// `kUnavailable` (up to `max_reconnects`). Never blocks.
  bool Retryable(const Pending& pending) const;

  /// Completes `pending` as every blocking method does: awaits the attempt
  /// in flight and, while the outcome is `Retryable`, backs off or
  /// reconnects, re-sends the same request and awaits again. Returns the
  /// final outcome. Blocks for the backoff sleeps and any reconnect.
  StatusOr<std::string> Finish(Pending& pending);

  // --- Ingestion (mirrors VideoZilla). ---
  Status CameraStart(const core::CameraId& camera);
  Status CameraTerminate(const core::CameraId& camera);
  Status IngestFrame(const core::FrameObservation& frame);
  /// N frames in one RPC under one idempotency token: one round trip,
  /// one WAL record. Per-frame rejections (unknown camera, stale frame id)
  /// are counted in the reply, not errors — the batch as a whole succeeds.
  StatusOr<IngestBatchReply> IngestBatch(
      const std::vector<core::FrameObservation>& frames);
  Status Flush();

  // --- Queries. Deadlines in `constraints` travel on the wire and bound
  // --- the server-side query via its cancellation checkpoints.
  StatusOr<core::DirectQueryResult> DirectQuery(
      const FeatureVector& feature,
      const core::QueryConstraints& constraints = {});
  StatusOr<core::ClusteringQueryResult> ClusteringQuery(
      core::SvsId target_id, const core::QueryConstraints& constraints = {});
  StatusOr<core::ClusteringQueryResult> ClusteringQuery(
      const FeatureMap& target,
      const core::QueryConstraints& constraints = {});
  StatusOr<core::SvsMetadata> GetMetaData(core::SvsId id);

  // --- Standing queries. ---

  /// Registers a standing query; the server pushes `PushEvent`s for it as
  /// ingestion finalizes matching segments — no polling. `callback` runs on
  /// the reader thread for every push (see `PushCallback` for its
  /// contract). Returns the subscription id. Does not retry or reconnect (a
  /// lost connection voids the subscription anyway).
  StatusOr<uint64_t> Subscribe(const SubscribeRequest& request,
                               PushCallback callback);
  /// Cancels a standing query registered on this connection. Pushes already
  /// in flight may still arrive briefly after this returns.
  Status Unsubscribe(uint64_t subscription_id);

  // --- Stats / health. ---
  StatusOr<MonitorStatsReply> MonitorStats();
  StatusOr<std::vector<CameraHealthEntry>> CameraHealthReport();
  StatusOr<core::QueryLoadStats> QueryLoadStats();

  /// Live index tuning: applies the knobs of the performance monitor's
  /// adjustment ladder (index mode, boundary scale, OMD alpha, keyframe
  /// selection, forced group/cluster counts) and returns the server's
  /// post-apply settings. Carries an idempotency token (exactly-once) but
  /// is never WAL-logged — operator state does not replay.
  StatusOr<AdminTuneReply> AdminTune(const AdminTuneRequest& request);

  /// Log shipping (standby side): fetches up to `max_records` WAL records
  /// with LSNs strictly above `from_lsn`, acknowledging everything at or
  /// below it as durably applied. `wait_ms` long-polls when the log has
  /// nothing new (must fit inside `io_timeout_ms`). `epoch` is the caller's
  /// promotion epoch (v4): a server at an older epoch answers
  /// `kFailedPrecondition` — it was demoted by a failover the caller
  /// already knows about. 0 = unknown, always passes.
  StatusOr<WalShipReply> WalShip(uint64_t from_lsn, uint32_t max_records,
                                 uint32_t wait_ms, uint64_t epoch = 0);

  /// Representative sync (v4, coordinator side): the edge's inter-camera
  /// representative entries, or a small "unchanged" reply when its index
  /// version still equals `since_version` (0 = never synced: always ships).
  StatusOr<RepSyncReply> RepSync(uint64_t since_version);

  /// One stored SVS's feature map by id (v4) — how a coordinator resolves
  /// the target of a by-id clustering query owned by another shard.
  StatusOr<FeatureMap> SvsFeatureMap(core::SvsId id);

  /// The newest valid checkpoint pair as raw file bytes (v4) — the standby
  /// re-seed path once compaction outran its replication cursor.
  StatusOr<CheckpointFetchReply> CheckpointFetch();

  /// Keepalive: resets the server's idle clock. Cheap (empty payload, no
  /// state touched); call between requests to fend off idle eviction.
  Status Ping();

  // --- Snapshot triggers (paths are server-local). ---
  Status SaveSnapshot(const std::string& path);
  /// Returns the number of SVSs restored on the server.
  StatusOr<uint64_t> LoadSnapshot(const std::string& path);

  /// Protocol version the server reported in the handshake.
  uint32_t server_protocol_version() const {
    return server_protocol_version_;
  }

  /// Session id stamped into idempotency tokens (auto-generated unless
  /// pinned via options).
  uint64_t session_id() const { return session_id_; }

  /// Snapshot of the per-client counters (copied under the stats lock, so
  /// safe against concurrent calls).
  ClientCallStats call_stats() const;

  /// Closes the connection (also done by the destructor): shuts the socket
  /// down, joins the reader thread, and voids every subscription. Must not
  /// be called from a push callback.
  void Close();

 private:
  /// Client-lifetime mutable state (token sequence, stats, jitter stream)
  /// behind a pointer so concurrent calls synchronize on stable addresses
  /// and the Client stays movable.
  struct Shared;

  Client(std::string host, uint16_t port, const ClientOptions& options);

  /// Opens the TCP connection, runs the Hello exchange (at correlation 0)
  /// and starts the connection's reader thread. Installs the connection.
  Status Handshake();
  /// The current connection (null when disconnected).
  std::shared_ptr<ConnCore> conn() const;
  /// Retires `core` if it is still the current connection: socket shutdown,
  /// reader joined, pending calls failed.
  void DropConn(const std::shared_ptr<ConnCore>& core);
  /// The reader thread: demultiplexes response frames to their pending
  /// calls by correlation id and dispatches push frames to subscription
  /// callbacks.
  static void ReaderLoop(std::shared_ptr<ConnCore> core);
  /// The current connection, handshaking first if disconnected (one
  /// attempt, no retry loop).
  StatusOr<std::shared_ptr<ConnCore>> EnsureConn();
  /// The blocking RPC behind every typed method: `Start` + `Finish`.
  StatusOr<std::string> Call(MsgType type, const std::string& payload);
  /// `Call` with the request encoded from `parts`, in order, and the reply
  /// body decoded as `Reply`. Passing a request struct's members as parts
  /// (in its Visit's order) sends the same bytes without copying them into
  /// the struct.
  template <typename Reply, typename... Parts>
  StatusOr<Reply> TypedCall(MsgType type, const Parts&... parts);
  /// Sends `pending`'s next attempt over the current connection
  /// (reconnecting if there is none); a failure resolves the attempt.
  void Send(Pending& pending);
  /// Registers `pending`'s attempt on `pending.core_` and writes its frame.
  /// When `push_callback` is non-null it is registered under the attempt's
  /// correlation id BEFORE the request is sent (so no push can outrun the
  /// registration); the caller unregisters it if the call fails. Returns
  /// the write failure without resolving the attempt.
  Status SendOn(Pending& pending, const PushCallback* push_callback);
  /// Waits out `pending`'s attempt on its connection and resolves it:
  /// the reply body, or the server's status or the transport failure.
  /// Leaves the connection to the caller.
  StatusOr<std::string> AwaitReply(Pending& pending);
  /// Resolves `pending`'s attempt as a transport failure: counts it and
  /// drops the connection.
  void FailTransport(Pending& pending, Status failure);
  /// Spends the budget of the retry `Retryable` allowed: backoff sleep,
  /// counters, and dropping a connection the server reported unavailable.
  void SpendRetry(Pending& pending);
  void SleepBackoff(int64_t hint_ms, size_t attempt);

  std::string host_;
  uint16_t port_ = 0;
  ClientOptions options_;
  uint32_t server_protocol_version_ = 0;
  uint64_t session_id_ = 0;
  std::unique_ptr<Shared> shared_;
  std::shared_ptr<ConnCore> core_;  // guarded by shared_->mu
};

}  // namespace vz::net

#endif  // VZ_NET_CLIENT_H_
