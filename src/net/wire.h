#ifndef VZ_NET_WIRE_H_
#define VZ_NET_WIRE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/statusor.h"
#include "core/frame.h"
#include "core/inter_camera_index.h"
#include "core/query.h"
#include "core/representative.h"
#include "core/svs.h"
#include "core/videozilla.h"
#include "io/archive.h"
#include "io/binary_format.h"
#include "io/svs_snapshot.h"
#include "io/wal.h"
#include "vector/feature_map.h"
#include "vector/feature_vector.h"

namespace vz::net {

/// Wire protocol of the Video-zilla serving layer (see DESIGN.md, "Network
/// service"). Every message travels as one length-prefixed, CRC32-framed
/// frame:
///
///   u32 magic ("VZR5") | u32 type | u64 correlation |
///   u64+bytes payload (length-prefixed) | u32 crc
///
/// The correlation id ties a response to its request, so one connection can
/// carry concurrent in-flight RPCs; `kPushEvent` frames arrive
/// asynchronously, tagged with the correlation id of the `kSubscribe` call
/// that registered the standing query. Correlation 0 is reserved for
/// connection-level frames: the Hello and its reply, a connection-level
/// shed, and the reply to a frame the server could not read.
///
/// The CRC covers type, correlation, payload length and payload bytes, so a
/// bit flip anywhere in a frame (including in the framing fields themselves)
/// is detected. The frame layer (this framing, the Hello, `WireStatus`) is
/// written by hand. Every payload struct below is described once by its
/// `Visit` (see io/archive.h) and crosses the wire through the generic
/// `io::Encode` / `io::Decode<T>`; the FeatureMap, Representative, WalRecord,
/// IngestStats and tuning layouts are the very Visits the snapshot, the WAL
/// and the checkpoint manifest use. Decoding is overflow-safe and checks
/// every element count against the element type's derived minimum size, so
/// a corrupted length can never turn into a wild read or a giant
/// allocation; a payload with bytes left over is malformed.
///
/// Decode failure taxonomy (relied on by the frame fuzzer):
///   kDataLoss        — the bytes are torn or corrupted (truncated frame,
///                      CRC mismatch, connection closed mid-frame)
///   kInvalidArgument — the bytes are whole but not a frame we understand
///                      (bad magic, unknown type, oversized length,
///                      malformed payload)
/// Neither case may crash, hang, or desync subsequent frames sharing the
/// buffer: a successful decode always consumes exactly one frame.

inline constexpr uint32_t kWireMagic = 0x565A5235;  // "VZR5"

/// Protocol version, checked by the Hello exchange: the client announces
/// its version, the server accepts only an exact match and always reports
/// its own version in the HelloAck so mismatched clients can print a useful
/// error.
///
/// v2: mutating request payloads start with an idempotency token
/// (session id + sequence number), the Monitor reply carries the serving
/// layer's connection registry, and `kPing` exists as a keepalive.
///
/// v3: `kWalShip` exists (warm standbys tail the primary's write-ahead log),
/// and the Monitor reply's serving stats carry the durability counters
/// (WAL appends/fsyncs/replays/salvage, checkpoint count, LSN frontiers,
/// replication lag, server role).
///
/// v4: sharded deployment. `kRepSync` ships an edge's inter-camera
/// representative entries to a coordinator, `kSvsFeatureMap` fetches one
/// stored SVS's feature map (cross-shard clustering queries), and
/// `kCheckpointFetch` ships the newest checkpoint pair (standby re-seed
/// after compaction outran its cursor). `kWalShip` carries a promotion
/// epoch in both directions — the fencing token that refuses a demoted
/// primary — and the Monitor reply's serving stats carry a coordinator's
/// per-shard health table.
///
/// v5: multiplexed framing (the correlation-id layout above, then used only
/// after a Hello in an older lock-step layout) and server push. New RPCs:
/// `kSubscribe` / `kUnsubscribe` (standing queries with server-push match
/// and stats delivery), `kIngestBatch` (N frames per RPC), and `kAdminTune`
/// (live index-mode administration).
///
/// v6: one frame layout. The Hello and every connection-level frame use the
/// correlation-id layout too, and the lock-step layout is gone; every frame
/// other than the Hello is byte-identical to v5.
inline constexpr uint32_t kProtocolVersion = 6;

/// Upper bound on a frame payload; a length field beyond this is rejected
/// before any allocation (it is either corruption the CRC would also catch
/// or a hostile peer).
inline constexpr uint64_t kMaxPayloadBytes = 64ull << 20;

/// Request message types. A response reuses its request's type value with
/// `kResponseFlag` set. Values are wire-stable: append, never renumber.
enum class MsgType : uint32_t {
  kHello = 1,
  kCameraStart = 2,
  kCameraTerminate = 3,
  kIngestFrame = 4,
  kFlush = 5,
  kDirectQuery = 6,
  kClusteringQueryById = 7,
  kClusteringQueryByMap = 8,
  kGetMetaData = 9,
  kMonitorStats = 10,
  kCameraHealth = 11,
  kQueryLoadStats = 12,
  kSnapshotSave = 13,
  kSnapshotLoad = 14,
  /// Keepalive: an empty request answered with an OK status. Resets the
  /// server's idle clock without touching any state, so a client that is
  /// between requests can fend off idle eviction.
  kPing = 15,
  /// Log shipping (v3): a standby asks for WAL records starting after a
  /// given LSN. The `from` LSN doubles as a windowed ack — everything at or
  /// below it is durably applied on the standby, which lets a semi-sync
  /// primary release acks waiting on replication. Token-free: re-reading a
  /// log window is harmless.
  kWalShip = 16,
  /// Representative sync (v4): a coordinator asks an edge for its
  /// inter-camera representative entries. The request carries the index
  /// version of the last sync; an unchanged index answers with a small
  /// "unchanged" reply instead of re-shipping every entry. Token-free.
  kRepSync = 17,
  /// Fetch one stored SVS's feature map by id (v4) — how a coordinator
  /// resolves the target of a by-id clustering query that lives on another
  /// shard. Token-free.
  kSvsFeatureMap = 18,
  /// Fetch the newest valid checkpoint pair (snapshot + manifest bytes) of
  /// a WAL-backed server (v4) — the standby re-seed path once compaction
  /// has outrun its replication cursor. Token-free.
  kCheckpointFetch = 19,
  /// Register a standing query (v5): the server pushes `kPushEvent` frames
  /// — tagged with this request's correlation id — as ingestion finalizes
  /// matching segments. Token-free: subscription state is connection-scoped
  /// and dies with the connection, so a retry after reconnect re-registers
  /// rather than duplicating.
  kSubscribe = 20,
  /// Cancel a standing query by subscription id (v5). Token-free (cancelling
  /// twice is harmless).
  kUnsubscribe = 21,
  /// Batched ingest (v5): N frame observations in one RPC, acknowledged with
  /// per-batch accept/reject counts. Mutating and tokened — the batch is the
  /// exactly-once unit, and it rides the WAL like `kIngestFrame`.
  kIngestBatch = 22,
  /// Live administration (v5): apply the performance monitor's adjustment
  /// ladder (OMD mode, boundary scale, keyframe toggles, clustering counts)
  /// over the wire. Mutating and tokened, but NOT WAL-logged: tuning knobs
  /// are operator state, not corpus state, and must not replay into a
  /// recovered server that the operator never retuned.
  kAdminTune = 23,
  /// Asynchronous server→client push (v5): a match, stats update, or
  /// gap marker for one subscription. Never a request; never acknowledged.
  kPushEvent = 24,
};

inline constexpr uint32_t kResponseFlag = 0x80000000u;

/// True when `type` (with or without the response flag) names a known
/// message type.
bool IsKnownMessageType(uint32_t type);

/// True for RPCs that change server state (camera lifecycle, ingest, flush,
/// snapshot save/load). Exactly these carry an idempotency token at the
/// start of their request payload; queries and stats reads stay token-free
/// (re-executing them is harmless).
bool IsMutatingType(uint32_t type);

/// Idempotency token stamped by `net::Client` on every mutating request:
/// a session id unique to the client instance plus a sequence number that
/// increases by one per logical call (retries of the same call re-send the
/// same sequence). The server deduplicates on (session, sequence) within a
/// bounded window and replays the cached response for duplicates, making
/// reconnect-retries exactly-once.
struct IdempotencyToken {
  uint64_t session_id = 0;
  uint64_t sequence = 0;
};

/// Session id 0 is reserved as "no token": decoding refuses it.
template <typename A>
Status Visit(A& ar, IdempotencyToken& token) {
  VZ_RETURN_IF_ERROR(io::Fields(ar, token.session_id, token.sequence));
  if constexpr (A::kDecoding) {
    if (token.session_id == 0) {
      return Status::InvalidArgument("idempotency token with zero session id");
    }
  }
  return Status::OK();
}

/// Stable numeric mapping of `StatusCode` for the wire. The in-memory enum
/// is free to reorder; these values are part of the protocol and must not
/// change. Unknown incoming values map to `kInternal`.
uint32_t StatusCodeToWire(StatusCode code);
StatusCode StatusCodeFromWire(uint32_t wire);

/// Status as carried in every response payload: the code (wire-mapped), the
/// message, and — for `kResourceExhausted` sheds — the server's retry-after
/// hint, which clients feed into their capped exponential backoff.
struct WireStatus {
  Status status;
  int64_t retry_after_ms = 0;
};

void EncodeWireStatus(io::BinaryWriter* writer, const WireStatus& status);
StatusOr<WireStatus> DecodeWireStatus(io::BinaryReader* reader);

/// One decoded frame: type, correlation id, payload. For responses the
/// correlation id echoes the request's; for `kPushEvent` it names the
/// subscription's originating `kSubscribe` call.
struct WireFrame {
  uint32_t type = 0;
  uint64_t correlation = 0;
  std::string payload;
};

/// Encodes one frame (magic, type, correlation, length-prefixed payload,
/// CRC over everything after the magic).
std::string EncodeFrame(uint32_t type, uint64_t correlation,
                        const std::string& payload);

/// Decodes exactly one frame from `reader` (which may hold a whole stream of
/// concatenated frames). See the failure taxonomy above.
StatusOr<WireFrame> DecodeFrame(io::BinaryReader* reader);

/// Socket-level frame I/O (blocking). `ReadFrame` returns `kNotFound` when
/// the peer closed cleanly between frames and `kDataLoss` when it closed
/// mid-frame. With `timeout_ms >= 0` the whole frame must be written/read
/// within that budget (measured from entry); expiry yields `kUnavailable` —
/// the supervision signal for slow, stalled or blackholed peers. A trickled
/// header counts against the same budget as the payload, so a slow-loris
/// sender cannot hold a connection open indefinitely.
Status WriteFrame(int fd, uint32_t type, uint64_t correlation,
                  const std::string& payload, int64_t timeout_ms = -1);
StatusOr<WireFrame> ReadFrame(int fd, int64_t timeout_ms = -1);

/// Gathered write of pre-encoded frames: one sendmsg-backed burst instead
/// of one syscall per frame. The push-delivery path drains a subscriber's
/// queue through this.
Status WriteEncodedFrames(int fd, const std::vector<std::string>& frames,
                          int64_t timeout_ms = -1);

/// Bytes `EncodeFrame` produces for a payload of `payload_bytes`: magic,
/// type, correlation, length prefix, payload, CRC. Used by the serving
/// layer's per-connection byte accounting.
inline constexpr uint64_t WireFrameBytes(uint64_t payload_bytes) {
  return sizeof(uint32_t) * 2 + sizeof(uint64_t) * 2 + payload_bytes +
         sizeof(uint32_t);
}

/// Writes a kIngestFrame body. Load generators that log frames the way the
/// server does call it directly.
void EncodeFrameObservation(io::BinaryWriter* writer,
                            const core::FrameObservation& frame);

// --- Request and reply payloads. A reply payload is the WireStatus, then
// (on success) the body below. Mutating requests carry the idempotency
// token ahead of their body. Single-value bodies travel as that value: a
// camera or snapshot path (std::string), an SVS id (core::SvsId), a
// subscription id or a loaded-SVS count (uint64_t). ---

/// A body with no fields: the kFlush, kMonitorStats, kCameraHealth,
/// kQueryLoadStats, kCheckpointFetch and kPing requests, and the reply of
/// every RPC that answers with its status alone.
struct EmptyPayload {};

template <typename A>
Status Visit(A&, EmptyPayload&) {
  return Status::OK();
}

/// Body of kDirectQuery.
struct DirectQueryRequest {
  FeatureVector feature;
  /// Camera/time/deadline qualifiers travel on the wire; the external
  /// `cancel` token does not (a remote caller cancels by deadline or by
  /// dropping the connection).
  core::QueryConstraints constraints;
};

/// Body of kClusteringQueryById.
struct ClusteringByIdRequest {
  core::SvsId target = 0;
  core::QueryConstraints constraints;
};

/// Body of kClusteringQueryByMap.
struct ClusteringByMapRequest {
  FeatureMap target;
  core::QueryConstraints constraints;
};

template <typename A>
Status Visit(A& ar, DirectQueryRequest& request) {
  return io::Fields(ar, request.feature, request.constraints);
}

template <typename A>
Status Visit(A& ar, ClusteringByIdRequest& request) {
  return io::Fields(ar, request.target, request.constraints);
}

template <typename A>
Status Visit(A& ar, ClusteringByMapRequest& request) {
  return io::Fields(ar, request.target, request.constraints);
}

/// One live connection as reported by the serving layer's registry: its
/// lifetime, recency and traffic counters, for operator dashboards and the
/// supervision tests.
struct ConnectionInfo {
  uint64_t id = 0;
  int64_t age_ms = 0;
  int64_t idle_ms = 0;
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  uint64_t rpcs = 0;
};

template <typename A>
Status Visit(A& ar, ConnectionInfo& conn) {
  return io::Fields(ar, conn.id, conn.age_ms, conn.idle_ms, conn.bytes_in,
                    conn.bytes_out, conn.rpcs);
}

/// Shard health ladder (v4), as maintained by a coordinator's EdgeRegistry
/// and surfaced through its Monitor reply. Values are wire-stable.
enum class ShardState : uint32_t {
  /// Answering RPCs, representatives fresh: full fan-out member.
  kHealthy = 0,
  /// Answering RPCs but representatives stale past the staleness bound
  /// (or first errors seen): still fanned out, flagged for operators.
  kDegraded = 1,
  /// Consecutive failures crossed the threshold: evicted from fan-out,
  /// probed with seeded backoff until it answers again.
  kUnreachable = 2,
};

/// One edge shard's row in the coordinator's Monitor reply.
struct ShardHealthInfo {
  std::string host;
  uint32_t port = 0;
  ShardState state = ShardState::kHealthy;
  /// Consecutive RPC failures (resets on any success).
  uint64_t consecutive_failures = 0;
  /// Milliseconds since the last successful rep-sync; -1 = never synced.
  int64_t rep_staleness_ms = -1;
  /// Representative entries currently held for this shard.
  uint64_t rep_entries = 0;
  /// Cameras known to live on this shard (from its CameraHealth report).
  uint64_t cameras = 0;
};

template <typename A>
Status Visit(A& ar, ShardHealthInfo& shard) {
  VZ_RETURN_IF_ERROR(io::Fields(ar, shard.host, shard.port));
  VZ_RETURN_IF_ERROR(io::Enum<uint32_t>(ar, shard.state,
                                        ShardState::kUnreachable,
                                        "shard state value"));
  return io::Fields(ar, shard.consecutive_failures, shard.rep_staleness_ms,
                    shard.rep_entries, shard.cameras);
}

/// The serving role a server reports in its Monitor reply (v3).
enum class ServerRole : uint32_t {
  /// Accepting client traffic; the authority for its WAL.
  kPrimary = 0,
  /// Tailing a primary's WAL; not listening for clients.
  kStandby = 1,
  /// A standby that took over the primary's port after a failover.
  kPromoted = 2,
};

/// Serving-layer counters carried in the Monitor reply: connection
/// lifecycle totals, supervision evictions, exactly-once replays, the
/// per-connection registry snapshot, the durability counters (all zero when
/// the server runs without a WAL), the shard table, the subscription
/// counters and the disk-health block, always all of them (the Hello admits
/// only an exact-version peer).
struct ServingStats {
  uint64_t connections_accepted = 0;
  uint64_t connections_shed = 0;
  /// Supervision evictions: no completed request past the idle deadline
  /// plus grace / a frame read or write that overran its deadline.
  uint64_t connections_evicted_idle = 0;
  uint64_t connections_evicted_slow = 0;
  /// Mutating RPCs answered from a session's dedup window instead of being
  /// re-applied (exactly-once in action).
  uint64_t duplicates_replayed = 0;
  uint64_t pings_served = 0;
  uint64_t sessions_active = 0;
  uint64_t sessions_evicted = 0;
  // v3 durability counters.
  ServerRole role = ServerRole::kPrimary;
  uint64_t wal_appends = 0;
  uint64_t wal_fsyncs = 0;
  /// Records re-applied from the log during crash recovery.
  uint64_t wal_replayed_records = 0;
  /// Bytes of torn/corrupt log tail discarded during recovery.
  uint64_t wal_salvaged_bytes = 0;
  /// Checkpoints (snapshot + manifest) taken since start.
  uint64_t wal_checkpoints = 0;
  uint64_t wal_last_lsn = 0;
  uint64_t wal_durable_lsn = 0;
  /// Standby only: durable primary records not yet applied locally.
  uint64_t replication_lag_records = 0;
  /// Standby only (v4): automatic checkpoint re-seeds after compaction
  /// outran the replication cursor.
  uint64_t replication_reseeds = 0;
  std::vector<ConnectionInfo> connections;
  /// Coordinator only (v4): the per-shard health table (empty on edges).
  std::vector<ShardHealthInfo> shards;
  uint64_t subscriptions_active = 0;
  uint64_t subscriptions_total = 0;
  /// Push frames written to subscribers.
  uint64_t pushes_sent = 0;
  /// Events dropped from full subscriber queues (each run of drops is
  /// summarized by one gap marker).
  uint64_t push_drops = 0;
  uint64_t push_gaps_sent = 0;
  /// kIngestBatch requests served.
  uint64_t ingest_batches = 0;
  /// Failed writes on the durability path (WAL appends, checkpoint and
  /// snapshot saves). ENOSPC and EIO both land here.
  uint64_t disk_io_errors = 0;
  /// Failed fsyncs — counted separately because a failed fsync poisons the
  /// un-synced range permanently (no ack ever rides a retried fsync).
  uint64_t disk_fsync_failures = 0;
  /// Checkpoint pairs recovery refused (torn snapshot or manifest) before
  /// falling back to an older valid pair.
  uint64_t checkpoints_quarantined = 0;
  /// True once a write failed with ENOSPC; stays set.
  bool disk_full = false;
  /// True when the server shed writes into read-only degraded mode after a
  /// disk fault (queries and subscriptions keep serving).
  bool read_only = false;
};

template <typename A>
Status Visit(A& ar, ServingStats& stats) {
  VZ_RETURN_IF_ERROR(io::Fields(ar, stats.connections_accepted,
                                stats.connections_shed,
                                stats.connections_evicted_idle,
                                stats.connections_evicted_slow,
                                stats.duplicates_replayed, stats.pings_served,
                                stats.sessions_active, stats.sessions_evicted));
  VZ_RETURN_IF_ERROR(io::Enum<uint32_t>(ar, stats.role, ServerRole::kPromoted,
                                        "server role value"));
  return io::Fields(ar, stats.wal_appends, stats.wal_fsyncs,
                    stats.wal_replayed_records, stats.wal_salvaged_bytes,
                    stats.wal_checkpoints, stats.wal_last_lsn,
                    stats.wal_durable_lsn, stats.replication_lag_records,
                    stats.replication_reseeds, stats.connections, stats.shards,
                    stats.subscriptions_active, stats.subscriptions_total,
                    stats.pushes_sent, stats.push_drops, stats.push_gaps_sent,
                    stats.ingest_batches, stats.disk_io_errors,
                    stats.disk_fsync_failures, stats.checkpoints_quarantined,
                    stats.disk_full, stats.read_only);
}

/// Body of the Monitor RPC: the system-wide gauges an operator dashboard
/// polls (ingestion counters, OMD cache effectiveness, corpus size) plus
/// the serving layer's supervision stats.
struct MonitorStatsReply {
  core::IngestStats ingest;
  core::OmdCacheStats cache;
  uint64_t svs_count = 0;
  uint64_t camera_count = 0;
  int64_t now_ms = 0;
  ServingStats serving;
};

template <typename A>
Status Visit(A& ar, MonitorStatsReply& stats) {
  return io::Fields(ar, stats.ingest, stats.cache, stats.svs_count,
                    stats.camera_count, stats.now_ms, stats.serving);
}

/// One row of the CameraHealth reply (a `std::vector<CameraHealthEntry>`).
struct CameraHealthEntry {
  core::CameraId camera;
  core::CameraHealth health = core::CameraHealth::kHealthy;
};

template <typename A>
Status Visit(A& ar, CameraHealthEntry& entry) {
  VZ_RETURN_IF_ERROR(io::Field(ar, entry.camera));
  return io::Enum<uint8_t>(ar, entry.health, core::CameraHealth::kStalled,
                           "camera health value");
}

/// Body of the WalShip RPC (v3). The request is `from_lsn` (records strictly
/// after it are returned, and everything at or below it is acknowledged as
/// durably applied by the caller), `max_records`, and `wait_ms` — a long-poll
/// budget: when no records are available past `from_lsn` the server may hold
/// the request until new ones become durable or the budget expires.
struct WalShipRequest {
  uint64_t from_lsn = 0;
  uint32_t max_records = 0;
  uint32_t wait_ms = 0;
  /// The caller's promotion epoch (v4). A primary refuses requests from a
  /// caller with a *newer* epoch (`kFailedPrecondition`): it has been
  /// demoted by a failover it never saw, and acking the request would
  /// double-apply history the new primary already owns. 0 = unknown (a
  /// fresh standby that has not yet learned an epoch) and always passes.
  uint64_t epoch = 0;
};

template <typename A>
Status Visit(A& ar, WalShipRequest& request) {
  return io::Fields(ar, request.from_lsn, request.max_records, request.wait_ms,
                    request.epoch);
}

/// The reply: the primary's durable frontier (so a caught-up standby can
/// report zero lag) plus the shipped records in LSN order.
struct WalShipReply {
  uint64_t durable_lsn = 0;
  /// The server's promotion epoch (v4); a standby adopts the max of its own
  /// and every reply's, so fencing survives standby restarts.
  uint64_t epoch = 0;
  std::vector<io::WalRecord> records;
};

/// Each record is laid out exactly like a WAL record payload. The shipped
/// batch must be a dense ascending LSN run: a gap would silently drop
/// records on the standby.
template <typename A>
Status Visit(A& ar, WalShipReply& reply) {
  VZ_RETURN_IF_ERROR(io::Fields(ar, reply.durable_lsn, reply.epoch,
                                reply.records));
  if constexpr (A::kDecoding) {
    for (size_t i = 1; i < reply.records.size(); ++i) {
      if (reply.records[i].lsn != reply.records[i - 1].lsn + 1) {
        return Status::InvalidArgument("WAL ship batch has an LSN gap");
      }
    }
  }
  return Status::OK();
}

// --- Sharded deployment (v4). See DESIGN.md, "Sharded deployment". ---

/// Body of the RepSync RPC (v4). `since_version` is the edge's
/// `index_version()` at the caller's last successful sync (0 = never
/// synced: always ship).
struct RepSyncRequest {
  uint64_t since_version = 0;
};

template <typename A>
Status Visit(A& ar, RepSyncRequest& request) {
  return io::Field(ar, request.since_version);
}

/// The reply: the edge's current index version and — unless the version
/// still equals `since_version` — the full representative entry set (edges
/// ship state, not deltas: replacement is idempotent and self-healing).
struct RepSyncReply {
  uint64_t version = 0;
  bool unchanged = false;
  std::vector<core::InterCameraIndex::RepEntry> entries;
};

template <typename A>
Status Visit(A& ar, RepSyncReply& reply) {
  VZ_RETURN_IF_ERROR(io::Fields(ar, reply.version, reply.unchanged,
                                reply.entries));
  if constexpr (A::kDecoding) {
    if (reply.unchanged && !reply.entries.empty()) {
      return Status::InvalidArgument("unchanged RepSync reply carries entries");
    }
  }
  return Status::OK();
}

/// Body of the CheckpointFetch RPC (v4): the newest valid checkpoint pair,
/// shipped as raw file bytes (the caller writes them into its own WAL
/// directory and restores through the normal recovery path).
struct CheckpointFetchReply {
  uint64_t lsn = 0;
  uint64_t epoch = 0;
  std::string snapshot_bytes;  // checkpoint-<lsn>.vzss
  std::string meta_bytes;      // checkpoint-<lsn>.meta
};

template <typename A>
Status Visit(A& ar, CheckpointFetchReply& reply) {
  return io::Fields(ar, reply.lsn, reply.epoch, reply.snapshot_bytes,
                    reply.meta_bytes);
}

// --- Standing queries and server push (v5). See DESIGN.md, "Standing
// queries and multiplexing". ---

/// Body of the Subscribe RPC: the standing query. A subscriber may ask for
/// match pushes (query vector + distance threshold, optional camera filter),
/// stats pushes (index-version updates as ingestion advances), or both.
struct SubscribeRequest {
  /// The query feature vector; may be empty for a stats-only subscription.
  FeatureVector query;
  /// Match when the minimum Euclidean distance from `query` to any row of a
  /// finalized segment's feature map is <= threshold.
  double threshold = 0.0;
  /// Restrict match evaluation to these cameras (empty + has_camera_filter
  /// false = all cameras).
  bool has_camera_filter = false;
  std::vector<std::string> cameras;
  bool want_matches = true;
  bool want_stats = false;
};

/// The camera list travels only when `has_camera_filter` is set. Decoding
/// refuses a subscription that wants nothing, and a match subscription
/// without a query.
template <typename A>
Status Visit(A& ar, SubscribeRequest& request) {
  VZ_RETURN_IF_ERROR(io::Fields(ar, request.query, request.threshold,
                                request.has_camera_filter));
  if (request.has_camera_filter) {
    VZ_RETURN_IF_ERROR(io::Field(ar, request.cameras));
  }
  VZ_RETURN_IF_ERROR(io::Fields(ar, request.want_matches, request.want_stats));
  if constexpr (A::kDecoding) {
    if (!request.want_matches && !request.want_stats) {
      return Status::InvalidArgument(
          "subscription wants neither matches nor stats");
    }
    if (request.want_matches && request.query.dim() == 0) {
      return Status::InvalidArgument("match subscription with an empty query");
    }
  }
  return Status::OK();
}

/// What one push frame announces.
enum class PushKind : uint32_t {
  /// A finalized segment matched the standing query.
  kMatch = 0,
  /// The server's index version advanced (stats subscription).
  kIndexUpdate = 1,
  /// `dropped` events were discarded from this subscription's queue while
  /// the subscriber was slow — the at-most-once delivery contract's honest
  /// marker. Sequence numbers stay dense as delivered; the gap marker is
  /// the only record of the loss.
  kGap = 2,
};

/// Body of a `kPushEvent` frame. `sequence` increases by one per event
/// actually delivered on the subscription (gap markers included), so a
/// subscriber can assert it never silently missed a push.
struct PushEvent {
  uint64_t subscription_id = 0;
  uint64_t sequence = 0;
  PushKind kind = PushKind::kMatch;
  // kMatch fields.
  core::SvsId svs_id = 0;
  std::string camera;
  int64_t start_ms = 0;
  int64_t end_ms = 0;
  /// Minimum distance from the standing query to the segment's feature map.
  double distance = 0.0;
  // kIndexUpdate fields.
  uint64_t index_version = 0;
  // kGap fields.
  uint64_t dropped = 0;
};

/// Only the fields of the announced kind travel. A gap marker claiming zero
/// drops is well-formed but alien: decoding refuses it.
template <typename A>
Status Visit(A& ar, PushEvent& event) {
  VZ_RETURN_IF_ERROR(io::Fields(ar, event.subscription_id, event.sequence));
  VZ_RETURN_IF_ERROR(
      io::Enum<uint32_t>(ar, event.kind, PushKind::kGap, "push event kind"));
  switch (event.kind) {
    case PushKind::kMatch:
      return io::Fields(ar, event.svs_id, event.camera, event.start_ms,
                        event.end_ms, event.distance);
    case PushKind::kIndexUpdate:
      return io::Field(ar, event.index_version);
    case PushKind::kGap:
      VZ_RETURN_IF_ERROR(io::Field(ar, event.dropped));
      if constexpr (A::kDecoding) {
        if (event.dropped == 0) {
          return Status::InvalidArgument("gap marker with zero dropped events");
        }
      }
      return Status::OK();
  }
  return Status::OK();
}

/// Body of kIngestBatch: a u32 frame count, then the frames. The server
/// decodes the whole batch before it applies any frame, so a malformed
/// batch changes nothing.
struct IngestBatchRequest {
  std::vector<core::FrameObservation> frames;
};

template <typename A>
Status Visit(A& ar, IngestBatchRequest& request) {
  return io::Elements<uint32_t>(ar, request.frames);
}

/// Reply body of `kIngestBatch` (after the WireStatus): deterministic
/// accept/reject counts, so replaying the batch from the WAL or the dedup
/// window reproduces the identical response bytes.
struct IngestBatchReply {
  uint64_t accepted = 0;
  uint64_t rejected = 0;
};

template <typename A>
Status Visit(A& ar, IngestBatchReply& reply) {
  return io::Fields(ar, reply.accepted, reply.rejected);
}

/// Body of the AdminTune RPC: each knob optional, applied atomically in
/// declaration order. The reply echoes the server's post-apply settings.
struct AdminTuneRequest {
  std::optional<uint32_t> index_mode;       // core::IndexMode wire value
  std::optional<double> boundary_scale;
  std::optional<double> omd_alpha;
  std::optional<bool> keyframe_selection;
  std::optional<uint64_t> inter_group_count;   // 0 = auto (sqrt heuristic)
  std::optional<uint64_t> intra_cluster_count; // 0 = auto
};

template <typename A>
Status Visit(A& ar, AdminTuneRequest& request) {
  return io::Fields(ar, request.index_mode, request.boundary_scale,
                    request.omd_alpha, request.keyframe_selection,
                    request.inter_group_count, request.intra_cluster_count);
}

/// The server's settings after applying an AdminTune request: the same
/// type, and bytes, as the checkpoint manifest's tuning block.
using AdminTuneReply = io::TuningSettings;

}  // namespace vz::net

// The layouts of the core types the RPCs carry, in their own namespace so
// the generic codec finds them.
namespace vz::core {

template <typename A>
Status Visit(A& ar, BoundingBox& box) {
  return io::Fields(ar, box.top, box.left, box.bottom, box.right);
}

template <typename A>
Status Visit(A& ar, DetectedObject& object) {
  return io::Fields(ar, object.box, object.feature, object.class_hint,
                    object.class_confidence);
}

template <typename A>
Status Visit(A& ar, FrameObservation& frame) {
  return io::Fields(ar, frame.camera, frame.timestamp_ms, frame.frame_id,
                    frame.deviation_from_previous, frame.encoded_bytes,
                    frame.objects);
}

/// The `cancel` token does not travel.
template <typename A>
Status Visit(A& ar, QueryConstraints& constraints) {
  return io::Fields(ar, constraints.cameras, constraints.time_range_ms,
                    constraints.deadline_ms);
}

template <typename A>
Status Visit(A& ar, DirectQueryResult& result) {
  return io::Fields(ar, result.candidate_svss, result.matched_svss,
                    result.total_gpu_ms, result.bottleneck_camera_gpu_ms,
                    result.per_camera_gpu_ms, result.frames_processed,
                    result.cameras_searched, result.degraded,
                    result.excluded_cameras, result.timed_out,
                    result.completed_fraction);
}

template <typename A>
Status Visit(A& ar, ClusteringQueryResult& result) {
  return io::Fields(ar, result.similar_svss, result.cameras_contributing,
                    result.degraded, result.excluded_cameras, result.timed_out,
                    result.completed_fraction, result.fast_omd_routed);
}

template <typename A>
Status Visit(A& ar, SvsMetadata& meta) {
  return io::Fields(ar, meta.id, meta.camera, meta.start_ms, meta.end_ms,
                    meta.num_frames, meta.encoded_bytes, meta.access_count,
                    meta.last_access_ms, meta.access_frequency);
}

template <typename A>
Status Visit(A& ar, QueryLoadStats& stats) {
  return io::Fields(ar, stats.in_flight, stats.waiting, stats.admitted,
                    stats.shed, stats.timed_out, stats.fast_omd_routed,
                    stats.timeout_overshoot_ms_total, stats.max_in_flight,
                    stats.max_queue, stats.omd_failures);
}

template <typename A>
Status Visit(A& ar, OmdCacheStats& stats) {
  return io::Fields(ar, stats.hits, stats.misses, stats.insertions,
                    stats.invalidations, stats.rejected_inserts, stats.entries,
                    stats.capacity);
}

template <typename A>
Status Visit(A& ar, InterCameraIndex::RepEntry& entry) {
  return io::Fields(ar, entry.camera, entry.intra_cluster_index, entry.map,
                    entry.rep);
}

}  // namespace vz::core

#endif  // VZ_NET_WIRE_H_
