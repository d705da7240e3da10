#ifndef VZ_IO_WAL_H_
#define VZ_IO_WAL_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/statusor.h"
#include "core/videozilla.h"
#include "io/archive.h"
#include "io/env.h"

namespace vz::io {

/// Append-only write-ahead log for the serving layer's mutating RPCs (see
/// DESIGN.md, "Durability and replication").
///
/// On-disk layout: a directory of segment files `wal-<seq>.vzwal`, each
///
///   u32 magic ("VZWL") | u32 version | u64 start_lsn | u32 header crc |
///   record*
///
/// where every record is framed as
///
///   u32 payload_len | payload | u32 crc32(payload)
///
/// and the payload itself is one `WalRecord` (its Visit below, which the
/// wire's WalShip reply shares): `u64 lsn | u64 session_id | u64 sequence |
/// u32 op | u64 epoch | u64+bytes body` — the idempotency token travels
/// inside the log, which is what lets a restarted server rebuild its dedup
/// windows, and the promotion epoch travels with every record, which is what
/// lets a failed-over cluster fence a demoted primary (format v2; a v1 log
/// is no longer readable — recreate from a checkpoint).
///
/// LSNs are assigned densely (last + 1) and validated on read: a record
/// whose CRC fails, whose length is implausible, or whose LSN breaks the
/// `prev + 1` chain marks the torn tail. `Open` always salvages — the file
/// is truncated back to the last valid record and later segments are
/// dropped — so a crash mid-append (or a partial fsync that zeroed the tail)
/// costs exactly the unacknowledged suffix, never a parse error.
///
/// Durability is group-commit: `Append` writes the record to the OS and
/// returns; a background thread fsyncs the open segment as soon as an
/// append is pending, and every append that lands during that fsync rides
/// the next one, across all sessions; `WaitDurable(lsn)` blocks until the
/// covering fsync completed. Commit is thus self-clocked by default: a lone
/// writer waits for one fsync, and concurrent writers share one. A positive
/// `fsync_interval_ms` opts into a gather window before each fsync, which
/// trades fewer fsyncs for an ack-latency floor of the window (the dial
/// `bench_wal_append` prices). The fsync runs with the append lock
/// released, so an append never waits on the disk flush — except the one
/// that rotates the segment, which seals the old file with its own fsync.
///
/// Disk failures follow the fsyncgate rule: a failed write or fsync
/// permanently POISONS the log. Once poisoned, `Append` refuses new records,
/// the sync thread never retries the fsync (after a failed fsync the kernel
/// may have dropped the dirty pages while a retry reports success — the ack
/// would be a lie), and `WaitDurable` returns the poison status for every
/// LSN past the durable frontier instead of blocking forever. Records at or
/// below the frontier stay readable and shippable; recovery from the
/// on-disk state is the only way forward.

inline constexpr uint32_t kWalMagic = 0x565A574C;  // "VZWL"
inline constexpr uint32_t kWalFormatVersion = 2;  // v2: per-record epoch
/// Frame overhead of one record: length prefix + trailing CRC.
inline constexpr size_t kWalRecordOverhead = 2 * sizeof(uint32_t);
/// Upper bound on one record payload (matches the wire's frame cap).
inline constexpr uint64_t kWalMaxPayloadBytes = 64ull << 20;

/// Reserved `WalRecord::op` value (far outside the wire MsgType range) for
/// the durable promotion marker `net::Server::Promote` appends: the record
/// carries no state change, only its `epoch`, so the bump itself survives
/// restarts and ships to any tailing standby.
inline constexpr uint32_t kWalOpEpochMarker = 0xFFFF0001u;

struct WalOptions {
  std::string dir;
  /// Group-commit gather window. 0 (the default) is self-clocked: the sync
  /// thread fsyncs as soon as an append is pending, batching the appends
  /// that race one fsync. A positive window sleeps that long before each
  /// fsync — fewer fsyncs, but no ack returns sooner than the window.
  /// < 0 disables fsync entirely (benchmarks only — no durability).
  int64_t fsync_interval_ms = 0;
  /// Segment rotation threshold (record bytes per segment file).
  size_t segment_bytes = 4u << 20;
  /// LSN floor when the directory holds no records — the checkpoint cut a
  /// recovering server already restored, so numbering continues from it.
  uint64_t start_lsn = 0;
  /// Storage syscall surface; null means the real POSIX environment. Tests
  /// substitute `sim::FaultEnv` to inject disk failures. Not owned; must
  /// outlive the log.
  Env* env = nullptr;
};

/// One logged mutation. `payload` is the op's post-token request body,
/// verbatim — replay re-executes it through the server's own dispatch.
struct WalRecord {
  /// Assigned by `Append` when 0; a nonzero value must continue the chain
  /// (`last_lsn + 1`) — the standby path, which mirrors primary numbering.
  uint64_t lsn = 0;
  uint64_t session_id = 0;  // 0 = untokened op
  uint64_t sequence = 0;
  uint32_t op = 0;  // wire MsgType value, opaque to the log
  /// Promotion epoch under which the record was written (see DESIGN.md,
  /// "Sharded deployment" — fencing). Opaque to the log itself.
  uint64_t epoch = 0;
  std::string payload;
};

template <typename A>
Status Visit(A& ar, WalRecord& record) {
  return Fields(ar, record.lsn, record.session_id, record.sequence, record.op,
                record.epoch, record.payload);
}

struct WalStats {
  uint64_t appends = 0;
  uint64_t fsyncs = 0;
  uint64_t appended_bytes = 0;
  /// Bytes dropped by tail salvage at `Open` (torn or zeroed suffixes plus
  /// any segments stranded past them).
  uint64_t salvaged_bytes = 0;
  uint64_t segments_created = 0;
  uint64_t segments_deleted = 0;  // compaction
  /// Failed writes on the append path (ENOSPC, EIO, short writes). Any of
  /// these poisons the log.
  uint64_t io_errors = 0;
  /// Failed fsyncs — each one poisons the log (fsyncgate; never retried).
  uint64_t fsync_failures = 0;
  uint64_t last_lsn = 0;
  uint64_t durable_lsn = 0;
  uint64_t base_lsn = 0;
  uint64_t live_bytes = 0;
};

class Wal {
 public:
  /// Opens (creating the directory's first segment if needed) and salvages:
  /// the tail is truncated back to the last valid record. Never fails on
  /// torn or corrupt tails — only on I/O errors or an unusable directory.
  static StatusOr<std::unique_ptr<Wal>> Open(const WalOptions& options);
  ~Wal();

  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Appends one record (assigning its LSN, see `WalRecord::lsn`) and
  /// returns the LSN. The bytes reach the OS before return but are durable
  /// only once `WaitDurable` says so. A write failure (including a short
  /// write, whose torn bytes would corrupt everything appended after them)
  /// poisons the log; a poisoned log refuses all further appends with the
  /// original failure.
  StatusOr<uint64_t> Append(const WalRecord& record);

  /// Blocks until every record up to `lsn` is fsync'd. Returns OK for LSNs
  /// at or below the durable frontier; once the log is poisoned, returns
  /// the poison status for everything past it — the caller must refuse the
  /// ack, never wait for a retried fsync to "succeed".
  Status WaitDurable(uint64_t lsn);

  /// Forces an immediate fsync of everything appended so far. Returns the
  /// poison status (without touching the disk) once poisoned.
  Status Sync();

  /// OK while the log is healthy; the first write/fsync failure otherwise.
  Status health() const;

  /// True once `durable_lsn() > lsn`; otherwise waits up to `timeout_ms`
  /// for new durable records — the WAL-shipping long poll.
  bool WaitDurablePast(uint64_t lsn, int64_t timeout_ms);

  /// Up to `max_records` durable records with `lsn > from_lsn`, in order.
  /// `from_lsn < base_lsn()` is `kOutOfRange`: those records were compacted
  /// into a checkpoint and can no longer be shipped.
  StatusOr<std::vector<WalRecord>> ReadFrom(uint64_t from_lsn,
                                            size_t max_records);

  /// Feeds every record with `lsn > from_lsn` (durable or not — recovery
  /// owns the whole tail) through `fn`, in order, stopping on error.
  Status Replay(uint64_t from_lsn,
                const std::function<Status(const WalRecord&)>& fn);

  /// Deletes segments fully covered by a checkpoint at `upto_lsn` (the open
  /// segment is sealed and rotated first if covered). Records at or below
  /// the cut count as durable afterwards — the checkpoint supersedes them.
  Status Compact(uint64_t upto_lsn);

  uint64_t last_lsn() const;
  uint64_t durable_lsn() const;
  /// Records at or below this LSN have been compacted away.
  uint64_t base_lsn() const;
  /// Record bytes across live segments — the compaction trigger gauge.
  uint64_t live_bytes() const;
  WalStats stats() const;

 private:
  struct Segment {
    uint64_t seq = 0;
    std::string path;
    uint64_t start_lsn = 0;  // records span (start_lsn, last_lsn]
    uint64_t last_lsn = 0;
    uint64_t record_bytes = 0;  // valid extent past the header
    /// Open for append on the tail segment only; null on sealed segments.
    /// Shared so read-only Segment copies stay cheap and an fsync running
    /// outside `mu_` keeps the file open across a rotation.
    std::shared_ptr<WritableFile> file;
  };

  explicit Wal(const WalOptions& options);

  Status OpenDir();
  Status ScanAndSalvage();
  StatusOr<Segment> CreateSegment(uint64_t seq, uint64_t start_lsn);
  Status RotateLocked();
  /// Fsyncs `file` (null: nothing to flush) and advances the durable
  /// frontier to `target_lsn`, or poisons the log. Takes `fsync_mu_` but
  /// not `mu_` (held only by the rotation path); the caller keeps `file`
  /// alive.
  Status SyncFile(WritableFile* file, uint64_t target_lsn);
  /// Latches `status` as the permanent poison (first failure wins), counts
  /// it, wakes every waiter, and returns the latched poison.
  Status Poison(Status status, bool from_fsync);
  void SyncLoop();
  StatusOr<std::vector<WalRecord>> ReadSegment(const Segment& segment,
                                               uint64_t from_lsn,
                                               uint64_t upto_lsn,
                                               size_t max_records) const;

  const WalOptions options_;
  Env* env_ = nullptr;  // options_.env or the POSIX default

  /// Serializes all segment/file mutations (append, rotate, compact, read).
  /// Lock order: `mu_`, then `fsync_mu_`, then `sync_mu_`.
  mutable std::mutex mu_;
  std::vector<Segment> segments_;
  uint64_t last_lsn_ = 0;
  uint64_t base_lsn_ = 0;
  uint64_t next_segment_seq_ = 1;
  /// `fsyncs`, `fsync_failures` and `io_errors` are counted under
  /// `sync_mu_` (where the frontier advances or the poison latches), the
  /// rest under `mu_`; `stats()` reads them holding both.
  WalStats stats_;

  /// One fsync at a time, and never under `mu_` except to seal a segment
  /// at rotation. Serializing them keeps the fsyncgate rule: a second fsync
  /// racing a failed one could report success for pages the failure
  /// dropped, so each checks the poison and flushes with no other in flight.
  std::mutex fsync_mu_;

  /// Durability frontier, under its own lock so fsync waits never block
  /// appends.
  mutable std::mutex sync_mu_;
  std::condition_variable sync_cv_;
  uint64_t durable_lsn_ = 0;
  uint64_t appended_lsn_ = 0;
  /// First write/fsync failure, permanent (fsyncgate). OK while healthy.
  Status poison_ = Status::OK();
  bool stop_ = false;
  std::thread sync_thread_;
};

// --- Checkpoint manifest -------------------------------------------------
//
// Compaction folds sealed segments into a snapshot-v2 pair:
//   checkpoint-<lsn>.vzss  — the SVS store (io::SaveSvsStore)
//   checkpoint-<lsn>.meta  — everything replay needs that the store alone
//                            cannot reconstruct: per-camera ingestion-guard
//                            state (quarantine decisions diverge without
//                            it), global ingest counters, the clock, and
//                            the per-session dedup windows at the cut.
// The meta file is written after the snapshot; recovery uses the newest LSN
// for which BOTH files are valid, so a crash between the two writes falls
// back to the previous checkpoint (whose WAL segments still exist).

inline constexpr uint32_t kWalCheckpointMagic = 0x565A574D;  // "VZWM"
/// v3: admin tuning rides the manifest. Only v3 loads.
inline constexpr uint32_t kWalCheckpointVersion = 3;

/// The live index tuning: the manifest's tuning block and, with the same
/// bytes, the reply of the `kAdminTune` RPC (`net::AdminTuneReply`).
struct TuningSettings {
  uint32_t index_mode = 0;  // core::IndexMode value
  double boundary_scale = 1.0;
  double omd_alpha = 0.0;
  bool keyframe_selection = true;
  uint64_t inter_group_count = 0;    // 0 = auto (sqrt heuristic)
  uint64_t intra_cluster_count = 0;  // 0 = auto
};

template <typename A>
Status Visit(A& ar, TuningSettings& tuning) {
  return Fields(ar, tuning.index_mode, tuning.boundary_scale, tuning.omd_alpha,
                tuning.keyframe_selection, tuning.inter_group_count,
                tuning.intra_cluster_count);
}

struct WalCheckpoint {
  uint64_t lsn = 0;
  /// Promotion epoch at the cut — restored so a recovering server knows the
  /// newest epoch it ever served under even after compaction ate the log.
  uint64_t epoch = 0;
  int64_t now_ms = 0;
  core::IngestStats ingest;
  struct Camera {
    core::CameraId camera;
    core::CameraIngestStats stats;
    int64_t last_frame_id = -1;
    uint64_t expected_dim = 0;
  };
  /// Every camera *started* at the cut — the authority over pipeline
  /// existence (the snapshot auto-starts any camera with stored SVSs, which
  /// would silently resurrect terminated ones).
  std::vector<Camera> cameras;
  struct Session {
    uint64_t session_id = 0;
    uint64_t evicted_up_to = 0;
    std::vector<std::pair<uint64_t, std::string>> responses;  // seq -> bytes
  };
  std::vector<Session> sessions;
  /// The live `kAdminTune` settings at the cut. AdminTune is deliberately
  /// not WAL-logged, so without this a restart silently reverts operator
  /// tuning to construction-time options.
  using Tuning = TuningSettings;
  /// False when the writer captured no tuning (recovery keeps the
  /// constructed options then).
  bool has_tuning = false;
  Tuning tuning;
};

std::string WalCheckpointMetaPath(const std::string& dir, uint64_t lsn);
std::string WalCheckpointSnapshotPath(const std::string& dir, uint64_t lsn);

/// Atomic (tmp + fsync + rename), CRC-sealed. I/O through `env` (null: the
/// POSIX default), so disk failures carry the errno taxonomy.
Status SaveWalCheckpointMeta(const WalCheckpoint& checkpoint,
                             const std::string& path, Env* env = nullptr);
StatusOr<WalCheckpoint> LoadWalCheckpointMeta(const std::string& path,
                                              Env* env = nullptr);

/// LSNs of every `checkpoint-<lsn>.meta` in `dir`, ascending. (Validity is
/// the caller's problem — recovery probes from the newest down.)
StatusOr<std::vector<uint64_t>> ListWalCheckpointLsns(const std::string& dir,
                                                      Env* env = nullptr);

/// Removes both files of every checkpoint older than `keep_lsn`.
void RemoveWalCheckpointsBelow(const std::string& dir, uint64_t keep_lsn,
                               Env* env = nullptr);

}  // namespace vz::io

namespace vz::core {

/// The global ingest counters: the manifest's and the Monitor reply's.
template <typename A>
Status Visit(A& ar, IngestStats& stats) {
  return io::Fields(ar, stats.frames_offered, stats.keyframes_selected,
                    stats.features_extracted, stats.svs_created,
                    stats.raw_feature_bytes, stats.frames_rejected,
                    stats.out_of_order_dropped, stats.duplicates_dropped,
                    stats.objects_quarantined);
}

}  // namespace vz::core

#endif  // VZ_IO_WAL_H_
