#include "net/server.h"

#include <algorithm>
#include <chrono>
#include <set>
#include <thread>
#include <utility>

#include "io/env.h"
#include "io/svs_snapshot.h"
#include "net/client.h"

namespace vz::net {

namespace {

/// Records a standby fetches per WalShip request.
constexpr uint32_t kReplicationBatch = 256;

/// True for mutating RPCs whose request bytes go into the WAL. Exactly the
/// state-changing ones: SnapshotSave carries a token (retrying it is
/// ambiguous) but only reads state, so logging it would replay side-effect
/// writes to operator-chosen paths for nothing. AdminTune is operator state
/// (index mode, thresholds), not corpus state — replaying it would resurrect
/// a long-dead tuning decision on every recovery.
bool IsWalLoggedType(MsgType type) {
  return IsMutatingType(static_cast<uint32_t>(type)) &&
         type != MsgType::kSnapshotSave && type != MsgType::kAdminTune;
}

/// Writes `data` to `path` and fsyncs before returning — the re-seed path's
/// crash-safety hinges on the checkpoint pair being durable before the old
/// log is dropped. Routed through `env` so fault injection sees it.
Status WriteFileDurable(io::Env* env, const std::string& path,
                        const std::string& data) {
  VZ_ASSIGN_OR_RETURN(auto file, env->NewWritableFile(path, /*truncate=*/true));
  VZ_RETURN_IF_ERROR(file->Append(data));
  VZ_RETURN_IF_ERROR(file->Sync());
  return file->Close();
}

/// Deletes every `wal-*.vzwal` segment in `dir` (the re-seed path replaces
/// the whole mirrored log with a fetched checkpoint). The Wal must be closed.
Status RemoveWalSegments(io::Env* env, const std::string& dir) {
  VZ_ASSIGN_OR_RETURN(std::vector<std::string> names, env->ListDir(dir));
  for (const std::string& name : names) {
    if (name.rfind("wal-", 0) == 0 &&
        name.size() > 10 && name.substr(name.size() - 6) == ".vzwal") {
      (void)env->Unlink(dir + "/" + name);
    }
  }
  return Status::OK();
}

}  // namespace

Server::Server(core::VideoZilla* system, const ServerOptions& options)
    : system_(system),
      options_(options),
      engine_(SubscriptionEngine::Options{
          .queue_capacity = options.subscription_queue_capacity}) {
  env_ = options_.env != nullptr ? options_.env : io::Env::Default();
  RegisterHandlers();
}

Server::~Server() { Shutdown(); }

Status Server::Start() {
  if (started_) return Status::FailedPrecondition("server already started");
  standby_ = !options_.standby_of_host.empty();
  if (standby_ && options_.wal_dir.empty()) {
    return Status::InvalidArgument(
        "a standby needs its own wal_dir: it mirrors the primary's log and "
        "must survive its own crashes");
  }
  // The subscription engine taps segment finalization before recovery runs:
  // replayed segments fire the observer too, but with no subscribers yet the
  // calls are cheap no-ops.
  system_->SetSegmentObserver(
      [this](const core::Svs& svs) { engine_.OnSegment(svs); });

  if (!options_.wal_dir.empty()) {
    VZ_RETURN_IF_ERROR(RecoverFromWal());
  }

  stopping_.store(false);
  if (standby_) {
    // A standby serves nobody until promoted; it only tails the primary.
    promoted_.store(false);
    replication_stop_.store(false);
    replication_thread_ = std::thread([this] { ReplicationLoop(); });
    started_ = true;
    return Status::OK();
  }
  VZ_RETURN_IF_ERROR(StartListener());
  started_ = true;
  return Status::OK();
}

Status Server::StartListener() {
  // Push delivery lives exactly as long as the listener (a standby starts
  // it at promotion, with the listener).
  return endpoint_.Start(options_);
}

void Server::StopReplication() {
  replication_stop_.store(true);
  if (replication_thread_.joinable()) replication_thread_.join();
}

void Server::Shutdown() { Stop(/*drain=*/true); }

void Server::Kill() { Stop(/*drain=*/false); }

void Server::Stop(bool drain) {
  if (!started_) return;
  StopReplication();
  stopping_.store(true);
  // Wake sync-replication acks stuck waiting for a standby that will now
  // never catch up; they fail over to an error response before the close.
  {
    std::lock_guard<std::mutex> lock(ship_mu_);
  }
  ship_cv_.notify_all();
  // A drain lets every connection finish the request it is serving. Kill
  // tears the sockets down under the handlers instead, so in-flight
  // requests die with unsent responses — exactly the ambiguity the
  // idempotency tokens exist for. Only already-fsynced records (i.e.
  // everything acked) are guaranteed to survive.
  if (drain) {
    endpoint_.Shutdown();
  } else {
    endpoint_.Kill();
  }
  system_->SetSegmentObserver(nullptr);
  started_ = false;
}

Status Server::Promote() {
  if (!started_ || !standby_) {
    return Status::FailedPrecondition("only a running standby can promote");
  }
  if (promoted_.load()) {
    return Status::FailedPrecondition("standby already promoted");
  }
  StopReplication();
  // Everything tailed so far becomes this server's own durable history.
  VZ_RETURN_IF_ERROR(wal_->Sync());
  // Binding the (former) primary's port is the split-brain guard: as long
  // as the old primary still holds it, promotion fails instead of serving
  // two divergent histories.
  VZ_RETURN_IF_ERROR(StartListener());
  // The epoch bump happens only after the bind succeeded (a failed
  // promotion must not leave this standby fenced off from its primary),
  // and is made durable by a marker record so it survives restarts and
  // ships to anyone tailing us in turn.
  const uint64_t new_epoch = wal_epoch_.load() + 1;
  wal_epoch_.store(new_epoch);
  io::WalRecord marker;
  marker.op = io::kWalOpEpochMarker;
  marker.epoch = new_epoch;
  auto appended = wal_->Append(marker);
  VZ_RETURN_IF_ERROR(appended.status());
  VZ_RETURN_IF_ERROR(wal_->WaitDurable(*appended));
  promoted_.store(true);
  return Status::OK();
}

void Server::AdoptEpoch(uint64_t epoch) {
  uint64_t current = wal_epoch_.load();
  while (epoch > current &&
         !wal_epoch_.compare_exchange_weak(current, epoch)) {
  }
}

ServerRole Server::role() const {
  if (!standby_) return ServerRole::kPrimary;
  return promoted_.load() ? ServerRole::kPromoted : ServerRole::kStandby;
}

ServerStats Server::stats() const {
  std::shared_lock<std::shared_mutex> lock(state_mu_);
  return StatsLocked();
}

ServerStats Server::StatsLocked() const {
  ServerStats stats;
  const RpcEndpoint::Stats front = endpoint_.stats();
  stats.connections_accepted = front.connections_accepted;
  stats.connections_shed = front.connections_shed;
  stats.connections_active = front.connections_active;
  stats.requests_served = front.requests_served;
  stats.request_errors = front.request_errors;
  stats.connections_evicted_idle = front.connections_evicted_idle;
  stats.connections_evicted_slow = front.connections_evicted_slow;
  stats.pings_served = front.pings_served;
  stats.duplicates_replayed = duplicates_replayed_.load();
  stats.sessions_evicted = sessions_evicted_.load();
  {
    std::lock_guard<std::mutex> sessions_lock(sessions_mu_);
    stats.sessions_active = sessions_.size();
  }
  stats.role = role();
  if (wal_ != nullptr) {
    const io::WalStats wal_stats = wal_->stats();
    stats.wal_appends = wal_stats.appends;
    stats.wal_fsyncs = wal_stats.fsyncs;
    stats.wal_salvaged_bytes = wal_stats.salvaged_bytes;
    stats.wal_last_lsn = wal_stats.last_lsn;
    stats.wal_durable_lsn = wal_stats.durable_lsn;
    if (standby_ && !promoted_.load()) {
      const uint64_t primary = replication_primary_durable_.load();
      stats.replication_lag_records =
          primary > wal_stats.last_lsn ? primary - wal_stats.last_lsn : 0;
    }
  }
  stats.wal_replayed_records = wal_replayed_records_.load();
  stats.wal_checkpoints = wal_checkpoints_.load();
  stats.replication_errors = replication_errors_.load();
  stats.replication_reseeds = replication_reseeds_.load();
  stats.wal_epoch = wal_epoch_.load();
  const SubscriptionEngine::Stats subs = engine_.stats();
  stats.subscriptions_active = subs.subscriptions_active;
  stats.subscriptions_total = subs.subscriptions_total;
  stats.push_drops = subs.events_dropped;
  stats.pushes_sent = front.pushes_sent;
  stats.push_gaps_sent = front.push_gaps_sent;
  stats.ingest_batches = ingest_batches_.load();
  stats.disk_io_errors = disk_io_errors_.load();
  stats.disk_fsync_failures = disk_fsync_failures_.load();
  stats.checkpoints_quarantined = checkpoints_quarantined_.load();
  stats.disk_full = disk_full_.load();
  stats.read_only = read_only_.load();
  if (wal_ != nullptr) {
    // The WAL counts faults at the I/O layer; the server-side counters
    // cover everything else (checkpoint saves, operator snapshots). The
    // operator-facing numbers are the union.
    const io::WalStats wal_stats = wal_->stats();
    stats.disk_io_errors += wal_stats.io_errors;
    stats.disk_fsync_failures += wal_stats.fsync_failures;
  }
  return stats;
}

std::vector<ConnectionInfo> Server::connection_stats() const {
  return endpoint_.connections();
}

void Server::RegisterHandlers() {
  for (MsgType type :
       {MsgType::kDirectQuery, MsgType::kClusteringQueryById,
        MsgType::kClusteringQueryByMap, MsgType::kGetMetaData,
        MsgType::kMonitorStats, MsgType::kCameraHealth,
        MsgType::kQueryLoadStats, MsgType::kWalShip, MsgType::kRepSync,
        MsgType::kSvsFeatureMap, MsgType::kCheckpointFetch}) {
    endpoint_.Handle(type, [this, type](io::BinaryReader* reader,
                                        const RpcEndpoint::Call&,
                                        Status* failure) {
      return ExecuteRequest(type, reader, failure);
    });
  }
  for (MsgType type :
       {MsgType::kCameraStart, MsgType::kCameraTerminate,
        MsgType::kIngestFrame, MsgType::kIngestBatch, MsgType::kFlush,
        MsgType::kSnapshotSave, MsgType::kSnapshotLoad,
        MsgType::kAdminTune}) {
    endpoint_.Handle(type, [this, type](io::BinaryReader* reader,
                                        const RpcEndpoint::Call&,
                                        Status* failure) {
      auto token = io::DecodePrefix<IdempotencyToken>(reader);
      if (!token.ok()) {
        *failure = Status::InvalidArgument("malformed idempotency token: " +
                                           token.status().message());
        return StatusOnlyResponse(*failure);
      }
      std::string response = DispatchMutating(type, *token, reader, failure);
      // Wake stats subscriptions once the mutation is acked: the index
      // version may have advanced (the segment observer already handled
      // match subscriptions).
      if (failure->ok()) engine_.OnIndexVersion(system_->index_version());
      return response;
    });
  }
  // Subscription management is connection-scoped (no idempotency token: a
  // lost reply costs nothing — subscriptions die with the connection and
  // re-subscribing is cheap and exact).
  endpoint_.Handle(MsgType::kSubscribe, [this](io::BinaryReader* reader,
                                               const RpcEndpoint::Call& call,
                                               Status* failure) {
    auto spec = DecodeRequest<SubscribeRequest>(reader, failure);
    if (!spec) return StatusOnlyResponse(*failure);
    const uint64_t id =
        engine_.Subscribe(call.conn_id, call.correlation, std::move(*spec));
    return OkResponse(id);
  });
  endpoint_.Handle(MsgType::kUnsubscribe, [this](io::BinaryReader* reader,
                                                 const RpcEndpoint::Call& call,
                                                 Status* failure) {
    auto id = DecodeRequest<uint64_t>(reader, failure);
    if (!id) return StatusOnlyResponse(*failure);
    *failure = engine_.Unsubscribe(call.conn_id, *id);
    return StatusOnlyResponse(*failure);
  });
  endpoint_.OnClose(
      [this](uint64_t conn_id) { (void)engine_.DropConnection(conn_id); });
  endpoint_.ServePushes(&engine_, options_.push_poll_ms);
}

std::string Server::DispatchMutating(MsgType type,
                                     const IdempotencyToken& token,
                                     io::BinaryReader* reader,
                                     Status* failure) {
  std::shared_ptr<Session> session = GetSession(token.session_id);
  {
    std::unique_lock<std::mutex> lock(session->mu);
    for (;;) {
      auto it = session->done.find(token.sequence);
      if (it != session->done.end()) {
        // Exactly-once in action: the client re-sent after an ambiguous
        // transport failure; answer byte-identically without re-applying.
        duplicates_replayed_.fetch_add(1);
        const CachedResponse cached = it->second;
        lock.unlock();
        // The replayed ack honors the same durability contract the
        // original would have: its record may still be riding a group
        // commit. (lsn 0 = no WAL, or an entry rebuilt during recovery —
        // the log already holds it.)
        if (wal_ != nullptr && cached.lsn != 0) {
          if (Status durable = wal_->WaitDurable(cached.lsn);
              !durable.ok()) {
            // A replayed ack must meet the same bar as the original: if
            // the record's durability range is poisoned, the retry is
            // refused too (never acked off a retried fsync).
            RecordDiskFault(durable, /*from_fsync=*/true, /*counted=*/false);
            *failure = durable;
            return StatusOnlyResponse(*failure);
          }
          if (options_.sync_replication) {
            if (Status shipped = WaitShipped(cached.lsn); !shipped.ok()) {
              *failure = shipped;
              return StatusOnlyResponse(*failure);
            }
          }
        }
        return cached.bytes;
      }
      if (token.sequence <= session->evicted_up_to) {
        // Trimmed out of the window: replaying is impossible and
        // re-executing could double-apply, so refuse loudly.
        *failure = Status::FailedPrecondition(
            "duplicate sequence " + std::to_string(token.sequence) +
            " is older than the dedup window; exactly-once cannot be "
            "guaranteed");
        return StatusOnlyResponse(*failure);
      }
      if (session->executing.count(token.sequence) != 0) {
        // The original is still running (the client timed out and retried
        // over a new connection); wait for its response instead of racing.
        session->cv.wait(lock);
        continue;
      }
      break;  // fresh sequence
    }
    session->executing.insert(token.sequence);
  }

  if (read_only_.load(std::memory_order_acquire)) {
    // Degraded mode: the disk already failed us once, so no new write can
    // be made durable. Shed it with a retryable refusal (queries and
    // subscriptions keep serving; a promoted standby takes the writes).
    // The gate sits AFTER the dedup lookup on purpose — a retry of an
    // already-committed op still replays its cached ack, because that
    // record's durability predates the fault.
    *failure = Status::ResourceExhausted(
        "server is read-only after a disk fault; writes are shed until an "
        "operator intervenes or a standby takes over");
    const std::string response =
        StatusOnlyResponse(*failure, options_.shed_retry_after_ms);
    // Cache the refusal (lsn 0 = nothing to wait on) so a retry of this
    // sequence replays it instead of blocking on `executing`.
    CacheSessionResponse(session.get(), token.sequence, response, 0);
    return response;
  }

  // The log carries the verbatim post-token request bytes: replaying them
  // through the same dispatch regenerates byte-identical state AND a
  // byte-identical response, so recovery can rebuild the dedup window.
  const std::string body(reader->data().substr(reader->position()));

  uint64_t lsn = 0;
  std::string response;
  {
    std::unique_lock<std::shared_mutex> state_lock(state_mu_);
    response = ExecuteMutating(type, reader, failure);
    if (wal_ != nullptr && failure->ok() && IsWalLoggedType(type)) {
      io::WalRecord record;
      record.session_id = token.session_id;
      record.sequence = token.sequence;
      record.op = static_cast<uint32_t>(type);
      record.epoch = wal_epoch_.load();
      record.payload = body;
      auto appended = wal_->Append(record);
      if (!appended.ok()) {
        // Applied in memory but not loggable: acking would break the
        // zero-loss contract, so the client sees the append failure (and
        // its retry will be deduplicated against this cached error).
        RecordDiskFault(appended.status(), /*from_fsync=*/false,
                        /*counted=*/false);
        *failure = appended.status();
        response = StatusOnlyResponse(*failure);
      } else {
        lsn = *appended;
      }
    }
    // Cache INSIDE the state lock: a checkpoint capturing the dedup
    // windows holds this lock exclusively, so it can never miss an op it
    // already covers.
    CacheSessionResponse(session.get(), token.sequence, response, lsn);
    if (lsn != 0 && type == MsgType::kFlush &&
        options_.wal_compact_bytes > 0 &&
        wal_->live_bytes() >= options_.wal_compact_bytes) {
      // Flush is the natural checkpoint cut: segment state is sealed and
      // the log is at its least interesting.
      CheckpointLocked(lsn);
    }
  }

  // The durability wait happens OUTSIDE the state lock: queries and other
  // sessions proceed while this ack rides the group commit.
  if (lsn != 0) {
    if (Status durable = wal_->WaitDurable(lsn); !durable.ok()) {
      // The fsyncgate rule, observed from the commit path: the WAL has
      // permanently poisoned the un-synced range, so this op can never be
      // acked — refuse it and flip the server read-only.
      RecordDiskFault(durable, /*from_fsync=*/true, /*counted=*/false);
      *failure = durable;
      return StatusOnlyResponse(*failure);
    }
    if (options_.sync_replication) {
      if (Status shipped = WaitShipped(lsn); !shipped.ok()) {
        *failure = shipped;
        return StatusOnlyResponse(*failure);
      }
    }
  }
  return response;
}

void Server::CacheSessionResponse(Session* session, uint64_t sequence,
                                  const std::string& response, uint64_t lsn) {
  std::lock_guard<std::mutex> lock(session->mu);
  session->executing.erase(sequence);
  session->done[sequence] = {response, lsn};
  while (session->done.size() > options_.dedup_window) {
    auto oldest = session->done.begin();
    session->evicted_up_to = std::max(session->evicted_up_to, oldest->first);
    session->done.erase(oldest);
  }
  session->cv.notify_all();
}

void Server::RecordDiskFault(const Status& status, bool from_fsync,
                             bool counted) {
  if (counted) {
    if (from_fsync) {
      disk_fsync_failures_.fetch_add(1);
    } else {
      disk_io_errors_.fetch_add(1);
    }
  }
  if (status.code() == StatusCode::kResourceExhausted) {
    disk_full_.store(true, std::memory_order_release);
  }
  if (options_.read_only_on_disk_error) {
    // Latched, never cleared at runtime: the disk that failed once is not
    // trusted again. Reads keep serving; writes shed until failover (or an
    // operator restart against a healthy disk).
    read_only_.store(true, std::memory_order_release);
  }
}

Status Server::WaitShipped(uint64_t lsn) {
  std::unique_lock<std::mutex> lock(ship_mu_);
  ship_cv_.wait(lock,
                [&] { return stopping_.load() || shipped_acked_ >= lsn; });
  if (shipped_acked_ >= lsn) return Status::OK();
  return Status::Unavailable(
      "server stopping before a standby acknowledged lsn " +
      std::to_string(lsn));
}

std::shared_ptr<Server::Session> Server::GetSession(uint64_t id) {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  const uint64_t tick = ++session_tick_;
  auto it = sessions_.find(id);
  if (it != sessions_.end()) {
    it->second->last_used_tick = tick;
    return it->second;
  }
  auto session = std::make_shared<Session>();
  session->last_used_tick = tick;
  if (auto record = evicted_sessions_.find(id);
      record != evicted_sessions_.end()) {
    session->evicted_up_to = record->second.high_sequence;
    evicted_sessions_.erase(record);
  }
  const size_t max_sessions = std::max<size_t>(options_.max_sessions, 1);
  if (sessions_.size() >= max_sessions) {
    // LRU eviction: drop the session idle the longest. Its dedup window is
    // lost, but its highest sequence is recorded, so a late duplicate from
    // that client gets the loud kFailedPrecondition refusal rather than a
    // silent double-apply.
    auto lru = sessions_.begin();
    for (auto cand = sessions_.begin(); cand != sessions_.end(); ++cand) {
      if (cand->second->last_used_tick < lru->second->last_used_tick) {
        lru = cand;
      }
    }
    EvictedSession record{0, tick};
    {
      std::lock_guard<std::mutex> session_lock(lru->second->mu);
      const Session& evicted = *lru->second;
      record.high_sequence = evicted.evicted_up_to;
      if (!evicted.done.empty()) {
        record.high_sequence =
            std::max(record.high_sequence, evicted.done.rbegin()->first);
      }
      if (!evicted.executing.empty()) {
        record.high_sequence =
            std::max(record.high_sequence, *evicted.executing.rbegin());
      }
    }
    if (evicted_sessions_.size() >= max_sessions) {
      evicted_sessions_.erase(std::min_element(
          evicted_sessions_.begin(), evicted_sessions_.end(),
          [](const auto& a, const auto& b) {
            return a.second.evicted_tick < b.second.evicted_tick;
          }));
    }
    evicted_sessions_[lru->first] = record;
    sessions_.erase(lru);
    sessions_evicted_.fetch_add(1);
  }
  sessions_.emplace(id, session);
  return session;
}

std::string Server::ExecuteRequest(MsgType type, io::BinaryReader* reader,
                                   Status* failure) {
  const int64_t retry_after_ms =
      system_->options().admission.retry_after_hint_ms;
  // A query refused by the system (shed, timed out) carries the admission
  // gate's retry-after hint.
  auto answer = [&](const auto& result) {
    if (!result.ok()) {
      *failure = result.status();
      return StatusOnlyResponse(*failure, retry_after_ms);
    }
    return OkResponse(*result);
  };

  switch (type) {
    case MsgType::kDirectQuery: {
      auto request = DecodeRequest<DirectQueryRequest>(reader, failure);
      if (!request) return StatusOnlyResponse(*failure);
      std::shared_lock<std::shared_mutex> lock(state_mu_);
      return answer(
          system_->DirectQuery(request->feature, request->constraints));
    }
    case MsgType::kClusteringQueryById: {
      auto request = DecodeRequest<ClusteringByIdRequest>(reader, failure);
      if (!request) return StatusOnlyResponse(*failure);
      std::shared_lock<std::shared_mutex> lock(state_mu_);
      return answer(
          system_->ClusteringQuery(request->target, request->constraints));
    }
    case MsgType::kClusteringQueryByMap: {
      auto request = DecodeRequest<ClusteringByMapRequest>(reader, failure);
      if (!request) return StatusOnlyResponse(*failure);
      std::shared_lock<std::shared_mutex> lock(state_mu_);
      return answer(
          system_->ClusteringQuery(request->target, request->constraints));
    }
    case MsgType::kGetMetaData: {
      auto id = DecodeRequest<core::SvsId>(reader, failure);
      if (!id) return StatusOnlyResponse(*failure);
      std::shared_lock<std::shared_mutex> lock(state_mu_);
      auto meta = system_->GetMetaData(*id);
      if (!meta.ok()) {
        *failure = meta.status();
        return StatusOnlyResponse(*failure);
      }
      return OkResponse(*meta);
    }
    case MsgType::kMonitorStats: {
      if (!DecodeRequest<EmptyPayload>(reader, failure)) {
        return StatusOnlyResponse(*failure);
      }
      std::shared_lock<std::shared_mutex> lock(state_mu_);
      MonitorStatsReply stats;
      stats.ingest = system_->ingest_stats();
      stats.cache = system_->omd_cache().stats();
      stats.svs_count = system_->svs_store().size();
      stats.camera_count = system_->cameras().size();
      stats.now_ms = system_->now_ms();
      stats.serving = StatsLocked();
      stats.serving.connections = connection_stats();
      return OkResponse(stats);
    }
    case MsgType::kCameraHealth: {
      if (!DecodeRequest<EmptyPayload>(reader, failure)) {
        return StatusOnlyResponse(*failure);
      }
      std::shared_lock<std::shared_mutex> lock(state_mu_);
      std::vector<CameraHealthEntry> report;
      for (const auto& [camera, health] : system_->CameraHealthReport()) {
        report.push_back({camera, health});
      }
      return OkResponse(report);
    }
    case MsgType::kQueryLoadStats: {
      if (!DecodeRequest<EmptyPayload>(reader, failure)) {
        return StatusOnlyResponse(*failure);
      }
      std::shared_lock<std::shared_mutex> lock(state_mu_);
      return OkResponse(system_->query_load_stats());
    }
    case MsgType::kWalShip: {
      auto request = DecodeRequest<WalShipRequest>(reader, failure);
      if (!request) return StatusOnlyResponse(*failure);
      if (wal_ == nullptr) {
        *failure = Status::FailedPrecondition(
            "server runs without a WAL; nothing to ship");
        return StatusOnlyResponse(*failure);
      }
      // Fencing: a caller announcing a NEWER epoch proves a failover
      // happened that this server never saw — it has been demoted, and
      // advancing the ack (or shipping its stale history) would double-
      // apply records the new primary already owns. Refuse before touching
      // the ack frontier. Epoch 0 = the caller does not know yet; passes.
      const uint64_t server_epoch = wal_epoch_.load();
      if (request->epoch > server_epoch) {
        *failure = Status::FailedPrecondition(
            "fenced: caller is at promotion epoch " +
            std::to_string(request->epoch) + " but this server is at " +
            std::to_string(server_epoch) +
            " — it was demoted by a failover it never saw");
        return StatusOnlyResponse(*failure);
      }
      // The from LSN is a windowed ack: the caller has durably applied
      // everything at or below it. Release sync-replication waiters.
      {
        std::lock_guard<std::mutex> lock(ship_mu_);
        if (request->from_lsn > shipped_acked_) {
          shipped_acked_ = request->from_lsn;
          ship_cv_.notify_all();
        }
      }
      const uint64_t max_records = std::min<uint64_t>(
          request->max_records == 0 ? 1 : request->max_records, 4096);
      const int64_t wait_ms = std::min<uint32_t>(request->wait_ms, 10'000);
      // No state lock: shipping reads only the (internally synchronized)
      // log, so ingest proceeds while a standby tails.
      auto records = wal_->ReadFrom(request->from_lsn, max_records);
      if (records.ok() && records->empty() && wait_ms > 0 &&
          !stopping_.load()) {
        // Long poll: wait for new durable records instead of busy-polling.
        (void)wal_->WaitDurablePast(request->from_lsn, wait_ms);
        records = wal_->ReadFrom(request->from_lsn, max_records);
      }
      if (!records.ok()) {
        // kOutOfRange = the log was compacted past from_lsn: the standby
        // missed its window and must re-seed from a checkpoint.
        *failure = records.status();
        return StatusOnlyResponse(*failure);
      }
      WalShipReply reply;
      reply.durable_lsn = wal_->durable_lsn();
      reply.epoch = server_epoch;
      reply.records = std::move(*records);
      return OkResponse(reply);
    }
    case MsgType::kRepSync: {
      auto request = DecodeRequest<RepSyncRequest>(reader, failure);
      if (!request) return StatusOnlyResponse(*failure);
      std::shared_lock<std::shared_mutex> lock(state_mu_);
      RepSyncReply reply;
      reply.version = system_->index_version();
      // since_version 0 = the caller never synced: always ship, even when
      // this edge's version is still 0 (its entry set is empty anyway).
      if (request->since_version == reply.version && reply.version != 0) {
        reply.unchanged = true;
      } else {
        reply.entries = system_->inter_index().entries();
      }
      return OkResponse(reply);
    }
    case MsgType::kSvsFeatureMap: {
      auto id = DecodeRequest<core::SvsId>(reader, failure);
      if (!id) return StatusOnlyResponse(*failure);
      std::shared_lock<std::shared_mutex> lock(state_mu_);
      auto svs = system_->svs_store().Get(*id);
      if (!svs.ok()) {
        *failure = svs.status();
        return StatusOnlyResponse(*failure);
      }
      return OkResponse((*svs)->features());
    }
    case MsgType::kCheckpointFetch: {
      if (!DecodeRequest<EmptyPayload>(reader, failure)) {
        return StatusOnlyResponse(*failure);
      }
      if (wal_ == nullptr) {
        *failure = Status::FailedPrecondition(
            "server runs without a WAL; no checkpoints to fetch");
        return StatusOnlyResponse(*failure);
      }
      // The shared state lock excludes a concurrent CheckpointLocked (which
      // runs under the exclusive lock), so the pair we validate cannot be
      // replaced or pruned mid-read.
      std::shared_lock<std::shared_mutex> lock(state_mu_);
      auto lsns = io::ListWalCheckpointLsns(options_.wal_dir, env_);
      if (!lsns.ok()) {
        *failure = lsns.status();
        return StatusOnlyResponse(*failure);
      }
      for (auto it = lsns->rbegin(); it != lsns->rend(); ++it) {
        // Validate through the same loaders recovery uses: only a pair the
        // caller will actually be able to restore is worth shipping.
        const std::string meta_path =
            io::WalCheckpointMetaPath(options_.wal_dir, *it);
        const std::string snapshot_path =
            io::WalCheckpointSnapshotPath(options_.wal_dir, *it);
        auto meta = io::LoadWalCheckpointMeta(meta_path, env_);
        if (!meta.ok()) continue;
        core::SvsStore probe;
        if (!io::LoadSvsStore(snapshot_path, &probe, {}, nullptr, env_).ok()) {
          continue;
        }
        auto snapshot_bytes = env_->ReadFile(snapshot_path);
        if (!snapshot_bytes.ok()) continue;
        auto meta_bytes = env_->ReadFile(meta_path);
        if (!meta_bytes.ok()) continue;
        CheckpointFetchReply reply;
        reply.lsn = *it;
        reply.epoch = meta->epoch;
        reply.snapshot_bytes = std::move(*snapshot_bytes);
        reply.meta_bytes = std::move(*meta_bytes);
        return OkResponse(reply);
      }
      *failure = Status::NotFound("no valid checkpoint pair to fetch");
      return StatusOnlyResponse(*failure);
    }
    default:
      break;
  }
  *failure = Status::Unimplemented("unhandled message type " +
                                   std::to_string(static_cast<uint32_t>(type)));
  return StatusOnlyResponse(*failure);
}

std::string Server::ExecuteMutating(MsgType type, io::BinaryReader* reader,
                                    Status* failure) {
  switch (type) {
    case MsgType::kCameraStart: {
      auto camera = DecodeRequest<std::string>(reader, failure);
      if (!camera) return StatusOnlyResponse(*failure);
      *failure = system_->CameraStart(*camera);
      return StatusOnlyResponse(*failure);
    }
    case MsgType::kCameraTerminate: {
      auto camera = DecodeRequest<std::string>(reader, failure);
      if (!camera) return StatusOnlyResponse(*failure);
      *failure = system_->CameraTerminate(*camera);
      return StatusOnlyResponse(*failure);
    }
    case MsgType::kIngestFrame: {
      auto frame = DecodeRequest<core::FrameObservation>(reader, failure);
      if (!frame) return StatusOnlyResponse(*failure);
      *failure = system_->IngestFrame(*frame);
      return StatusOnlyResponse(*failure);
    }
    case MsgType::kIngestBatch: {
      // N frames per RPC, one token, one WAL record. The whole batch decodes
      // before any frame applies, so a malformed batch changes nothing.
      // Per-frame failures (unknown camera, stale frame id) reject that
      // frame and continue: the overall RPC succeeds with deterministic
      // accept/reject counts, so WAL replay regenerates byte-identical
      // state and response.
      auto batch = DecodeRequest<IngestBatchRequest>(reader, failure);
      if (!batch) return StatusOnlyResponse(*failure);
      IngestBatchReply result;
      for (const core::FrameObservation& frame : batch->frames) {
        if (system_->IngestFrame(frame).ok()) {
          ++result.accepted;
        } else {
          ++result.rejected;
        }
      }
      ingest_batches_.fetch_add(1);
      return OkResponse(result);
    }
    case MsgType::kAdminTune: {
      auto request = DecodeRequest<AdminTuneRequest>(reader, failure);
      if (!request) return StatusOnlyResponse(*failure);
      if (request->index_mode.has_value() &&
          *request->index_mode >
              static_cast<uint32_t>(core::IndexMode::kFlat)) {
        *failure = Status::InvalidArgument(
            "unknown index mode " + std::to_string(*request->index_mode));
        return StatusOnlyResponse(*failure);
      }
      if (request->boundary_scale.has_value() &&
          !(*request->boundary_scale > 0.0)) {
        *failure = Status::InvalidArgument("boundary scale must be > 0");
        return StatusOnlyResponse(*failure);
      }
      // Validation above, application below: a refused request changes
      // nothing (the knobs apply atomically as a set or not at all, except
      // for recluster failures, which report the partial apply loudly).
      if (request->index_mode.has_value()) {
        system_->SetIndexMode(
            static_cast<core::IndexMode>(*request->index_mode));
      }
      if (request->boundary_scale.has_value()) {
        system_->SetBoundaryScale(*request->boundary_scale);
      }
      if (request->omd_alpha.has_value()) {
        system_->SetOmdAlpha(*request->omd_alpha);  // clamped internally
      }
      if (request->keyframe_selection.has_value()) {
        system_->SetKeyframeSelection(*request->keyframe_selection);
      }
      if (request->inter_group_count.has_value()) {
        std::optional<size_t> k;  // wire 0 = auto (silhouette-chosen)
        if (*request->inter_group_count != 0) {
          k = static_cast<size_t>(*request->inter_group_count);
        }
        if (Status s = system_->SetInterGroupCount(k); !s.ok()) {
          *failure = s;
          return StatusOnlyResponse(*failure);
        }
      }
      if (request->intra_cluster_count.has_value()) {
        std::optional<size_t> k;
        if (*request->intra_cluster_count != 0) {
          k = static_cast<size_t>(*request->intra_cluster_count);
        }
        if (Status s = system_->SetIntraClusterCount(k); !s.ok()) {
          *failure = s;
          return StatusOnlyResponse(*failure);
        }
      }
      AdminTuneReply reply;
      reply.index_mode = static_cast<uint32_t>(system_->index_mode());
      reply.boundary_scale = system_->boundary_scale();
      reply.omd_alpha = system_->omd_alpha();
      reply.keyframe_selection = system_->keyframe_selection();
      reply.inter_group_count =
          system_->forced_inter_group_count().value_or(0);
      reply.intra_cluster_count =
          system_->forced_intra_cluster_count().value_or(0);
      return OkResponse(reply);
    }
    case MsgType::kFlush: {
      if (!DecodeRequest<EmptyPayload>(reader, failure)) {
        return StatusOnlyResponse(*failure);
      }
      *failure = system_->Flush();
      return StatusOnlyResponse(*failure);
    }
    case MsgType::kSnapshotSave: {
      auto path = DecodeRequest<std::string>(reader, failure);
      if (!path) return StatusOnlyResponse(*failure);
      *failure = io::SaveSvsStore(system_->svs_store(), *path, env_);
      if (!failure->ok() && (failure->code() == StatusCode::kDataLoss ||
                             failure->code() == StatusCode::kResourceExhausted)) {
        RecordDiskFault(*failure, /*from_fsync=*/false);
      }
      return StatusOnlyResponse(*failure);
    }
    case MsgType::kSnapshotLoad: {
      auto path = DecodeRequest<std::string>(reader, failure);
      if (!path) return StatusOnlyResponse(*failure);
      core::SvsStore loaded;
      *failure = io::LoadSvsStore(*path, &loaded, {}, nullptr, env_);
      if (failure->ok()) {
        *failure = system_->RestoreFromSvsStore(loaded);
      }
      io::BinaryWriter writer;
      EncodeWireStatus(&writer, {*failure, 0});
      writer.WriteU64(loaded.size());
      return writer.buffer();
    }
    default:
      break;
  }
  *failure = Status::Unimplemented(
      "not a mutating message type " +
      std::to_string(static_cast<uint32_t>(type)));
  return StatusOnlyResponse(*failure);
}

// --- Durability: recovery, checkpointing, replication. ---

Status Server::RestoreCheckpointState(const io::WalCheckpoint& checkpoint,
                                      const core::SvsStore& store) {
  VZ_RETURN_IF_ERROR(system_->RestoreFromSvsStore(store));
  // The manifest's camera list is the authority: RestoreFromSvsStore
  // auto-starts every camera that owns an SVS, resurrecting cameras that
  // were terminated after their last flush — terminate those again.
  std::set<core::CameraId> recorded;
  for (const io::WalCheckpoint::Camera& entry : checkpoint.cameras) {
    recorded.insert(entry.camera);
  }
  for (const core::CameraId& camera : system_->cameras()) {
    if (recorded.count(camera) == 0) {
      VZ_RETURN_IF_ERROR(system_->CameraTerminate(camera));
    }
  }
  std::set<core::CameraId> started;
  for (const core::CameraId& camera : system_->cameras()) {
    started.insert(camera);
  }
  for (const io::WalCheckpoint::Camera& entry : checkpoint.cameras) {
    if (started.count(entry.camera) == 0) {
      // Started but never flushed an SVS before the checkpoint.
      VZ_RETURN_IF_ERROR(system_->CameraStart(entry.camera));
    }
    core::CameraGuardState guard;
    guard.stats = entry.stats;
    guard.last_frame_id = entry.last_frame_id;
    guard.expected_dim = entry.expected_dim;
    VZ_RETURN_IF_ERROR(system_->RestoreCameraGuardState(entry.camera, guard));
  }
  system_->RestoreIngestStats(checkpoint.ingest);
  system_->AdvanceTime(checkpoint.now_ms);
  AdoptEpoch(checkpoint.epoch);
  if (checkpoint.has_tuning) {
    // AdminTune is deliberately not WAL-logged (replaying it would resurrect
    // long-dead operator decisions record by record); instead the *final*
    // tuning state rides the checkpoint manifest and is re-applied here, so
    // an operator's index-mode or threshold choice survives a restart.
    const io::WalCheckpoint::Tuning& tuning = checkpoint.tuning;
    if (tuning.index_mode > static_cast<uint32_t>(core::IndexMode::kFlat)) {
      return Status::DataLoss("checkpoint tuning has unknown index mode " +
                              std::to_string(tuning.index_mode));
    }
    system_->SetIndexMode(static_cast<core::IndexMode>(tuning.index_mode));
    system_->SetBoundaryScale(tuning.boundary_scale);
    system_->SetOmdAlpha(tuning.omd_alpha);
    system_->SetKeyframeSelection(tuning.keyframe_selection);
    VZ_RETURN_IF_ERROR(system_->SetInterGroupCount(
        tuning.inter_group_count == 0
            ? std::nullopt
            : std::optional<size_t>(tuning.inter_group_count)));
    VZ_RETURN_IF_ERROR(system_->SetIntraClusterCount(
        tuning.intra_cluster_count == 0
            ? std::nullopt
            : std::optional<size_t>(tuning.intra_cluster_count)));
  }
  // Rebuild the dedup windows: a duplicate retry that straddles the
  // crash must be replayed from here, not re-applied. LSN 0 = already
  // durable (the checkpoint holds it). Whatever sessions existed before
  // (the re-seed path replaces a live standby's state) are superseded by
  // the checkpoint's capture.
  std::lock_guard<std::mutex> sessions_lock(sessions_mu_);
  sessions_.clear();
  evicted_sessions_.clear();
  for (const io::WalCheckpoint::Session& entry : checkpoint.sessions) {
    auto session = std::make_shared<Session>();
    session->evicted_up_to = entry.evicted_up_to;
    for (const auto& [sequence, bytes] : entry.responses) {
      session->done[sequence] = {bytes, 0};
    }
    session->last_used_tick = ++session_tick_;
    sessions_[entry.session_id] = session;
  }
  return Status::OK();
}

Status Server::RecoverFromWal() {
  // Probe checkpoints newest-first: a crash between the snapshot and
  // manifest writes leaves a half-pair, which simply fails validation and
  // falls through to the previous complete one.
  uint64_t checkpoint_lsn = 0;
  if (auto lsns = io::ListWalCheckpointLsns(options_.wal_dir, env_);
      lsns.ok()) {
    for (auto it = lsns->rbegin(); it != lsns->rend(); ++it) {
      auto meta = io::LoadWalCheckpointMeta(
          io::WalCheckpointMetaPath(options_.wal_dir, *it), env_);
      if (!meta.ok()) {
        checkpoints_quarantined_.fetch_add(1);
        continue;
      }
      core::SvsStore store;
      if (!io::LoadSvsStore(io::WalCheckpointSnapshotPath(options_.wal_dir,
                                                          *it),
                            &store, {}, nullptr, env_)
               .ok()) {
        checkpoints_quarantined_.fetch_add(1);
        continue;
      }
      // The pair is fully valid; from here on, failures are terminal (a
      // half-restored system must not serve).
      VZ_RETURN_IF_ERROR(RestoreCheckpointState(*meta, store));
      checkpoint_lsn = *it;
      break;
    }
  }

  io::WalOptions wal_options;
  wal_options.dir = options_.wal_dir;
  wal_options.fsync_interval_ms = options_.wal_fsync_interval_ms;
  wal_options.segment_bytes = options_.wal_segment_bytes;
  wal_options.start_lsn = checkpoint_lsn;
  wal_options.env = env_;
  VZ_ASSIGN_OR_RETURN(wal_, io::Wal::Open(wal_options));

  if (wal_->base_lsn() > checkpoint_lsn &&
      wal_->last_lsn() > wal_->base_lsn()) {
    // The log was compacted past the newest restorable checkpoint (e.g.
    // its snapshot was damaged): records in (checkpoint_lsn, base] are
    // unrecoverable, so refuse to serve a silently holey history.
    return Status::DataLoss(
        "WAL starts at lsn " + std::to_string(wal_->base_lsn()) +
        " but the newest valid checkpoint covers only up to " +
        std::to_string(checkpoint_lsn));
  }

  in_recovery_ = true;
  Status replayed = wal_->Replay(
      checkpoint_lsn, [this](const io::WalRecord& record) {
        return ApplyWalRecord(record, /*from_replication=*/false);
      });
  in_recovery_ = false;
  return replayed;
}

Status Server::ApplyWalRecord(const io::WalRecord& record,
                              bool from_replication) {
  // Every record carries the epoch it was written under; the running
  // maximum is what fences a demoted primary even after its own restart.
  AdoptEpoch(record.epoch);
  if (record.op == io::kWalOpEpochMarker) {
    // A promotion marker changes no state — only the epoch above. It still
    // mirrors (or counts as replayed) so the LSN chain stays dense.
    if (from_replication) {
      auto appended = wal_->Append(record);
      VZ_RETURN_IF_ERROR(appended.status());
      if (*appended != record.lsn) {
        return Status::Internal("replication lsn skew: applied " +
                                std::to_string(record.lsn) + " as " +
                                std::to_string(*appended));
      }
    } else {
      wal_replayed_records_.fetch_add(1);
    }
    return Status::OK();
  }
  std::unique_lock<std::shared_mutex> state_lock(state_mu_);
  io::BinaryReader reader(record.payload);
  Status failure;
  const MsgType type = static_cast<MsgType>(record.op);
  const std::string response = ExecuteMutating(type, &reader, &failure);
  if (!failure.ok()) {
    // Only successful ops are logged, so a logged op must re-apply
    // cleanly; anything else is divergence, not a tolerable error.
    return Status(failure.code(),
                  "WAL replay diverged at lsn " + std::to_string(record.lsn) +
                      " (op " + std::to_string(record.op) +
                      "): " + failure.message());
  }
  uint64_t cached_lsn = 0;
  if (from_replication) {
    // Mirror under the primary's LSN so the standby's log IS the
    // primary's log (same numbering, same compaction arithmetic).
    io::WalRecord mirrored = record;
    auto appended = wal_->Append(mirrored);
    VZ_RETURN_IF_ERROR(appended.status());
    if (*appended != record.lsn) {
      return Status::Internal("replication lsn skew: applied " +
                              std::to_string(record.lsn) + " as " +
                              std::to_string(*appended));
    }
    cached_lsn = record.lsn;
  } else {
    wal_replayed_records_.fetch_add(1);
  }
  if (record.session_id != 0) {
    std::shared_ptr<Session> session = GetSession(record.session_id);
    CacheSessionResponse(session.get(), record.sequence, response,
                         cached_lsn);
  }
  if (from_replication && !in_recovery_ && type == MsgType::kFlush &&
      options_.wal_compact_bytes > 0 &&
      wal_->live_bytes() >= options_.wal_compact_bytes) {
    // The standby checkpoints on the same cadence as its primary.
    CheckpointLocked(record.lsn);
  }
  return Status::OK();
}

void Server::CheckpointLocked(uint64_t lsn) {
  io::WalCheckpoint checkpoint;
  checkpoint.lsn = lsn;
  checkpoint.epoch = wal_epoch_.load();
  checkpoint.now_ms = system_->now_ms();
  checkpoint.ingest = system_->ingest_stats();
  // Capture the operator's tuning so it survives recovery (AdminTune is not
  // WAL-logged; the final state rides the manifest instead).
  checkpoint.has_tuning = true;
  checkpoint.tuning.index_mode =
      static_cast<uint32_t>(system_->index_mode());
  checkpoint.tuning.boundary_scale = system_->boundary_scale();
  checkpoint.tuning.omd_alpha = system_->omd_alpha();
  checkpoint.tuning.keyframe_selection = system_->keyframe_selection();
  checkpoint.tuning.inter_group_count =
      system_->forced_inter_group_count().value_or(0);
  checkpoint.tuning.intra_cluster_count =
      system_->forced_intra_cluster_count().value_or(0);
  for (const core::CameraId& camera : system_->cameras()) {
    auto guard = system_->ExportCameraGuardState(camera);
    if (!guard.ok()) return;  // non-fatal: the WAL still covers everything
    io::WalCheckpoint::Camera entry;
    entry.camera = camera;
    entry.stats = guard->stats;
    entry.last_frame_id = guard->last_frame_id;
    entry.expected_dim = guard->expected_dim;
    checkpoint.cameras.push_back(std::move(entry));
  }
  {
    // state_mu_ (held by the caller) -> sessions_mu_ -> session->mu, the
    // same order DispatchMutating uses, so capture cannot deadlock or
    // miss an in-flight op.
    std::lock_guard<std::mutex> sessions_lock(sessions_mu_);
    for (const auto& [id, session] : sessions_) {
      std::lock_guard<std::mutex> session_lock(session->mu);
      io::WalCheckpoint::Session entry;
      entry.session_id = id;
      entry.evicted_up_to = session->evicted_up_to;
      for (const auto& [sequence, cached] : session->done) {
        entry.responses.emplace_back(sequence, cached.bytes);
      }
      checkpoint.sessions.push_back(std::move(entry));
    }
  }
  // Snapshot before manifest: recovery treats a checkpoint as valid only
  // when BOTH load, so a crash between the writes (or inside either) just
  // wastes the pair. Compaction comes last — the log is never shortened
  // before its replacement is fully durable.
  const std::string snapshot_path =
      io::WalCheckpointSnapshotPath(options_.wal_dir, lsn);
  if (Status saved = io::SaveSvsStore(system_->svs_store(), snapshot_path,
                                      env_);
      !saved.ok()) {
    // A checkpoint is an optimization over the (already durable) log, so a
    // failed save is survivable — but it is disk trouble, and it is what
    // flips the server read-only before the log itself starts failing.
    RecordDiskFault(saved, /*from_fsync=*/false);
    return;
  }
  if (Status saved = io::SaveWalCheckpointMeta(
          checkpoint, io::WalCheckpointMetaPath(options_.wal_dir, lsn), env_);
      !saved.ok()) {
    RecordDiskFault(saved, /*from_fsync=*/false);
    return;
  }
  if (!wal_->Compact(lsn).ok()) return;
  wal_checkpoints_.fetch_add(1);
  io::RemoveWalCheckpointsBelow(options_.wal_dir, lsn, env_);
}

void Server::ReplicationLoop() {
  std::unique_ptr<Client> client;
  while (!replication_stop_.load()) {
    if (client == nullptr) {
      ClientOptions client_options;
      // The long poll rides inside the I/O deadline.
      client_options.io_timeout_ms = options_.replication_poll_ms + 5'000;
      client_options.max_reconnects = 0;
      client_options.max_shed_retries = 0;
      auto connected =
          Client::Connect(options_.standby_of_host, options_.standby_of_port,
                          client_options);
      if (!connected.ok()) {
        replication_errors_.fetch_add(1);
        std::this_thread::sleep_for(
            std::chrono::milliseconds(options_.replication_poll_ms));
        continue;
      }
      client = std::make_unique<Client>(std::move(*connected));
    }
    // The applied frontier doubles as the windowed ack.
    const uint64_t applied = wal_->last_lsn();
    auto reply = client->WalShip(
        applied, kReplicationBatch,
        static_cast<uint32_t>(options_.replication_poll_ms),
        wal_epoch_.load());
    if (!reply.ok()) {
      if (reply.status().code() == StatusCode::kFailedPrecondition) {
        // Fenced: the server we are tailing is at an older epoch than we
        // are — a demoted primary that woke up after a failover we
        // already know about. Not retryable; tailing it would re-apply
        // history the new primary owns.
        replication_errors_.fetch_add(1);
        return;
      }
      if (reply.status().code() == StatusCode::kOutOfRange) {
        // Compaction outran our cursor: the records we need were folded
        // into a checkpoint. Fetch it and resume tailing from its LSN
        // instead of terminating replication.
        if (Status reseeded = ReseedFromPrimary(client.get());
            !reseeded.ok()) {
          replication_errors_.fetch_add(1);
          client.reset();
          std::this_thread::sleep_for(
              std::chrono::milliseconds(options_.replication_poll_ms));
        }
        continue;
      }
      // Dead or restarting primary: drop the connection and retry; the
      // next WalShip re-asks from the same applied frontier, so nothing
      // is skipped or doubled.
      replication_errors_.fetch_add(1);
      client.reset();
      std::this_thread::sleep_for(
          std::chrono::milliseconds(options_.replication_poll_ms));
      continue;
    }
    AdoptEpoch(reply->epoch);
    replication_primary_durable_.store(reply->durable_lsn);
    bool advanced = false;
    Status apply_status;
    for (const io::WalRecord& record : reply->records) {
      if (record.lsn <= wal_->last_lsn()) continue;  // already mirrored
      apply_status = ApplyWalRecord(record, /*from_replication=*/true);
      if (!apply_status.ok()) break;
      advanced = true;
    }
    if (!apply_status.ok()) {
      // Divergence is not retryable; stop tailing so the lag gauge (and
      // the error counter) make the operator look.
      replication_errors_.fetch_add(1);
      return;
    }
    if (advanced) {
      // Group-commit the batch before the next WalShip acks it upstream:
      // the ack promises durable application.
      if (!wal_->Sync().ok()) {
        replication_errors_.fetch_add(1);
        return;
      }
    }
  }
}

Status Server::ReseedFromPrimary(Client* client) {
  auto fetched = client->CheckpointFetch();
  VZ_RETURN_IF_ERROR(fetched.status());
  // The pair lands in our own wal_dir FIRST, fully durable, before any
  // local state is touched: a crash anywhere past this point recovers from
  // the fetched checkpoint through the normal path (recovery validates
  // pairs, so a torn write just falls back to tailing state — which will
  // hit kOutOfRange and re-seed again).
  const std::string snapshot_path =
      io::WalCheckpointSnapshotPath(options_.wal_dir, fetched->lsn);
  const std::string meta_path =
      io::WalCheckpointMetaPath(options_.wal_dir, fetched->lsn);
  VZ_RETURN_IF_ERROR(
      WriteFileDurable(env_, snapshot_path, fetched->snapshot_bytes));
  VZ_RETURN_IF_ERROR(WriteFileDurable(env_, meta_path, fetched->meta_bytes));
  // Validate through the same loaders recovery uses before dropping
  // anything local.
  auto checkpoint = io::LoadWalCheckpointMeta(meta_path, env_);
  VZ_RETURN_IF_ERROR(checkpoint.status());
  core::SvsStore store;
  VZ_RETURN_IF_ERROR(io::LoadSvsStore(snapshot_path, &store, {}, nullptr,
                                      env_));

  std::unique_lock<std::shared_mutex> state_lock(state_mu_);
  // Reset rewinds every seeded random stream, so the derived indexes
  // rebuilt from the fetched store are bit-identical to the primary's own
  // recovery of the same checkpoint.
  VZ_RETURN_IF_ERROR(system_->Reset());
  VZ_RETURN_IF_ERROR(RestoreCheckpointState(*checkpoint, store));
  // Replace the mirrored log wholesale: everything at or below the
  // checkpoint's LSN is covered by it, and everything above will be
  // re-tailed from the primary starting at the checkpoint cut.
  wal_.reset();
  VZ_RETURN_IF_ERROR(RemoveWalSegments(env_, options_.wal_dir));
  io::WalOptions wal_options;
  wal_options.dir = options_.wal_dir;
  wal_options.fsync_interval_ms = options_.wal_fsync_interval_ms;
  wal_options.segment_bytes = options_.wal_segment_bytes;
  wal_options.start_lsn = checkpoint->lsn;
  wal_options.env = env_;
  VZ_ASSIGN_OR_RETURN(wal_, io::Wal::Open(wal_options));
  io::RemoveWalCheckpointsBelow(options_.wal_dir, checkpoint->lsn, env_);
  replication_reseeds_.fetch_add(1);
  return Status::OK();
}

}  // namespace vz::net
