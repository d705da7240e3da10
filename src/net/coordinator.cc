#include "net/coordinator.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <thread>
#include <utility>

#include "net/client.h"

namespace vz::net {

namespace {

/// True for statuses that mean the edge could not be talked to, as opposed
/// to an edge that answered with an error. Mirrors the client's reconnect
/// classification: `kInternal` is included because a refused connect (edge
/// dead or mid-restart) surfaces as such once the reconnect budget runs out.
/// RPC-level answers (kNotFound, kInvalidArgument...) never count against
/// shard health — the shard is alive and responding.
bool IsEdgeTransportFailure(StatusCode code) {
  return code == StatusCode::kUnavailable || code == StatusCode::kDataLoss ||
         code == StatusCode::kInternal;
}

/// Connect budget of every edge dial.
constexpr int64_t kEdgeConnectTimeoutMs = 2'000;

/// Reserved from a client deadline for the coordinator-side merge (see
/// `ShardConstraints`).
constexpr int64_t kMergeReserveMs = 20;

/// Sorts and dedups a merged `excluded_cameras` list so the answer does not
/// depend on which legs contributed exclusions in which order.
void CanonicalizeExcluded(std::vector<core::CameraId>* excluded) {
  std::sort(excluded->begin(), excluded->end());
  excluded->erase(std::unique(excluded->begin(), excluded->end()),
                  excluded->end());
}

}  // namespace

int64_t Coordinator::NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Coordinator::Coordinator(const CoordinatorOptions& options)
    : options_(options),
      registry_(options.edges, options.registry),
      edge_entries_(options.edges.size()),
      prune_scale_(options.boundary_scale),
      idle_clients_(options.edges.size()),
      push_clients_(options.edges.size()) {
  RegisterHandlers();
}

Coordinator::~Coordinator() { Shutdown(); }

Status Coordinator::Start() {
  if (started_) {
    return Status::FailedPrecondition("coordinator already started");
  }
  if (options_.edges.empty()) {
    return Status::InvalidArgument("a coordinator needs at least one edge");
  }
  // Idle eviction stays off (the Config default).
  RpcEndpoint::Config config;
  config.bind_address = options_.bind_address;
  config.port = options_.port;
  config.max_connections = options_.max_connections;
  config.shed_retry_after_ms = options_.shed_retry_after_ms;
  config.idle_poll_ms = options_.idle_poll_ms;
  config.read_timeout_ms = options_.read_timeout_ms;
  config.write_timeout_ms = options_.write_timeout_ms;
  VZ_RETURN_IF_ERROR(endpoint_.Start(config));
  stopping_.store(false);
  // Prime the registry and the representative lists before the first query
  // can arrive; edges that are down simply start their ladder early.
  (void)SyncPass(/*respect_backoff=*/false);
  if (options_.sync_interval_ms > 0) {
    sync_thread_ = std::thread([this] { SyncLoop(); });
  }
  started_ = true;
  return Status::OK();
}

void Coordinator::Shutdown() {
  if (!started_) return;
  stopping_.store(true);
  {
    std::lock_guard<std::mutex> lock(sync_mu_);
  }
  sync_cv_.notify_all();
  if (sync_thread_.joinable()) sync_thread_.join();
  // Every client connection closes here, and its close hook unsubscribes
  // the edge legs of its subscriptions.
  endpoint_.Shutdown();
  {
    // Closing a push connection joins its reader thread and voids the
    // edge's rep-push subscription.
    std::lock_guard<std::mutex> lock(push_mu_);
    push_clients_.assign(options_.edges.size(), nullptr);
  }
  {
    std::lock_guard<std::mutex> lock(pool_mu_);
    for (auto& pool : idle_clients_) pool.clear();
  }
  started_ = false;
}

std::vector<ShardHealthInfo> Coordinator::shard_health() const {
  return registry_.HealthTable(NowMs());
}

CoordinatorStats Coordinator::stats() const {
  CoordinatorStats stats;
  const RpcEndpoint::Stats front = endpoint_.stats();
  stats.connections_accepted = front.connections_accepted;
  stats.connections_shed = front.connections_shed;
  stats.connections_active = front.connections_active;
  stats.requests_served = front.requests_served;
  stats.request_errors = front.request_errors;
  stats.fanout_legs = fanout_legs_.load();
  stats.fanout_failures = fanout_failures_.load();
  stats.degraded_answers = degraded_answers_.load();
  stats.pruned_legs = pruned_legs_.load();
  stats.rep_sync_updates = rep_sync_updates_.load();
  stats.probes_sent = probes_sent_.load();
  {
    std::shared_lock<std::shared_mutex> lock(prune_mu_);
    for (const auto& entries : edge_entries_) {
      stats.rep_entries += entries.size();
    }
  }
  stats.subscriptions_active = engine_.stats().subscriptions_active;
  stats.subscriptions_total = subscriptions_total_.load();
  stats.pushes_forwarded = front.pushes_sent;
  stats.push_gaps_forwarded = front.push_gaps_sent;
  stats.rep_push_wakeups = rep_push_wakeups_.load();
  return stats;
}

// --- Client-facing handlers. ---

void Coordinator::RegisterHandlers() {
  for (MsgType type :
       {MsgType::kDirectQuery, MsgType::kClusteringQueryById,
        MsgType::kClusteringQueryByMap, MsgType::kGetMetaData,
        MsgType::kSvsFeatureMap, MsgType::kMonitorStats,
        MsgType::kCameraHealth, MsgType::kQueryLoadStats}) {
    endpoint_.Handle(type, [this, type](io::BinaryReader* reader,
                                        const RpcEndpoint::Call&,
                                        Status* failure) {
      return ExecuteRequest(type, reader, failure);
    });
  }
  // The coordinator holds no video state: ingest, camera lifecycle and
  // snapshots belong to the edges, and replication is edge-to-edge.
  for (MsgType type :
       {MsgType::kCameraStart, MsgType::kCameraTerminate,
        MsgType::kIngestFrame, MsgType::kIngestBatch, MsgType::kFlush,
        MsgType::kSnapshotSave, MsgType::kSnapshotLoad, MsgType::kWalShip,
        MsgType::kRepSync, MsgType::kCheckpointFetch}) {
    endpoint_.Handle(type, [](io::BinaryReader*, const RpcEndpoint::Call&,
                              Status* failure) {
      *failure = Status::FailedPrecondition(
          "coordinator is a read-only query plane: send mutating and "
          "replication RPCs to an edge server");
      return StatusOnlyResponse(*failure);
    });
  }
  // The one mutating RPC the coordinator forwards: index tuning is
  // fleet-wide operator state, so it fans out to every eligible shard.
  endpoint_.Handle(MsgType::kAdminTune,
                   [this](io::BinaryReader* reader, const RpcEndpoint::Call&,
                          Status* failure) {
                     return HandleAdminTune(reader, failure);
                   });
  endpoint_.Handle(MsgType::kSubscribe,
                   [this](io::BinaryReader* reader,
                          const RpcEndpoint::Call& call, Status* failure) {
                     return HandleSubscribe(call, reader, failure);
                   });
  endpoint_.Handle(MsgType::kUnsubscribe,
                   [this](io::BinaryReader* reader,
                          const RpcEndpoint::Call& call, Status* failure) {
                     return HandleUnsubscribe(call.conn_id, reader, failure);
                   });
  endpoint_.OnClose([this](uint64_t conn_id) {
    UnsubscribeLegs(engine_.DropConnection(conn_id));
  });
  endpoint_.ServePushes(&engine_);
}

std::string Coordinator::ExecuteRequest(MsgType type,
                                        io::BinaryReader* reader,
                                        Status* failure) {
  switch (type) {
    case MsgType::kDirectQuery:
      return HandleDirectQuery(reader, failure);
    case MsgType::kClusteringQueryById:
    case MsgType::kClusteringQueryByMap:
      return HandleClusteringQuery(type, reader, failure);
    case MsgType::kGetMetaData:
      return HandleGetMetaData(reader, failure);
    case MsgType::kSvsFeatureMap:
      return HandleSvsFeatureMap(reader, failure);
    case MsgType::kMonitorStats:
    case MsgType::kCameraHealth:
    case MsgType::kQueryLoadStats:
      if (!DecodeRequest<EmptyPayload>(reader, failure)) {
        return StatusOnlyResponse(*failure);
      }
      if (type == MsgType::kMonitorStats) return HandleMonitorStats();
      if (type == MsgType::kCameraHealth) return HandleCameraHealth();
      return HandleQueryLoadStats();
    default:
      break;
  }
  *failure = Status::Unimplemented(
      "unhandled message type " +
      std::to_string(static_cast<uint32_t>(type)));
  return StatusOnlyResponse(*failure);
}

// --- Standing-query fan-out. ---

std::string Coordinator::HandleSubscribe(const RpcEndpoint::Call& call,
                                         io::BinaryReader* reader,
                                         Status* failure) {
  auto spec = DecodeRequest<SubscribeRequest>(reader, failure);
  if (!spec) return StatusOnlyResponse(*failure);
  // Registered BEFORE any leg goes live, so the first edge push (which can
  // race this handler) already has a subscription to land in.
  const uint64_t id = engine_.Subscribe(call.conn_id, call.correlation, *spec);
  std::vector<EdgeLeg> legs;
  for (size_t i = 0; i < registry_.size(); ++i) {
    if (!registry_.Eligible(i)) continue;
    std::shared_ptr<Client> client = PushConnection(i);
    if (client == nullptr) {
      registry_.RecordFailure(i, NowMs());
      continue;
    }
    auto leg = client->Subscribe(
        *spec, [this, id, shard = i](const PushEvent& event) {
          // Runs on the push connection's reader thread: a non-blocking
          // enqueue (a no-op once the subscription is gone).
          PushEvent global = event;
          if (global.kind == PushKind::kMatch) {
            global.svs_id = GlobalSvsId(shard, event.svs_id);
          }
          (void)engine_.Forward(id, std::move(global));
        });
    if (!leg.ok()) {
      if (IsEdgeTransportFailure(leg.status().code())) {
        registry_.RecordFailure(i, NowMs());
        DropPushConnection(i, client);
      }
      continue;
    }
    registry_.RecordSuccess(i, NowMs());
    legs.push_back({i, *leg, client});
  }
  if (legs.empty()) {
    (void)engine_.Unsubscribe(call.conn_id, id);
    *failure = Status::Unavailable(
        "no eligible shard accepted the subscription");
    return StatusOnlyResponse(*failure);
  }
  {
    std::lock_guard<std::mutex> lock(push_mu_);
    legs_.emplace(id, std::move(legs));
  }
  subscriptions_total_.fetch_add(1);
  return OkResponse(id);
}

std::string Coordinator::HandleUnsubscribe(uint64_t conn_id,
                                           io::BinaryReader* reader,
                                           Status* failure) {
  auto id = DecodeRequest<uint64_t>(reader, failure);
  if (!id) return StatusOnlyResponse(*failure);
  // A connection may only cancel its own subscriptions.
  *failure = engine_.Unsubscribe(conn_id, *id);
  if (failure->ok()) UnsubscribeLegs({*id});
  return StatusOnlyResponse(*failure);
}

std::string Coordinator::HandleAdminTune(io::BinaryReader* reader,
                                         Status* failure) {
  // The client stamped an idempotency token (kAdminTune is mutating); the
  // coordinator keeps no dedup state of its own — each fan-out leg below
  // carries its own token, and the edges deduplicate those.
  auto token = io::DecodePrefix<IdempotencyToken>(reader);
  if (!token.ok()) {
    *failure = Status::InvalidArgument("malformed payload: " +
                                       token.status().message());
    return StatusOnlyResponse(*failure);
  }
  auto request = DecodeRequest<AdminTuneRequest>(reader, failure);
  if (!request) return StatusOnlyResponse(*failure);
  io::BinaryWriter leg_request;
  io::Encode(&leg_request, *request);
  auto legs = FanOut<AdminTuneReply>(EligibleSet(), MsgType::kAdminTune,
                                     leg_request.buffer());
  // Every shard gets the same knobs, so any echo serves; a shard that
  // refused (invalid knob) surfaces its error rather than being papered
  // over by a quieter sibling.
  const AdminTuneReply* echo = nullptr;
  Status first_error = Status::OK();
  for (const auto& leg : legs) {
    if (!leg.consulted) continue;
    if (leg.status.ok()) {
      if (echo == nullptr) echo = &leg.result;
    } else if (first_error.ok() &&
               !IsEdgeTransportFailure(leg.status.code())) {
      first_error = leg.status;
    }
  }
  if (!first_error.ok()) {
    *failure = first_error;
    return StatusOnlyResponse(*failure);
  }
  if (echo == nullptr) {
    *failure = Status::Unavailable("no eligible shard applied the tuning");
    return StatusOnlyResponse(*failure);
  }
  {
    // Pruning follows the edges: it hit-tests at their scale, and only
    // while every candidate an edge returns comes from a cluster whose
    // representative the edge ships.
    const auto mode = static_cast<core::IndexMode>(echo->index_mode);
    std::unique_lock<std::shared_mutex> lock(prune_mu_);
    prune_scale_ = echo->boundary_scale;
    prune_by_reps_ = mode == core::IndexMode::kHierarchical ||
                     mode == core::IndexMode::kIntraOnly;
  }
  return OkResponse(*echo);
}

void Coordinator::UnsubscribeLegs(const std::vector<uint64_t>& ids) {
  std::vector<EdgeLeg> legs;
  {
    std::lock_guard<std::mutex> lock(push_mu_);
    for (uint64_t id : ids) {
      auto it = legs_.find(id);
      if (it == legs_.end()) continue;
      legs.insert(legs.end(), it->second.begin(), it->second.end());
      legs_.erase(it);
    }
  }
  for (const EdgeLeg& leg : legs) {
    std::shared_ptr<Client> client = leg.connection.lock();
    if (client == nullptr) continue;
    const Status status = client->Unsubscribe(leg.id);
    if (IsEdgeTransportFailure(status.code())) {
      DropPushConnection(leg.edge, client);
    }
  }
}

std::shared_ptr<Client> Coordinator::PushConnection(size_t edge) {
  {
    std::lock_guard<std::mutex> lock(push_mu_);
    if (push_clients_[edge] != nullptr) return push_clients_[edge];
  }
  auto dialed = DialClient(edge, /*max_reconnects=*/0);
  if (!dialed.ok()) return nullptr;
  std::shared_ptr<Client> client = std::move(*dialed);
  // Rep-push: the edge's index advances wake the sync thread instead of
  // waiting out the interval.
  SubscribeRequest rep_push;
  rep_push.want_matches = false;
  rep_push.want_stats = true;
  auto subscribed = client->Subscribe(rep_push, [this](const PushEvent&) {
    rep_dirty_.store(true);
    sync_cv_.notify_all();
  });
  if (!subscribed.ok()) return nullptr;
  std::lock_guard<std::mutex> lock(push_mu_);
  // A racing caller that dialed first wins; this connection closes once
  // `client` goes out of scope, after the lock.
  if (push_clients_[edge] == nullptr) push_clients_[edge] = client;
  return push_clients_[edge];
}

void Coordinator::DropPushConnection(size_t edge,
                                     const std::shared_ptr<Client>& client) {
  std::lock_guard<std::mutex> lock(push_mu_);
  if (push_clients_[edge] == client) push_clients_[edge].reset();
}

// --- Edge connection pool. ---

std::unique_ptr<Client> Coordinator::TakeIdleClient(size_t edge) {
  std::lock_guard<std::mutex> lock(pool_mu_);
  if (idle_clients_[edge].empty()) return nullptr;
  std::unique_ptr<Client> client = std::move(idle_clients_[edge].back());
  idle_clients_[edge].pop_back();
  return client;
}

StatusOr<std::unique_ptr<Client>> Coordinator::DialClient(
    size_t edge, size_t max_reconnects) {
  const EdgeEndpoint endpoint = registry_.endpoint(edge);
  ClientOptions client_options;
  client_options.connect_timeout_ms = kEdgeConnectTimeoutMs;
  client_options.io_timeout_ms = options_.edge_io_timeout_ms;
  client_options.max_shed_retries = 1;
  client_options.max_reconnects = max_reconnects;
  auto connected = Client::Connect(endpoint.host, endpoint.port,
                                   client_options);
  VZ_RETURN_IF_ERROR(connected.status());
  return std::make_unique<Client>(std::move(*connected));
}

StatusOr<std::unique_ptr<Client>> Coordinator::CheckoutClient(size_t edge) {
  std::unique_ptr<Client> idle = TakeIdleClient(edge);
  if (idle != nullptr) return idle;
  return DialClient(edge);
}

void Coordinator::CheckinClient(size_t edge, std::unique_ptr<Client> client) {
  std::lock_guard<std::mutex> lock(pool_mu_);
  // Bound the pool to a handful per edge; extras just close.
  if (idle_clients_[edge].size() < 4) {
    idle_clients_[edge].push_back(std::move(client));
  }
}

bool Coordinator::SettleEdgeCall(size_t edge, const Status& status,
                                 std::unique_ptr<Client> client) {
  if (IsEdgeTransportFailure(status.code())) {
    registry_.RecordFailure(edge, NowMs());
    return true;  // the broken connection closes with `client`
  }
  // An RPC-level error still means the shard is alive and answering.
  registry_.RecordSuccess(edge, NowMs());
  CheckinClient(edge, std::move(client));
  return false;
}

// --- Fan-out plumbing. ---

core::QueryConstraints Coordinator::ShardConstraints(
    const core::QueryConstraints& constraints) const {
  core::QueryConstraints shard = constraints;
  shard.cancel = nullptr;  // does not travel
  if (shard.deadline_ms.has_value()) {
    shard.deadline_ms =
        std::max<int64_t>(1, *shard.deadline_ms - kMergeReserveMs);
  }
  return shard;
}

template <typename Result>
void Coordinator::SettleLeg(size_t edge, std::unique_ptr<Client> client,
                            StatusOr<std::string> reply, Leg<Result>* leg) {
  Status status = reply.status();
  if (status.ok()) {
    io::BinaryReader reader(std::move(*reply));
    StatusOr<Result> result = io::Decode<Result>(&reader);
    status = result.status();
    if (result.ok()) leg->result = std::move(*result);
  }
  leg->status = status;
  if (SettleEdgeCall(edge, status, std::move(client))) {
    fanout_failures_.fetch_add(1);
  }
}

template <typename Result>
std::vector<Coordinator::Leg<Result>> Coordinator::FanOut(
    const std::vector<bool>& consult, MsgType type,
    const std::string& payload) {
  const size_t n = registry_.size();
  std::vector<Leg<Result>> legs(n);
  // A leg that must dial (no idle pooled connection) or retry (stale
  // connection, shed) finishes through the blocking call path on a thread
  // of its own, so its dial or backoff never holds up another shard's.
  std::vector<std::thread> slow;
  auto finish_on_thread = [&](size_t i, std::unique_ptr<Client> client,
                              std::optional<Client::Pending> call) {
    slow.emplace_back([this, i, type, &payload, leg = &legs[i],
                       client = std::move(client),
                       call = std::move(call)]() mutable {
      if (client == nullptr) {
        auto dialed = DialClient(i);
        if (!dialed.ok()) {
          fanout_failures_.fetch_add(1);
          registry_.RecordFailure(i, NowMs());
          leg->status = dialed.status();
          return;
        }
        client = std::move(*dialed);
        call.emplace(client->Start(type, payload));
      }
      StatusOr<std::string> reply = client->Finish(*call);
      SettleLeg(i, std::move(client), std::move(reply), leg);
    });
  };
  // Start every leg that has a pooled connection from this thread...
  std::vector<std::unique_ptr<Client>> clients(n);
  std::vector<std::optional<Client::Pending>> calls(n);
  for (size_t i = 0; i < n; ++i) {
    if (!consult[i]) continue;
    legs[i].consulted = true;
    fanout_legs_.fetch_add(1);
    std::unique_ptr<Client> client = TakeIdleClient(i);
    if (client == nullptr) {
      finish_on_thread(i, nullptr, std::nullopt);
      continue;
    }
    Client::Pending call = client->Start(type, payload);
    if (client->Retryable(call)) {  // the send itself failed
      finish_on_thread(i, std::move(client), std::move(call));
      continue;
    }
    clients[i] = std::move(client);
    calls[i].emplace(std::move(call));
  }
  // ...then collect the replies in shard order. Each attempt's deadline
  // runs from its own send, so waiting on one leg never shortens another.
  for (size_t i = 0; i < n; ++i) {
    if (!calls[i].has_value()) continue;
    StatusOr<std::string> reply = clients[i]->Await(*calls[i]);
    if (!reply.ok() && clients[i]->Retryable(*calls[i])) {
      finish_on_thread(i, std::move(clients[i]), std::move(calls[i]));
      continue;
    }
    SettleLeg(i, std::move(clients[i]), std::move(reply), &legs[i]);
  }
  for (std::thread& thread : slow) thread.join();
  return legs;
}

std::vector<bool> Coordinator::EligibleSet() const {
  std::vector<bool> consult(registry_.size(), false);
  for (size_t i = 0; i < registry_.size(); ++i) {
    consult[i] = registry_.Eligible(i);
  }
  return consult;
}

std::vector<bool> Coordinator::DirectQueryConsultSet(
    const FeatureVector& feature) {
  std::vector<bool> consult = EligibleSet();
  if (!options_.prune_direct_fanout) return consult;
  std::shared_lock<std::shared_mutex> lock(prune_mu_);
  if (!prune_by_reps_) return consult;
  if (std::all_of(edge_entries_.begin(), edge_entries_.end(),
                  [](const auto& entries) { return entries.empty(); })) {
    return consult;  // nothing synced yet anywhere
  }
  // Shards with at least one representative passing the hit test stay in;
  // a synced shard with zero hits is pruned (its own edge index would
  // reject the same representatives). A never-synced shard must stay in:
  // there is nothing to prune with.
  for (size_t i = 0; i < consult.size(); ++i) {
    if (!consult[i]) continue;
    if (registry_.synced_version(i) == 0) continue;  // never synced
    const bool hit = std::any_of(
        edge_entries_[i].begin(), edge_entries_[i].end(),
        [&](const core::InterCameraIndex::RepEntry& entry) {
          return entry.rep.Hit(feature, prune_scale_);
        });
    if (!hit) {
      consult[i] = false;
      pruned_legs_.fetch_add(1);
    }
  }
  return consult;
}

void Coordinator::ExcludeShard(size_t edge,
                               const core::QueryConstraints& constraints,
                               bool* degraded,
                               std::vector<core::CameraId>* excluded) const {
  *degraded = true;
  for (core::CameraId& camera : registry_.CamerasOf(edge)) {
    if (constraints.AllowsCamera(camera)) {
      excluded->push_back(std::move(camera));
    }
  }
}

// --- Query handlers. ---

std::string Coordinator::HandleDirectQuery(io::BinaryReader* reader,
                                           Status* failure) {
  auto request = DecodeRequest<DirectQueryRequest>(reader, failure);
  if (!request) return StatusOnlyResponse(*failure);
  // The legs get the same query under the shard-adjusted constraints.
  const core::QueryConstraints constraints = std::move(request->constraints);
  request->constraints = ShardConstraints(constraints);
  io::BinaryWriter leg_request;
  io::Encode(&leg_request, *request);
  auto legs = FanOut<core::DirectQueryResult>(
      DirectQueryConsultSet(request->feature), MsgType::kDirectQuery,
      leg_request.buffer());

  // Merge strictly in shard-index order: the answer is a pure function of
  // the per-shard results, never of their completion order.
  core::DirectQueryResult merged;
  merged.completed_fraction = 0.0;
  size_t consulted = 0;
  double fraction_sum = 0.0;
  for (size_t i = 0; i < legs.size(); ++i) {
    if (!legs[i].consulted) {
      // Evicted shards degrade the answer (their cameras went unsearched);
      // pruned shards do not (no representative could have matched).
      if (registry_.Eligible(i)) continue;
      ExcludeShard(i, constraints, &merged.degraded,
                   &merged.excluded_cameras);
      continue;
    }
    ++consulted;
    if (!legs[i].status.ok()) {
      // Best-effort partial: the failed shard contributes nothing and zero
      // completed fraction, never an error.
      ExcludeShard(i, constraints, &merged.degraded,
                   &merged.excluded_cameras);
      continue;
    }
    const core::DirectQueryResult& leg = legs[i].result;
    for (core::SvsId id : leg.candidate_svss) {
      merged.candidate_svss.push_back(GlobalSvsId(i, id));
    }
    for (core::SvsId id : leg.matched_svss) {
      merged.matched_svss.push_back(GlobalSvsId(i, id));
    }
    merged.total_gpu_ms += leg.total_gpu_ms;
    merged.bottleneck_camera_gpu_ms = std::max(
        merged.bottleneck_camera_gpu_ms, leg.bottleneck_camera_gpu_ms);
    merged.per_camera_gpu_ms.insert(merged.per_camera_gpu_ms.end(),
                                    leg.per_camera_gpu_ms.begin(),
                                    leg.per_camera_gpu_ms.end());
    merged.frames_processed += leg.frames_processed;
    merged.cameras_searched += leg.cameras_searched;
    merged.degraded = merged.degraded || leg.degraded;
    merged.timed_out = merged.timed_out || leg.timed_out;
    merged.excluded_cameras.insert(merged.excluded_cameras.end(),
                                   leg.excluded_cameras.begin(),
                                   leg.excluded_cameras.end());
    fraction_sum += leg.completed_fraction;
  }
  merged.completed_fraction =
      consulted == 0 ? (merged.degraded ? 0.0 : 1.0)
                     : fraction_sum / static_cast<double>(consulted);
  CanonicalizeExcluded(&merged.excluded_cameras);
  if (merged.degraded) degraded_answers_.fetch_add(1);

  return OkResponse(merged);
}

std::string Coordinator::HandleClusteringQuery(MsgType type,
                                               io::BinaryReader* reader,
                                               Status* failure) {
  core::QueryConstraints constraints;
  FeatureMap target;
  bool target_shard_down = false;
  size_t owner = 0;
  if (type == MsgType::kClusteringQueryById) {
    auto request = DecodeRequest<ClusteringByIdRequest>(reader, failure);
    if (!request) return StatusOnlyResponse(*failure);
    const core::SvsId id = request->target;
    constraints = std::move(request->constraints);
    owner = ShardOfSvsId(id);
    if (owner >= registry_.size()) {
      *failure = Status::NotFound("SVS " + std::to_string(id) +
                                  " names shard " + std::to_string(owner) +
                                  " which does not exist");
      return StatusOnlyResponse(*failure);
    }
    // Resolve the target's feature map on its owning shard, then run the
    // same by-map query everywhere (the owner included) — which is also
    // exactly what a fault-free control does, so answers stay comparable.
    if (!registry_.Eligible(owner)) {
      target_shard_down = true;
    } else {
      auto checkout = CheckoutClient(owner);
      if (!checkout.ok()) {
        registry_.RecordFailure(owner, NowMs());
        target_shard_down = true;
      } else {
        std::unique_ptr<Client> client = std::move(*checkout);
        auto map = client->SvsFeatureMap(LocalSvsId(id));
        if (SettleEdgeCall(owner, map.status(), std::move(client))) {
          target_shard_down = true;
        } else if (!map.ok()) {
          // The shard answered: the id genuinely does not resolve.
          *failure = map.status();
          return StatusOnlyResponse(*failure);
        } else {
          target = std::move(*map);
        }
      }
    }
  } else {
    auto request = DecodeRequest<ClusteringByMapRequest>(reader, failure);
    if (!request) return StatusOnlyResponse(*failure);
    target = std::move(request->target);
    constraints = std::move(request->constraints);
  }

  core::ClusteringQueryResult merged;
  if (target_shard_down) {
    // The query target itself is unreachable: the best best-effort answer is
    // an empty, fully degraded partial — still not an error, matching the
    // stalled-camera contract.
    merged.degraded = true;
    merged.completed_fraction = 0.0;
    ExcludeShard(owner, constraints, &merged.degraded,
                 &merged.excluded_cameras);
    for (size_t i = 0; i < registry_.size(); ++i) {
      if (i != owner && !registry_.Eligible(i)) {
        ExcludeShard(i, constraints, &merged.degraded,
                     &merged.excluded_cameras);
      }
    }
    CanonicalizeExcluded(&merged.excluded_cameras);
    degraded_answers_.fetch_add(1);
    return OkResponse(merged);
  }

  const ClusteringByMapRequest leg{std::move(target),
                                   ShardConstraints(constraints)};
  io::BinaryWriter leg_request;
  io::Encode(&leg_request, leg);
  auto legs = FanOut<core::ClusteringQueryResult>(
      EligibleSet(), MsgType::kClusteringQueryByMap, leg_request.buffer());

  merged.completed_fraction = 0.0;
  size_t consulted = 0;
  double fraction_sum = 0.0;
  for (size_t i = 0; i < legs.size(); ++i) {
    if (!legs[i].consulted) {
      ExcludeShard(i, constraints, &merged.degraded,
                   &merged.excluded_cameras);
      continue;
    }
    ++consulted;
    if (!legs[i].status.ok()) {
      ExcludeShard(i, constraints, &merged.degraded,
                   &merged.excluded_cameras);
      continue;
    }
    const core::ClusteringQueryResult& leg = legs[i].result;
    for (core::SvsId id : leg.similar_svss) {
      merged.similar_svss.push_back(GlobalSvsId(i, id));
    }
    merged.cameras_contributing += leg.cameras_contributing;
    merged.degraded = merged.degraded || leg.degraded;
    merged.timed_out = merged.timed_out || leg.timed_out;
    merged.fast_omd_routed = merged.fast_omd_routed || leg.fast_omd_routed;
    merged.excluded_cameras.insert(merged.excluded_cameras.end(),
                                   leg.excluded_cameras.begin(),
                                   leg.excluded_cameras.end());
    fraction_sum += leg.completed_fraction;
  }
  merged.completed_fraction =
      consulted == 0 ? (merged.degraded ? 0.0 : 1.0)
                     : fraction_sum / static_cast<double>(consulted);
  CanonicalizeExcluded(&merged.excluded_cameras);
  if (merged.degraded) degraded_answers_.fetch_add(1);
  return OkResponse(merged);
}

std::string Coordinator::HandleGetMetaData(io::BinaryReader* reader,
                                           Status* failure) {
  auto id = DecodeRequest<core::SvsId>(reader, failure);
  if (!id) return StatusOnlyResponse(*failure);
  const size_t owner = ShardOfSvsId(*id);
  if (owner >= registry_.size()) {
    *failure = Status::NotFound("SVS " + std::to_string(*id) +
                                " names shard " + std::to_string(owner) +
                                " which does not exist");
    return StatusOnlyResponse(*failure);
  }
  if (!registry_.Eligible(owner)) {
    *failure = Status::Unavailable("shard " + std::to_string(owner) +
                                   " owning SVS " + std::to_string(*id) +
                                   " is unreachable");
    return StatusOnlyResponse(*failure);
  }
  auto checkout = CheckoutClient(owner);
  if (!checkout.ok()) {
    registry_.RecordFailure(owner, NowMs());
    *failure = checkout.status();
    return StatusOnlyResponse(*failure);
  }
  std::unique_ptr<Client> client = std::move(*checkout);
  auto meta = client->GetMetaData(LocalSvsId(*id));
  SettleEdgeCall(owner, meta.status(), std::move(client));
  if (!meta.ok()) {
    *failure = meta.status();
    return StatusOnlyResponse(*failure);
  }
  meta->id = *id;  // back to the global id space
  return OkResponse(*meta);
}

std::string Coordinator::HandleSvsFeatureMap(io::BinaryReader* reader,
                                             Status* failure) {
  auto id = DecodeRequest<core::SvsId>(reader, failure);
  if (!id) return StatusOnlyResponse(*failure);
  const size_t owner = ShardOfSvsId(*id);
  if (owner >= registry_.size() || !registry_.Eligible(owner)) {
    *failure = Status::Unavailable("shard " + std::to_string(owner) +
                                   " owning SVS " + std::to_string(*id) +
                                   " is unreachable");
    return StatusOnlyResponse(*failure);
  }
  auto checkout = CheckoutClient(owner);
  if (!checkout.ok()) {
    registry_.RecordFailure(owner, NowMs());
    *failure = checkout.status();
    return StatusOnlyResponse(*failure);
  }
  std::unique_ptr<Client> client = std::move(*checkout);
  auto map = client->SvsFeatureMap(LocalSvsId(*id));
  SettleEdgeCall(owner, map.status(), std::move(client));
  if (!map.ok()) {
    *failure = map.status();
    return StatusOnlyResponse(*failure);
  }
  return OkResponse(*map);
}

std::string Coordinator::HandleMonitorStats() {
  auto legs =
      FanOut<MonitorStatsReply>(EligibleSet(), MsgType::kMonitorStats, "");

  MonitorStatsReply merged;
  for (const auto& leg : legs) {
    if (!leg.consulted || !leg.status.ok()) continue;
    const MonitorStatsReply& edge = leg.result;
    merged.ingest.frames_offered += edge.ingest.frames_offered;
    merged.ingest.keyframes_selected += edge.ingest.keyframes_selected;
    merged.ingest.features_extracted += edge.ingest.features_extracted;
    merged.ingest.svs_created += edge.ingest.svs_created;
    merged.ingest.raw_feature_bytes += edge.ingest.raw_feature_bytes;
    merged.ingest.frames_rejected += edge.ingest.frames_rejected;
    merged.ingest.out_of_order_dropped += edge.ingest.out_of_order_dropped;
    merged.ingest.duplicates_dropped += edge.ingest.duplicates_dropped;
    merged.ingest.objects_quarantined += edge.ingest.objects_quarantined;
    merged.cache.hits += edge.cache.hits;
    merged.cache.misses += edge.cache.misses;
    merged.cache.insertions += edge.cache.insertions;
    merged.cache.invalidations += edge.cache.invalidations;
    merged.cache.rejected_inserts += edge.cache.rejected_inserts;
    merged.cache.entries += edge.cache.entries;
    merged.cache.capacity += edge.cache.capacity;
    merged.svs_count += edge.svs_count;
    merged.camera_count += edge.camera_count;
    merged.now_ms = std::max(merged.now_ms, edge.now_ms);
    // Disk health aggregates across shards: counters sum, the degraded
    // flags OR (one read-only edge is an operator problem no matter how
    // healthy the rest of the fleet looks).
    merged.serving.disk_io_errors += edge.serving.disk_io_errors;
    merged.serving.disk_fsync_failures += edge.serving.disk_fsync_failures;
    merged.serving.checkpoints_quarantined +=
        edge.serving.checkpoints_quarantined;
    merged.serving.disk_full =
        merged.serving.disk_full || edge.serving.disk_full;
    merged.serving.read_only =
        merged.serving.read_only || edge.serving.read_only;
  }
  // The serving counters describe the coordinator's own front end.
  const CoordinatorStats own = stats();
  const RpcEndpoint::Stats front = endpoint_.stats();
  merged.serving.connections_accepted = front.connections_accepted;
  merged.serving.connections_shed = front.connections_shed;
  merged.serving.connections_evicted_idle = front.connections_evicted_idle;
  merged.serving.connections_evicted_slow = front.connections_evicted_slow;
  merged.serving.pings_served = front.pings_served;
  merged.serving.connections = endpoint_.connections();
  merged.serving.shards = registry_.HealthTable(NowMs());
  merged.serving.subscriptions_active = own.subscriptions_active;
  merged.serving.subscriptions_total = own.subscriptions_total;
  merged.serving.pushes_sent = own.pushes_forwarded;
  merged.serving.push_gaps_sent = own.push_gaps_forwarded;
  return OkResponse(merged);
}

std::string Coordinator::HandleCameraHealth() {
  auto legs = FanOut<std::vector<CameraHealthEntry>>(
      EligibleSet(), MsgType::kCameraHealth, "");
  std::vector<CameraHealthEntry> merged;
  for (const auto& leg : legs) {
    if (!leg.consulted || !leg.status.ok()) continue;
    merged.insert(merged.end(), leg.result.begin(), leg.result.end());
  }
  return OkResponse(merged);
}

std::string Coordinator::HandleQueryLoadStats() {
  auto legs = FanOut<core::QueryLoadStats>(EligibleSet(),
                                           MsgType::kQueryLoadStats, "");
  core::QueryLoadStats merged;
  for (const auto& leg : legs) {
    if (!leg.consulted || !leg.status.ok()) continue;
    const core::QueryLoadStats& edge = leg.result;
    merged.in_flight += edge.in_flight;
    merged.waiting += edge.waiting;
    merged.admitted += edge.admitted;
    merged.shed += edge.shed;
    merged.timed_out += edge.timed_out;
    merged.fast_omd_routed += edge.fast_omd_routed;
    merged.timeout_overshoot_ms_total += edge.timeout_overshoot_ms_total;
    merged.max_in_flight += edge.max_in_flight;
    merged.max_queue += edge.max_queue;
    merged.omd_failures += edge.omd_failures;
  }
  return OkResponse(merged);
}

// --- Representative sync and probing. ---

size_t Coordinator::PollEdgesNow() { return SyncPass(false); }

void Coordinator::SyncLoop() {
  std::unique_lock<std::mutex> lock(sync_mu_);
  while (!stopping_.load()) {
    // Wake early when a rep-push reports an edge's index moved; the
    // interval remains as the fallback for edges without a push connection.
    sync_cv_.wait_for(lock,
                      std::chrono::milliseconds(options_.sync_interval_ms),
                      [this] { return stopping_.load() || rep_dirty_.load(); });
    if (stopping_.load()) return;
    if (rep_dirty_.exchange(false)) rep_push_wakeups_.fetch_add(1);
    lock.unlock();
    (void)SyncPass(/*respect_backoff=*/true);
    lock.lock();
  }
}

size_t Coordinator::SyncPass(bool respect_backoff) {
  // One pass at a time: the background thread and PollEdgesNow must not
  // interleave their registry updates and entry installs.
  std::lock_guard<std::mutex> pass_lock(pass_mu_);
  for (size_t i = 0; i < registry_.size(); ++i) {
    const int64_t now = NowMs();
    const bool probing = !registry_.Eligible(i);
    if (probing) {
      if (respect_backoff && !registry_.ProbeDue(i, now)) continue;
      probes_sent_.fetch_add(1);
    }
    auto checkout = CheckoutClient(i);
    if (!checkout.ok()) {
      registry_.RecordFailure(i, NowMs());
      continue;
    }
    std::unique_ptr<Client> client = std::move(*checkout);
    auto reply = client->RepSync(registry_.synced_version(i));
    if (!reply.ok()) {
      registry_.RecordFailure(i, NowMs());
      continue;
    }
    uint64_t entry_count = 0;
    if (reply->unchanged) {
      std::shared_lock<std::shared_mutex> lock(prune_mu_);
      entry_count = edge_entries_[i].size();
    } else {
      entry_count = reply->entries.size();
      std::unique_lock<std::shared_mutex> lock(prune_mu_);
      edge_entries_[i] = std::move(reply->entries);
      rep_sync_updates_.fetch_add(1);
    }
    registry_.RecordRepSync(i, reply->version, entry_count, NowMs());
    // Refresh the shard's camera inventory while the connection is warm —
    // this is what a degraded answer lists as excluded when the shard dies.
    auto report = client->CameraHealthReport();
    if (report.ok()) {
      std::vector<core::CameraId> cameras;
      cameras.reserve(report->size());
      for (CameraHealthEntry& entry : *report) {
        cameras.push_back(std::move(entry.camera));
      }
      registry_.RecordCameras(i, std::move(cameras));
    }
    CheckinClient(i, std::move(client));
    // The push connection carries the rep-push subscription and every
    // client leg on this edge. A dead one is detected by its failed ping
    // (its reconnect budget is zero, so the failure is honest) and
    // re-dialed; the legs it carried died with it.
    std::shared_ptr<Client> push = PushConnection(i);
    if (push != nullptr && !push->Ping().ok()) {
      DropPushConnection(i, push);
      (void)PushConnection(i);
    }
  }
  size_t eligible = 0;
  for (size_t i = 0; i < registry_.size(); ++i) {
    if (registry_.Eligible(i)) ++eligible;
  }
  return eligible;
}

}  // namespace vz::net
