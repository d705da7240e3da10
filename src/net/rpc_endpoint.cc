#include "net/rpc_endpoint.h"

#include <sys/socket.h>

#include <system_error>
#include <utility>

namespace vz::net {

namespace {

int64_t ElapsedMs(std::chrono::steady_clock::time_point since,
                  std::chrono::steady_clock::time_point now) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(now - since)
      .count();
}

constexpr uint32_t kConnectionErrorType =
    static_cast<uint32_t>(MsgType::kHello) | kResponseFlag;

/// Budget `Shutdown` grants in-flight requests before force-closing the
/// remaining sockets.
constexpr std::chrono::milliseconds kDrainTimeout{10'000};

}  // namespace

std::string StatusOnlyResponse(const Status& status, int64_t retry_after_ms) {
  io::BinaryWriter writer;
  EncodeWireStatus(&writer, {status, retry_after_ms});
  return writer.buffer();
}

/// One live connection. The serving loop owns the socket; `fd` stays open
/// until the connection has left the registry and `closed` is set, so the
/// force-close in `Stop` and every push write (which re-checks `closed`
/// under `write_mu`) only ever touch this connection's descriptor.
struct RpcEndpoint::Conn {
  uint64_t id = 0;
  int fd = -1;
  /// Serializes response and push writes. Never held while blocking on
  /// anything but the socket.
  std::mutex write_mu;
  bool closed = false;  // guarded by write_mu
  // Registry fields, guarded by the endpoint's mu_.
  SteadyClock::time_point connected_at;
  SteadyClock::time_point last_activity;
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  uint64_t rpcs = 0;
};

void RpcEndpoint::Handle(MsgType type, Handler handler) {
  handlers_[static_cast<uint32_t>(type)] = std::move(handler);
}

void RpcEndpoint::OnClose(std::function<void(uint64_t conn_id)> hook) {
  on_close_ = std::move(hook);
}

void RpcEndpoint::ServePushes(SubscriptionEngine* engine, int64_t poll_ms) {
  engine_ = engine;
  push_poll_ms_ = poll_ms > 0 ? poll_ms : 50;
}

Status RpcEndpoint::Start(const Config& config) {
  config_ = config;
  VZ_ASSIGN_OR_RETURN(listen_fd_,
                      TcpListen(config_.bind_address, config_.port));
  VZ_ASSIGN_OR_RETURN(port_, LocalPort(listen_fd_.get()));
  stopping_.store(false);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  if (engine_ != nullptr) {
    delivery_thread_ = std::thread([this] { DeliveryLoop(); });
  }
  return Status::OK();
}

void RpcEndpoint::Stop(bool drain) {
  if (!accept_thread_.joinable()) return;
  stopping_.store(true);
  // Wake the blocking accept; close happens after the thread exits so the
  // descriptor cannot be reused mid-accept.
  ::shutdown(listen_fd_.get(), SHUT_RDWR);
  accept_thread_.join();
  listen_fd_.Reset();
  // Draining loops notice the stop flag at their next idle poll and finish
  // the request they are serving first; whatever is still open after the
  // budget (or at once, without a drain) has its socket torn down.
  std::vector<std::future<void>> loops;
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (drain) {
      drained_cv_.wait_for(lock, kDrainTimeout,
                           [this] { return conns_.empty(); });
    }
    for (const auto& [id, conn] : conns_) ::shutdown(conn->fd, SHUT_RDWR);
    loops.swap(loops_);
  }
  for (std::future<void>& loop : loops) {
    if (loop.valid()) loop.wait();
  }
  if (delivery_thread_.joinable()) delivery_thread_.join();
}

RpcEndpoint::Stats RpcEndpoint::stats() const {
  Stats stats;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats.connections_active = conns_.size();
  }
  stats.connections_accepted = accepted_.load();
  stats.connections_shed = shed_.load();
  stats.requests_served = served_.load();
  stats.request_errors = errors_.load();
  stats.connections_evicted_idle = evicted_idle_.load();
  stats.connections_evicted_slow = evicted_slow_.load();
  stats.pings_served = pings_.load();
  stats.pushes_sent = pushes_.load();
  stats.push_gaps_sent = push_gaps_.load();
  return stats;
}

std::vector<ConnectionInfo> RpcEndpoint::connections() const {
  const auto now = SteadyClock::now();
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ConnectionInfo> infos;
  infos.reserve(conns_.size());
  for (const auto& [id, conn] : conns_) {
    infos.push_back({id, ElapsedMs(conn->connected_at, now),
                     ElapsedMs(conn->last_activity, now), conn->bytes_in,
                     conn->bytes_out, conn->rpcs});
  }
  return infos;
}

void RpcEndpoint::AcceptLoop() {
  while (!stopping_.load()) {
    auto accepted = TcpAccept(listen_fd_.get());
    // A failure is either the stop (re-checked above) or transient (an
    // EMFILE burst).
    if (!accepted.ok()) continue;
    UniqueFd fd = std::move(*accepted);
    (void)SetTcpNoDelay(fd.get());

    std::lock_guard<std::mutex> lock(mu_);
    accepted_.fetch_add(1);
    if (!stopping_.load() && conns_.size() < config_.max_connections) {
      auto conn = std::make_shared<Conn>();
      conn->id = ++next_conn_id_;
      conn->fd = fd.get();
      conn->connected_at = conn->last_activity = SteadyClock::now();
      // Finished loops leave ready futures behind; reap them while we hold
      // the lock anyway.
      std::erase_if(loops_, [](std::future<void>& f) {
        return !f.valid() ||
               f.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
      });
      const int raw = fd.Release();
      try {
        loops_.push_back(std::async(std::launch::async, [this, raw, conn] {
          Serve(UniqueFd(raw), conn);
        }));
        conns_.emplace(conn->id, conn);
        continue;
      } catch (const std::system_error&) {
        fd = UniqueFd(raw);  // no thread ever owned it; shed it below
      }
    }
    // Connection-level shedding: answer with the same wire status an
    // admission shed produces, so one client backoff path covers both.
    shed_.fetch_add(1);
    const Status shed = Status::ResourceExhausted(
        "server at connection capacity (" +
        std::to_string(config_.max_connections) + "); retry later");
    (void)WriteFrame(fd.get(), kConnectionErrorType, 0,
                     StatusOnlyResponse(shed, config_.shed_retry_after_ms),
                     WriteTimeout());
  }  // a shed fd closes here
}

void RpcEndpoint::Serve(UniqueFd fd, std::shared_ptr<Conn> conn) {
  bool hello_done = false;
  // The idle clock: any completed request (including kPing) resets it.
  auto last_request = SteadyClock::now();
  while (!stopping_.load()) {
    auto readable = WaitReadable(fd.get(), config_.idle_poll_ms);
    if (!readable.ok()) break;
    if (!*readable) {
      if (config_.idle_timeout_ms > 0 &&
          ElapsedMs(last_request, SteadyClock::now()) >
              config_.idle_timeout_ms + config_.eviction_grace_ms) {
        evicted_idle_.fetch_add(1);
        break;
      }
      continue;  // idle; re-check the stop flag
    }
    if (!ServeOne(conn.get(), &hello_done)) break;
    last_request = SteadyClock::now();
  }
  // Teardown BEFORE the socket closes: `closed` flips under `write_mu`, and
  // every push write re-checks it under the same lock.
  {
    std::lock_guard<std::mutex> write_lock(conn->write_mu);
    conn->closed = true;
  }
  if (on_close_) on_close_(conn->id);
  std::lock_guard<std::mutex> lock(mu_);
  conns_.erase(conn->id);
  if (conns_.empty()) drained_cv_.notify_all();
}

bool RpcEndpoint::ServeOne(Conn* conn, bool* hello_done) {
  // The caller saw the first byte, so the whole frame now has to arrive
  // within the read deadline — a sender trickling bytes is a slow client.
  auto request = ReadFrame(
      conn->fd, config_.read_timeout_ms > 0 ? config_.read_timeout_ms : -1);
  if (!request.ok()) {
    const StatusCode code = request.status().code();
    if (code == StatusCode::kUnavailable) {
      evicted_slow_.fetch_add(1);
      return false;  // no response: the peer is not keeping up anyway
    }
    // Clean disconnect between frames is the normal end of a connection;
    // everything else (torn frame, checksum mismatch, unknown type) gets a
    // best-effort error response before the close. The request's
    // correlation never arrived intact, so it rides correlation 0 — the
    // client treats that as connection-fatal.
    if (code != StatusCode::kNotFound) {
      errors_.fetch_add(1);
      (void)Write(conn, kConnectionErrorType, 0,
                  StatusOnlyResponse(request.status()));
    }
    return false;
  }
  const uint32_t response_type = request->type | kResponseFlag;
  if ((request->type & kResponseFlag) != 0 ||
      request->type == static_cast<uint32_t>(MsgType::kPushEvent)) {
    errors_.fetch_add(1);
    (void)Write(conn, response_type, request->correlation,
                StatusOnlyResponse(Status::InvalidArgument(
                    "response or push frame sent as request")));
    return false;
  }

  Status failure;
  const std::string response = Dispatch(
      *request, {conn->id, request->correlation}, hello_done, &failure);
  (failure.ok() ? served_ : errors_).fetch_add(1);
  {
    std::lock_guard<std::mutex> lock(mu_);
    conn->last_activity = SteadyClock::now();
    conn->bytes_in += WireFrameBytes(request->payload.size());
    conn->bytes_out += WireFrameBytes(response.size());
    if (failure.ok()) ++conn->rpcs;
  }
  if (Status s = Write(conn, response_type, request->correlation, response);
      !s.ok()) {
    // A reader that stopped draining its responses is as stuck as a writer
    // that stopped sending.
    if (s.code() == StatusCode::kUnavailable) evicted_slow_.fetch_add(1);
    return false;
  }
  // A protocol-ordering violation (RPC before Hello, bad version) closes the
  // connection after the error response; RPC-level failures (unknown
  // camera, shed query, refused RPC) keep it open.
  return *hello_done || failure.code() != StatusCode::kFailedPrecondition;
}

std::string RpcEndpoint::Dispatch(const WireFrame& request, const Call& call,
                                  bool* hello_done, Status* failure) {
  io::BinaryReader reader(request.payload);
  const auto type = static_cast<MsgType>(request.type);
  if (type == MsgType::kHello) {
    auto version = reader.ReadU32();
    if (!version.ok()) {
      *failure = Status::InvalidArgument("malformed payload: " +
                                         version.status().message());
      return StatusOnlyResponse(*failure);
    }
    if (*version == kProtocolVersion) {
      *hello_done = true;
    } else {
      *failure = Status::FailedPrecondition(
          "protocol version mismatch: client speaks v" +
          std::to_string(*version) + ", server speaks v" +
          std::to_string(kProtocolVersion));
    }
    // The reply reports the server's own version either way, so a
    // mismatched client can print a useful error.
    io::BinaryWriter writer;
    EncodeWireStatus(&writer, {*failure, 0});
    writer.WriteU32(kProtocolVersion);
    return writer.buffer();
  }
  if (!*hello_done) {
    *failure = Status::FailedPrecondition("first message must be Hello");
    return StatusOnlyResponse(*failure);
  }
  if (type == MsgType::kPing) {
    if (!DecodeRequest<EmptyPayload>(&reader, failure)) {
      return StatusOnlyResponse(*failure);
    }
    pings_.fetch_add(1);
    return StatusOnlyResponse(Status::OK());
  }
  auto it = handlers_.find(request.type);
  if (it == handlers_.end()) {
    *failure = Status::Unimplemented("unhandled message type " +
                                     std::to_string(request.type));
    return StatusOnlyResponse(*failure);
  }
  return it->second(&reader, call, failure);
}

Status RpcEndpoint::Write(Conn* conn, uint32_t type, uint64_t correlation,
                          const std::string& payload) {
  std::lock_guard<std::mutex> write_lock(conn->write_mu);
  return WriteFrame(conn->fd, type, correlation, payload, WriteTimeout());
}

void RpcEndpoint::DeliveryLoop() {
  while (!stopping_.load()) {
    if (!engine_->WaitForWork(push_poll_ms_)) continue;
    for (const uint64_t conn_id : engine_->ConnectionsWithPending()) {
      if (stopping_.load()) break;
      Push(conn_id);
    }
  }
}

void RpcEndpoint::Push(uint64_t conn_id) {
  std::shared_ptr<Conn> conn;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = conns_.find(conn_id);
    if (it == conns_.end()) return;  // mid-teardown; its hook reclaims
    conn = it->second;
  }
  {
    // Zero-timeout writability probe: a subscriber whose receive window is
    // full is skipped this round — backpressure lands on it alone, never on
    // ingest or on other connections.
    std::lock_guard<std::mutex> write_lock(conn->write_mu);
    if (conn->closed) return;
    auto writable = WaitWritable(conn->fd, 0);
    if (!writable.ok() || !*writable) return;
  }
  const std::vector<SubscriptionEngine::Delivery> deliveries =
      engine_->Drain(conn_id);
  if (deliveries.empty()) return;
  std::vector<std::string> frames;
  frames.reserve(deliveries.size());
  uint64_t bytes_out = 0;
  uint64_t gaps = 0;
  for (const SubscriptionEngine::Delivery& delivery : deliveries) {
    io::BinaryWriter writer;
    io::Encode(&writer, delivery.event);
    frames.push_back(EncodeFrame(static_cast<uint32_t>(MsgType::kPushEvent),
                                 delivery.correlation, writer.buffer()));
    bytes_out += frames.back().size();
    if (delivery.event.kind == PushKind::kGap) ++gaps;
  }
  Status written;
  {
    std::lock_guard<std::mutex> write_lock(conn->write_mu);
    if (conn->closed) return;  // drained events die with the connection
    // The probe said writable, so this normally completes without
    // blocking; a peer that stalls mid-frame still runs into the write
    // deadline and is evicted — never a torn frame.
    written = WriteEncodedFrames(conn->fd, frames, WriteTimeout());
    if (!written.ok()) ::shutdown(conn->fd, SHUT_RDWR);  // the loop tears down
  }
  if (!written.ok()) {
    if (written.code() == StatusCode::kUnavailable) evicted_slow_.fetch_add(1);
    return;
  }
  pushes_.fetch_add(deliveries.size());
  push_gaps_.fetch_add(gaps);
  std::lock_guard<std::mutex> lock(mu_);
  conn->last_activity = SteadyClock::now();
  conn->bytes_out += bytes_out;
}

}  // namespace vz::net
