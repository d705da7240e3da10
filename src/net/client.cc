#include "net/client.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#include <unordered_map>

namespace vz::net {

namespace {

uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Process-unique session id: a counter mixed with the clock and pid.
/// Uniqueness across client instances is what matters (two clients sharing
/// a session id would share a dedup window); determinism is not — tests pin
/// `ClientOptions::session_id` instead.
uint64_t GenerateSessionId() {
  static std::atomic<uint64_t> counter{0};
  const uint64_t nonce = counter.fetch_add(1) + 1;
  const uint64_t now = static_cast<uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
  const uint64_t pid = static_cast<uint64_t>(::getpid());
  const uint64_t id = SplitMix64(now ^ (pid << 32) ^ (nonce * 0x9E3779B9ULL));
  return id == 0 ? 1 : id;  // 0 is reserved as "no token"
}

/// True for status codes that mean "the connection is unusable but the
/// server may well be fine": worth a reconnect. `kInternal` is included
/// because a refused connect (server mid-restart) surfaces as such.
bool IsTransportFailure(StatusCode code) {
  return code == StatusCode::kUnavailable || code == StatusCode::kDataLoss ||
         code == StatusCode::kNotFound || code == StatusCode::kInternal;
}

}  // namespace

int64_t BackoffDelayMs(const ClientOptions& options, int64_t hint_ms,
                       size_t attempt, Rng* rng) {
  int64_t base = hint_ms > 0 ? hint_ms : options.backoff_floor_ms;
  if (base <= 0) base = 1;
  int64_t delay = base;
  for (size_t i = 0; i < attempt && delay < options.backoff_cap_ms; ++i) {
    delay *= 2;
  }
  delay = std::min(delay, options.backoff_cap_ms);
  // Subtractive jitter: uniform in [delay * (1 - jitter), delay]. Shrinking
  // only (never growing) keeps the cap an honest upper bound.
  if (rng != nullptr && options.backoff_jitter > 0 && delay > 0) {
    const double jitter = std::min(1.0, options.backoff_jitter);
    const int64_t jittered = static_cast<int64_t>(
        static_cast<double>(delay) * (1.0 - jitter * rng->UniformDouble()));
    delay = std::max<int64_t>(1, jittered);
  }
  return delay;
}

struct Client::ReplySlot {
  bool done = false;
  uint32_t type = 0;
  std::string payload;
};

struct Client::ConnCore {
  UniqueFd fd;
  int64_t io_timeout_ms = -1;
  /// Serializes frame writes (requests from concurrent callers).
  std::mutex write_mu;
  /// Guards everything below.
  std::mutex mu;
  std::condition_variable cv;
  /// Terminal stream status once non-OK: the reader exited and every
  /// current and future call on this connection fails with it.
  Status broken = Status::OK();
  uint64_t next_correlation = 1;
  std::unordered_map<uint64_t, std::shared_ptr<ReplySlot>> pending;
  /// Correlation id of a Subscribe RPC -> its push callback.
  std::unordered_map<uint64_t, PushCallback> push_callbacks;
  /// Subscription id -> owning correlation, for Unsubscribe cleanup.
  std::unordered_map<uint64_t, uint64_t> subscription_corr;
  std::thread reader;

  ~ConnCore() {
    // Normal teardown joins via Client::DropConn; this is the backstop for
    // a core torn down by destruction order (e.g. Connect failing late).
    if (reader.joinable()) {
      if (fd.valid()) ::shutdown(fd.get(), SHUT_RDWR);
      reader.join();
    }
  }
};

struct Client::Shared {
  /// Guards stats, the token sequence, the jitter stream, and the client's
  /// `core_` pointer swap.
  std::mutex mu;
  /// Serializes handshakes among concurrent callers, so one dropped
  /// connection produces one reconnect, not a thundering herd of them.
  std::mutex reconnect_mu;
  uint64_t next_sequence = 1;
  int64_t last_shed_hint_ms = 0;
  ClientCallStats stats;
  Rng rng;

  explicit Shared(uint64_t seed) : rng(seed) {}
};

Client::Client(std::string host, uint16_t port, const ClientOptions& options)
    : host_(std::move(host)),
      port_(port),
      options_(options),
      session_id_(options.session_id != 0 ? options.session_id
                                          : GenerateSessionId()),
      shared_(std::make_unique<Shared>(options.backoff_seed != 0
                                           ? options.backoff_seed
                                           : SplitMix64(session_id_))) {}

Client::~Client() {
  if (shared_ != nullptr) Close();
}

// Out of line so `Shared`/`ConnCore` are complete where these instantiate.
Client::Client(Client&&) noexcept = default;
Client& Client::operator=(Client&&) noexcept = default;

void Client::Close() { DropConn(conn()); }

std::shared_ptr<Client::ConnCore> Client::conn() const {
  std::lock_guard<std::mutex> lock(shared_->mu);
  return core_;
}

void Client::DropConn(const std::shared_ptr<ConnCore>& core) {
  if (core == nullptr) return;
  std::shared_ptr<ConnCore> victim;
  {
    std::lock_guard<std::mutex> lock(shared_->mu);
    if (core_ == core) victim = std::move(core_);
  }
  if (victim == nullptr) return;  // a racing caller already dropped it
  // Shut the socket down first: that wakes a reader blocked in recv, which
  // then fails all pending calls and exits, making the join below bounded.
  if (victim->fd.valid()) ::shutdown(victim->fd.get(), SHUT_RDWR);
  if (victim->reader.joinable()) victim->reader.join();
}

ClientCallStats Client::call_stats() const {
  std::lock_guard<std::mutex> lock(shared_->mu);
  return shared_->stats;
}

void Client::SleepBackoff(int64_t hint_ms, size_t attempt) {
  int64_t delay = 0;
  {
    std::lock_guard<std::mutex> lock(shared_->mu);
    delay = BackoffDelayMs(options_, hint_ms, attempt, &shared_->rng);
    shared_->stats.backoff_ms_total += delay;
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(delay));
}

StatusOr<Client> Client::Connect(const std::string& host, uint16_t port,
                                 const ClientOptions& options) {
  Client client(host, port, options);
  size_t shed_attempt = 0;
  size_t reconnects_used = 0;
  for (;;) {
    Status status = client.Handshake();
    if (status.ok()) return client;
    // A connection-level shed (server at capacity) is retryable exactly like
    // a shed query; a transport failure (flaky link, server mid-restart)
    // consumes the same per-call reconnect budget `Call` uses. Everything
    // else is final.
    if (status.code() == StatusCode::kResourceExhausted) {
      if (shed_attempt >= options.max_shed_retries) return status;
      int64_t hint = 0;
      {
        std::lock_guard<std::mutex> lock(client.shared_->mu);
        client.shared_->stats.shed_retries++;
        hint = client.shared_->last_shed_hint_ms;
      }
      client.SleepBackoff(hint, shed_attempt++);
      continue;
    }
    if (IsTransportFailure(status.code())) {
      {
        std::lock_guard<std::mutex> lock(client.shared_->mu);
        client.shared_->stats.transport_failures++;
      }
      if (reconnects_used >= options.max_reconnects) return status;
      client.SleepBackoff(0, reconnects_used++);
      continue;
    }
    return status;
  }
}

Status Client::Handshake() {
  const int64_t io_timeout =
      options_.io_timeout_ms > 0 ? options_.io_timeout_ms : -1;
  auto connected = TcpConnect(host_, port_, options_.connect_timeout_ms);
  if (!connected.ok()) return connected.status();
  auto core = std::make_shared<ConnCore>();
  core->fd = std::move(*connected);
  core->io_timeout_ms = io_timeout;
  // The Hello rides correlation 0, like every connection-level frame; calls
  // number from 1.
  io::BinaryWriter hello;
  hello.WriteU32(kProtocolVersion);
  if (Status s = WriteFrame(core->fd.get(),
                            static_cast<uint32_t>(MsgType::kHello), 0,
                            hello.buffer(), io_timeout);
      !s.ok()) {
    return s;
  }
  auto response = ReadFrame(core->fd.get(), io_timeout);
  if (!response.ok()) {
    // As on the Call path: an unreadable response frame is stream
    // corruption, whatever decode error it produced — retryable transport.
    return response.status().code() == StatusCode::kInvalidArgument
               ? Status::DataLoss("hello response corrupted: " +
                                  response.status().message())
               : response.status();
  }
  io::BinaryReader reader(response->payload);
  auto wire_status = DecodeWireStatus(&reader);
  if (!wire_status.ok()) return wire_status.status();
  if (wire_status->status.code() == StatusCode::kResourceExhausted) {
    std::lock_guard<std::mutex> lock(shared_->mu);
    shared_->last_shed_hint_ms = wire_status->retry_after_ms;
  }
  // The server reports its own version after the status, on success and on
  // version mismatch alike (sheds carry no version).
  if (reader.remaining() >= sizeof(uint32_t)) {
    auto version = reader.ReadU32();
    if (version.ok()) server_protocol_version_ = *version;
  }
  if (!wire_status->status.ok()) {
    // The server answers an unreadable request frame with a hello-typed
    // error carrying the decode status: on the hello path that surfaces
    // here. kDataLoss/kInvalidArgument therefore mean our hello got
    // corrupted in transit — retryable — while genuine refusals (version
    // mismatch = kFailedPrecondition, shed = kResourceExhausted) keep
    // their codes.
    const StatusCode code = wire_status->status.code();
    if (code == StatusCode::kDataLoss ||
        code == StatusCode::kInvalidArgument) {
      return Status::DataLoss("server could not read our hello: " +
                              wire_status->status.message());
    }
    return wire_status->status;
  }
  // From here the reader thread owns the receive side.
  core->reader = std::thread([core] { ReaderLoop(core); });
  std::shared_ptr<ConnCore> old;
  {
    std::lock_guard<std::mutex> lock(shared_->mu);
    old = std::move(core_);
    core_ = std::move(core);
  }
  if (old != nullptr && old->fd.valid()) {
    ::shutdown(old->fd.get(), SHUT_RDWR);
  }
  // `old`'s destructor joins its reader if one was running.
  return Status::OK();
}

void Client::ReaderLoop(std::shared_ptr<ConnCore> core) {
  for (;;) {
    // Block without a deadline: per-call deadlines are enforced by the
    // waiters (cv.wait_for), and teardown wakes this recv via shutdown.
    auto frame = ReadFrame(core->fd.get(), /*timeout_ms=*/-1);
    if (!frame.ok()) {
      Status broken = frame.status();
      if (broken.code() == StatusCode::kNotFound) {
        broken = Status::DataLoss("connection closed by server");
      } else if (broken.code() == StatusCode::kInvalidArgument) {
        broken = Status::DataLoss("response stream corrupted: " +
                                  broken.message());
      }
      std::lock_guard<std::mutex> lock(core->mu);
      core->broken = std::move(broken);
      core->cv.notify_all();
      return;
    }
    if (frame->type == static_cast<uint32_t>(MsgType::kPushEvent)) {
      io::BinaryReader event_reader(frame->payload);
      auto event = io::Decode<PushEvent>(&event_reader);
      // A push whose CRC passed but whose payload does not decode is from a
      // future schema we half-understand: drop the event, keep the stream
      // (framing is intact). Pushes are at-most-once anyway.
      if (!event.ok()) continue;
      PushCallback callback;
      {
        std::lock_guard<std::mutex> lock(core->mu);
        auto it = core->push_callbacks.find(frame->correlation);
        // Unknown correlation: a push racing an unsubscribe. Drop it.
        if (it != core->push_callbacks.end()) callback = it->second;
      }
      // Invoked outside the lock so the callback may issue (read-only) RPCs.
      if (callback) callback(*event);
      continue;
    }
    if (frame->correlation == 0) {
      // A correlation-less error frame: the server could not read one of
      // our frames (it answers with a hello-typed error at correlation 0)
      // and is closing. Connection-fatal — no way to tell which
      // in-flight call it refers to.
      std::lock_guard<std::mutex> lock(core->mu);
      core->broken = Status::Unavailable("server rejected a request frame");
      core->cv.notify_all();
      return;
    }
    std::lock_guard<std::mutex> lock(core->mu);
    auto it = core->pending.find(frame->correlation);
    // Unknown correlation: the waiter abandoned the slot (deadline expired)
    // before the response arrived. Drop it.
    if (it == core->pending.end()) continue;
    it->second->done = true;
    it->second->type = frame->type;
    it->second->payload = std::move(frame->payload);
    core->pending.erase(it);
    core->cv.notify_all();
  }
}

StatusOr<std::shared_ptr<Client::ConnCore>> Client::EnsureConn() {
  std::shared_ptr<ConnCore> core = conn();
  if (core != nullptr) return core;
  std::lock_guard<std::mutex> reconnect_lock(shared_->reconnect_mu);
  core = conn();
  if (core != nullptr) return core;
  VZ_RETURN_IF_ERROR(Handshake());
  {
    std::lock_guard<std::mutex> lock(shared_->mu);
    shared_->stats.reconnects++;
  }
  return conn();
}

Client::Pending::~Pending() {
  if (core_ == nullptr || outcome_ != Outcome::kInFlight) return;
  std::lock_guard<std::mutex> lock(core_->mu);
  core_->pending.erase(correlation_);
}

Client::Pending Client::Start(MsgType type, const std::string& payload) {
  // One token per logical call: retries re-send the same (session, sequence)
  // pair, which is what lets the server recognise and deduplicate them.
  std::string wire_payload;
  if (IsMutatingType(static_cast<uint32_t>(type))) {
    uint64_t sequence = 0;
    {
      std::lock_guard<std::mutex> lock(shared_->mu);
      sequence = shared_->next_sequence++;
    }
    io::BinaryWriter writer;
    io::Encode(&writer, IdempotencyToken{session_id_, sequence});
    wire_payload = writer.buffer() + payload;
  } else {
    wire_payload = payload;
  }
  Pending pending(type, std::move(wire_payload));
  Send(pending);
  return pending;
}

void Client::Send(Pending& pending) {
  auto ensured = EnsureConn();
  if (!ensured.ok()) {
    pending.outcome_ = Pending::Outcome::kNotConnected;
    pending.failure_ = ensured.status();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(shared_->mu);
    shared_->stats.requests_sent++;
  }
  pending.core_ = std::move(*ensured);
  if (Status sent = SendOn(pending, nullptr); !sent.ok()) {
    FailTransport(pending, std::move(sent));
  }
}

Status Client::SendOn(Pending& pending, const PushCallback* push_callback) {
  ConnCore& core = *pending.core_;
  if (!core.fd.valid()) return Status::FailedPrecondition("not connected");
  pending.slot_ = std::make_shared<ReplySlot>();
  {
    std::lock_guard<std::mutex> lock(core.mu);
    if (!core.broken.ok()) return core.broken;
    pending.correlation_ = core.next_correlation++;
    core.pending.emplace(pending.correlation_, pending.slot_);
    // Registered before the request is on the wire, so the first push can
    // never outrun the registration.
    if (push_callback != nullptr) {
      core.push_callbacks.emplace(pending.correlation_, *push_callback);
    }
  }
  {
    std::lock_guard<std::mutex> write_lock(core.write_mu);
    if (Status s = WriteFrame(core.fd.get(),
                              static_cast<uint32_t>(pending.type_),
                              pending.correlation_, pending.payload_,
                              core.io_timeout_ms);
        !s.ok()) {
      std::lock_guard<std::mutex> lock(core.mu);
      core.pending.erase(pending.correlation_);
      return s;
    }
  }
  // The reply deadline runs from this attempt's own send, so a caller
  // awaiting several attempts in turn gives each its full budget.
  pending.deadline_ = std::chrono::steady_clock::now() +
                      std::chrono::milliseconds(core.io_timeout_ms);
  pending.outcome_ = Pending::Outcome::kInFlight;
  return Status::OK();
}

StatusOr<std::string> Client::AwaitReply(Pending& pending) {
  ConnCore& core = *pending.core_;
  const ReplySlot& slot = *pending.slot_;
  auto resolve = [&](Pending::Outcome outcome, Status failure) {
    pending.outcome_ = outcome;
    pending.failure_ = std::move(failure);
    return pending.failure_;
  };
  {
    std::unique_lock<std::mutex> lock(core.mu);
    auto ready = [&] { return slot.done || !core.broken.ok(); };
    if (core.io_timeout_ms > 0) {
      core.cv.wait_until(lock, pending.deadline_, ready);
    } else {
      core.cv.wait(lock, ready);
    }
    if (!slot.done) {
      const Status broken = core.broken;
      core.pending.erase(pending.correlation_);
      // Same contract as a blocking-read deadline: a response that missed
      // its deadline is a transport failure.
      return resolve(Pending::Outcome::kTransport,
                     broken.ok()
                         ? Status::Unavailable("response deadline expired")
                         : broken);
    }
  }
  const uint32_t expected = static_cast<uint32_t>(pending.type_) |
                            kResponseFlag;
  const uint32_t hello_error =
      static_cast<uint32_t>(MsgType::kHello) | kResponseFlag;
  if (slot.type == hello_error && pending.type_ != MsgType::kHello) {
    // Correlated hello-typed error: the server read the frame (correlation
    // intact) but refused to dispatch its payload. Never processed —
    // reconnect-retry safe.
    io::BinaryReader error_reader(slot.payload);
    auto error_status = DecodeWireStatus(&error_reader);
    return resolve(Pending::Outcome::kTransport,
                   Status::Unavailable(
                       "server rejected the request frame: " +
                       (error_status.ok() ? error_status->status.message()
                                          : "unreadable error response")));
  }
  if (slot.type != expected) {
    return resolve(Pending::Outcome::kTransport,
                   Status::DataLoss("response type mismatch"));
  }
  io::BinaryReader reader(slot.payload);
  auto wire_status = DecodeWireStatus(&reader);
  if (!wire_status.ok()) {
    return resolve(Pending::Outcome::kTransport, wire_status.status());
  }
  pending.retry_after_ms_ = wire_status->retry_after_ms;
  if (!wire_status->status.ok()) {
    return resolve(Pending::Outcome::kRefused, wire_status->status);
  }
  pending.outcome_ = Pending::Outcome::kAnswered;
  return slot.payload.substr(reader.position());
}

void Client::FailTransport(Pending& pending, Status failure) {
  pending.outcome_ = Pending::Outcome::kTransport;
  pending.failure_ = std::move(failure);
  // The connection is unusable; the next attempt reconnects.
  {
    std::lock_guard<std::mutex> lock(shared_->mu);
    shared_->stats.transport_failures++;
  }
  DropConn(pending.core_);
}

StatusOr<std::string> Client::Await(Pending& pending) {
  if (pending.outcome_ != Pending::Outcome::kInFlight) {
    if (pending.outcome_ == Pending::Outcome::kAnswered) {
      return Status::FailedPrecondition("reply already awaited");
    }
    return pending.failure_;
  }
  auto reply = AwaitReply(pending);
  if (pending.outcome_ == Pending::Outcome::kTransport) {
    FailTransport(pending, reply.status());
  }
  return reply;
}

bool Client::Retryable(const Pending& pending) const {
  const StatusCode code = pending.failure_.code();
  const bool shed_left = pending.shed_attempts_ < options_.max_shed_retries;
  const bool reconnect_left =
      pending.reconnects_used_ < options_.max_reconnects;
  switch (pending.outcome_) {
    case Pending::Outcome::kNotConnected:
      // A connection-level shed or a refused/failed dial (server
      // mid-restart).
      return (code == StatusCode::kResourceExhausted && shed_left) ||
             (IsTransportFailure(code) && reconnect_left);
    case Pending::Outcome::kTransport:
      // Exactly-once for mutating requests (same token) and inherently
      // safe for read-only ones.
      return reconnect_left;
    case Pending::Outcome::kRefused:
      // A response-carried kUnavailable (a server stopping while the call
      // waited on durability or a standby ack) is as retryable as a dropped
      // connection, and never an ack: the op may or may not have applied,
      // and the resend carries the same token, so it is exactly-once either
      // way.
      return (code == StatusCode::kResourceExhausted && shed_left) ||
             (code == StatusCode::kUnavailable && reconnect_left);
    case Pending::Outcome::kInFlight:
    case Pending::Outcome::kAnswered:
      return false;
  }
  return false;
}

void Client::SpendRetry(Pending& pending) {
  const StatusCode code = pending.failure_.code();
  if (pending.outcome_ == Pending::Outcome::kTransport) {
    // Counted and dropped when it failed; reconnect at once.
    ++pending.reconnects_used_;
    return;
  }
  if (code == StatusCode::kResourceExhausted) {
    int64_t hint = pending.retry_after_ms_;
    {
      std::lock_guard<std::mutex> lock(shared_->mu);
      shared_->stats.shed_retries++;
      // A shed connection carries its hint in the Hello reply.
      if (pending.outcome_ == Pending::Outcome::kNotConnected) {
        hint = shared_->last_shed_hint_ms;
      }
    }
    SleepBackoff(hint, pending.shed_attempts_++);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(shared_->mu);
    shared_->stats.transport_failures++;
  }
  // Reconnect: the endpoint may come back as a promoted standby.
  if (pending.outcome_ == Pending::Outcome::kRefused) {
    DropConn(pending.core_);
  }
  SleepBackoff(0, pending.reconnects_used_++);
}

StatusOr<std::string> Client::Finish(Pending& pending) {
  // The reconnect budget is per call and covers both mid-call transport
  // drops and failed re-handshakes (a server mid-restart refuses connects
  // for a while).
  StatusOr<std::string> reply = Await(pending);
  while (!reply.ok() && Retryable(pending)) {
    SpendRetry(pending);
    Send(pending);
    reply = Await(pending);
  }
  return reply;
}

StatusOr<std::string> Client::Call(MsgType type, const std::string& payload) {
  Pending pending = Start(type, payload);
  return Finish(pending);
}

template <typename Reply, typename... Parts>
StatusOr<Reply> Client::TypedCall(MsgType type, const Parts&... parts) {
  io::BinaryWriter writer;
  (io::Encode(&writer, parts), ...);
  VZ_ASSIGN_OR_RETURN(std::string body, Call(type, writer.buffer()));
  io::BinaryReader reader(std::move(body));
  return io::Decode<Reply>(&reader);
}

Status Client::CameraStart(const core::CameraId& camera) {
  return TypedCall<EmptyPayload>(MsgType::kCameraStart, camera).status();
}

Status Client::CameraTerminate(const core::CameraId& camera) {
  return TypedCall<EmptyPayload>(MsgType::kCameraTerminate, camera).status();
}

Status Client::IngestFrame(const core::FrameObservation& frame) {
  return TypedCall<EmptyPayload>(MsgType::kIngestFrame, frame).status();
}

StatusOr<IngestBatchReply> Client::IngestBatch(
    const std::vector<core::FrameObservation>& frames) {
  // Written in IngestBatchRequest's layout without building one, so the
  // caller's frames are not copied.
  io::BinaryWriter writer;
  io::Encode(&writer, static_cast<uint32_t>(frames.size()));
  for (const auto& frame : frames) io::Encode(&writer, frame);
  VZ_ASSIGN_OR_RETURN(std::string body,
                      Call(MsgType::kIngestBatch, writer.buffer()));
  io::BinaryReader reader(std::move(body));
  return io::Decode<IngestBatchReply>(&reader);
}

Status Client::Flush() {
  return TypedCall<EmptyPayload>(MsgType::kFlush).status();
}

Status Client::Ping() {
  Status status = TypedCall<EmptyPayload>(MsgType::kPing).status();
  if (status.ok()) {
    std::lock_guard<std::mutex> lock(shared_->mu);
    shared_->stats.pings_sent++;
  }
  return status;
}

StatusOr<uint64_t> Client::Subscribe(const SubscribeRequest& request,
                                     PushCallback callback) {
  auto ensured = EnsureConn();
  if (!ensured.ok()) return ensured.status();
  io::BinaryWriter writer;
  io::Encode(&writer, request);
  {
    std::lock_guard<std::mutex> lock(shared_->mu);
    shared_->stats.requests_sent++;
  }
  // One attempt on this connection: a retry on a new one would leave the
  // callback registered where no push can reach it.
  Pending pending(MsgType::kSubscribe, writer.buffer());
  pending.core_ = std::move(*ensured);
  ConnCore& core = *pending.core_;
  auto subscription_id = [&]() -> StatusOr<uint64_t> {
    VZ_RETURN_IF_ERROR(SendOn(pending, &callback));
    VZ_ASSIGN_OR_RETURN(std::string body, AwaitReply(pending));
    io::BinaryReader reader(std::move(body));
    return io::Decode<uint64_t>(&reader);
  }();
  std::lock_guard<std::mutex> lock(core.mu);
  if (!subscription_id.ok()) {
    core.push_callbacks.erase(pending.correlation_);
    return subscription_id.status();
  }
  core.subscription_corr.emplace(*subscription_id, pending.correlation_);
  return *subscription_id;
}

Status Client::Unsubscribe(uint64_t subscription_id) {
  std::shared_ptr<ConnCore> core = conn();
  if (core == nullptr) {
    return Status::FailedPrecondition(
        "not connected (subscriptions are connection-scoped)");
  }
  io::BinaryWriter writer;
  io::Encode(&writer, subscription_id);
  {
    std::lock_guard<std::mutex> lock(shared_->mu);
    shared_->stats.requests_sent++;
  }
  Pending pending(MsgType::kUnsubscribe, writer.buffer());
  pending.core_ = core;
  VZ_RETURN_IF_ERROR(SendOn(pending, nullptr));
  VZ_RETURN_IF_ERROR(AwaitReply(pending).status());
  std::lock_guard<std::mutex> lock(core->mu);
  auto it = core->subscription_corr.find(subscription_id);
  if (it != core->subscription_corr.end()) {
    core->push_callbacks.erase(it->second);
    core->subscription_corr.erase(it);
  }
  return Status::OK();
}

// The query requests go out as their request struct's members (see
// DirectQueryRequest and ClusteringBy*Request), so the caller's query
// vector or feature map is not copied.
StatusOr<core::DirectQueryResult> Client::DirectQuery(
    const FeatureVector& feature, const core::QueryConstraints& constraints) {
  return TypedCall<core::DirectQueryResult>(MsgType::kDirectQuery, feature,
                                            constraints);
}

StatusOr<core::ClusteringQueryResult> Client::ClusteringQuery(
    core::SvsId target_id, const core::QueryConstraints& constraints) {
  return TypedCall<core::ClusteringQueryResult>(
      MsgType::kClusteringQueryById, target_id, constraints);
}

StatusOr<core::ClusteringQueryResult> Client::ClusteringQuery(
    const FeatureMap& target, const core::QueryConstraints& constraints) {
  return TypedCall<core::ClusteringQueryResult>(
      MsgType::kClusteringQueryByMap, target, constraints);
}

StatusOr<core::SvsMetadata> Client::GetMetaData(core::SvsId id) {
  return TypedCall<core::SvsMetadata>(MsgType::kGetMetaData, id);
}

StatusOr<MonitorStatsReply> Client::MonitorStats() {
  return TypedCall<MonitorStatsReply>(MsgType::kMonitorStats);
}

StatusOr<std::vector<CameraHealthEntry>> Client::CameraHealthReport() {
  return TypedCall<std::vector<CameraHealthEntry>>(MsgType::kCameraHealth);
}

StatusOr<core::QueryLoadStats> Client::QueryLoadStats() {
  return TypedCall<core::QueryLoadStats>(MsgType::kQueryLoadStats);
}

StatusOr<AdminTuneReply> Client::AdminTune(const AdminTuneRequest& request) {
  return TypedCall<AdminTuneReply>(MsgType::kAdminTune, request);
}

StatusOr<WalShipReply> Client::WalShip(uint64_t from_lsn,
                                       uint32_t max_records,
                                       uint32_t wait_ms, uint64_t epoch) {
  return TypedCall<WalShipReply>(
      MsgType::kWalShip, WalShipRequest{from_lsn, max_records, wait_ms, epoch});
}

StatusOr<RepSyncReply> Client::RepSync(uint64_t since_version) {
  return TypedCall<RepSyncReply>(MsgType::kRepSync,
                                 RepSyncRequest{since_version});
}

StatusOr<FeatureMap> Client::SvsFeatureMap(core::SvsId id) {
  return TypedCall<FeatureMap>(MsgType::kSvsFeatureMap, id);
}

StatusOr<CheckpointFetchReply> Client::CheckpointFetch() {
  return TypedCall<CheckpointFetchReply>(MsgType::kCheckpointFetch);
}

Status Client::SaveSnapshot(const std::string& path) {
  return TypedCall<EmptyPayload>(MsgType::kSnapshotSave, path).status();
}

StatusOr<uint64_t> Client::LoadSnapshot(const std::string& path) {
  return TypedCall<uint64_t>(MsgType::kSnapshotLoad, path);
}

}  // namespace vz::net
