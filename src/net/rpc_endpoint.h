#ifndef VZ_NET_RPC_ENDPOINT_H_
#define VZ_NET_RPC_ENDPOINT_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/socket.h"
#include "common/status.h"
#include "net/subscription.h"
#include "net/wire.h"

namespace vz::net {

/// Response payload carrying nothing but a wire status.
std::string StatusOnlyResponse(const Status& status,
                               int64_t retry_after_ms = 0);

/// Response payload of a successful RPC: an OK status, then `body`.
template <typename T>
std::string OkResponse(const T& body) {
  io::BinaryWriter writer;
  EncodeWireStatus(&writer, {Status::OK(), 0});
  io::Encode(&writer, body);
  return writer.buffer();
}

/// Decodes the rest of a request payload as one `T`. Bytes that do not
/// decode (trailing bytes included) are a malformed, if CRC-consistent,
/// request: `*failure` becomes kInvalidArgument and the result is empty.
template <typename T>
std::optional<T> DecodeRequest(io::BinaryReader* reader, Status* failure) {
  StatusOr<T> decoded = io::Decode<T>(reader);
  if (!decoded.ok()) {
    *failure = Status::InvalidArgument("malformed payload: " +
                                       decoded.status().message());
    return std::nullopt;
  }
  return std::move(*decoded);
}

/// The RPC front end `Server` and `Coordinator` are built on (see DESIGN.md,
/// "Network service"): listen and accept with a connection cap, one
/// supervised request loop per connection on a thread of its own (so open
/// connections never hold a worker of the query `ThreadPool`), the Hello
/// handshake, `kPing`, dispatch through a `MsgType` → handler table,
/// the connection registry, and push delivery from a `SubscriptionEngine`.
///
/// Per connection: Hello comes first and must name exactly
/// `kProtocolVersion`; a response or push frame sent as a request is
/// refused and closes the connection, as does `kFailedPrecondition` before
/// the Hello. Any error after the Hello keeps the connection open. Once the
/// first byte of a frame is readable the whole frame must arrive within the
/// read deadline, and every write must finish within the write deadline; a
/// peer that misses either is evicted as slow. A connection with no
/// completed request past the idle timeout plus grace is evicted as idle.
///
/// Responses and pushes share one write lock and one closed flag per
/// connection, so frames never interleave and a push never lands on a
/// closed (or recycled) descriptor.
class RpcEndpoint {
 public:
  /// Connection handling settings: `ServerOptions` extends them, and the
  /// coordinator copies its own into them.
  struct Config {
    std::string bind_address = "127.0.0.1";
    /// Port to listen on; 0 lets the kernel pick (read back with `port()`).
    uint16_t port = 0;
    /// Concurrent connections served, each on a thread of its own; arrivals
    /// beyond it are answered with a wire-level `kResourceExhausted`
    /// (retry-after attached) and closed — connection-level shedding
    /// mirroring the admission controller's query-level shedding. An
    /// arrival whose thread cannot start is shed the same way.
    size_t max_connections = 8;
    /// Retry-after hint attached to connection-level sheds.
    int64_t shed_retry_after_ms = 50;
    /// Cadence at which idle connection loops re-check the stop flag.
    int64_t idle_poll_ms = 50;

    // --- Connection supervision (see DESIGN.md, "Exactly-once and
    // --- connection supervision"). ---

    /// Once the first byte of a request frame is readable, the whole frame
    /// must arrive within this budget; a sender trickling bytes past it is
    /// evicted as a slow client. <= 0 disables the read deadline.
    int64_t read_timeout_ms = 10'000;
    /// A response must be accepted by the peer's receive window within this
    /// budget; a reader that stops draining is evicted as a slow client.
    /// <= 0 disables the write deadline.
    int64_t write_timeout_ms = 10'000;
    /// A connection with no completed request for longer than
    /// `idle_timeout_ms + eviction_grace_ms` is evicted. `kPing` resets the
    /// idle clock without touching any state. <= 0 disables idle eviction.
    int64_t idle_timeout_ms = 0;
    /// Grace granted past the idle deadline before the connection is closed.
    int64_t eviction_grace_ms = 100;
  };

  /// Lifetime counters (all totals except the `connections_active` gauge).
  struct Stats {
    uint64_t connections_accepted = 0;
    uint64_t connections_shed = 0;
    size_t connections_active = 0;
    uint64_t requests_served = 0;
    uint64_t request_errors = 0;
    uint64_t connections_evicted_idle = 0;
    uint64_t connections_evicted_slow = 0;
    uint64_t pings_served = 0;
    /// Push frames written, and the gap markers among them.
    uint64_t pushes_sent = 0;
    uint64_t push_gaps_sent = 0;
  };

  /// Who sent a request: its connection and its correlation id.
  struct Call {
    uint64_t conn_id = 0;
    uint64_t correlation = 0;
  };

  /// Builds the response payload (a wire status first) of one request,
  /// setting `*failure` when the RPC failed. Runs on the connection's own
  /// thread.
  using Handler = std::function<std::string(
      io::BinaryReader* reader, const Call& call, Status* failure)>;

  RpcEndpoint() = default;
  ~RpcEndpoint() { Shutdown(); }

  RpcEndpoint(const RpcEndpoint&) = delete;
  RpcEndpoint& operator=(const RpcEndpoint&) = delete;

  /// Registers the handler of `type`. Call before `Start`; a type with no
  /// handler is answered with `kUnimplemented`.
  void Handle(MsgType type, Handler handler);
  /// Registers the hook run once per connection as it closes, after its
  /// last push write.
  void OnClose(std::function<void(uint64_t conn_id)> hook);
  /// Delivers `engine`'s events, whose connection ids are this endpoint's:
  /// a thread living as long as the listener waits for work (enqueues wake
  /// it; `poll_ms` bounds an idle wait), then hands each pending
  /// connection's drained batch to the push-write path. Call before
  /// `Start`; `engine` must outlive the endpoint's `Shutdown`.
  void ServePushes(SubscriptionEngine* engine, int64_t poll_ms = 50);

  /// Binds and starts accepting.
  Status Start(const Config& config);
  /// Stops accepting, lets every connection finish the request it is
  /// serving, and force-closes what is still open after a 10 s drain
  /// budget. Idempotent.
  void Shutdown() { Stop(/*drain=*/true); }
  /// Stops without draining: sockets are torn down under in-flight
  /// requests.
  void Kill() { Stop(/*drain=*/false); }

  /// The bound port (valid after a successful `Start`).
  uint16_t port() const { return port_; }
  Stats stats() const;
  /// The per-connection registry, ordered by connection id.
  std::vector<ConnectionInfo> connections() const;

 private:
  using SteadyClock = std::chrono::steady_clock;
  struct Conn;

  void Stop(bool drain);
  void AcceptLoop();
  /// The push-delivery thread (see `ServePushes`).
  void DeliveryLoop();
  /// The push-write path. Probes `conn_id` for writability first and skips
  /// it when its receive window is full; only then drains its events from
  /// the engine, so a stalled subscriber's queue keeps dropping its oldest
  /// events instead of losing a drained batch. Writes the events as one
  /// gathered burst of `kPushEvent` frames; a write that misses the
  /// deadline evicts the connection as slow.
  void Push(uint64_t conn_id);
  void Serve(UniqueFd fd, std::shared_ptr<Conn> conn);
  /// Serves one readable request; false when the connection should close.
  bool ServeOne(Conn* conn, bool* hello_done);
  std::string Dispatch(const WireFrame& request, const Call& call,
                       bool* hello_done, Status* failure);
  /// Writes one frame under the connection's write lock.
  Status Write(Conn* conn, uint32_t type, uint64_t correlation,
               const std::string& payload);
  int64_t WriteTimeout() const {
    return config_.write_timeout_ms > 0 ? config_.write_timeout_ms : -1;
  }

  Config config_;
  std::unordered_map<uint32_t, Handler> handlers_;
  std::function<void(uint64_t)> on_close_;
  SubscriptionEngine* engine_ = nullptr;
  int64_t push_poll_ms_ = 50;

  UniqueFd listen_fd_;
  uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};

  mutable std::mutex mu_;  // guards the three fields below
  std::condition_variable drained_cv_;
  std::map<uint64_t, std::shared_ptr<Conn>> conns_;
  std::vector<std::future<void>> loops_;
  uint64_t next_conn_id_ = 0;

  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> shed_{0};
  std::atomic<uint64_t> served_{0};
  std::atomic<uint64_t> errors_{0};
  std::atomic<uint64_t> evicted_idle_{0};
  std::atomic<uint64_t> evicted_slow_{0};
  std::atomic<uint64_t> pings_{0};
  std::atomic<uint64_t> pushes_{0};
  std::atomic<uint64_t> push_gaps_{0};

  // Declared after everything the accept and delivery loops use.
  std::thread accept_thread_;
  std::thread delivery_thread_;
};

}  // namespace vz::net

#endif  // VZ_NET_RPC_ENDPOINT_H_
