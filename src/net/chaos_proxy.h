#ifndef VZ_NET_CHAOS_PROXY_H_
#define VZ_NET_CHAOS_PROXY_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/socket.h"
#include "common/status.h"
#include "sim/wire_fault_injector.h"

namespace vz::net {

/// Configuration of the chaos proxy.
struct ChaosProxyOptions {
  std::string listen_address = "127.0.0.1";
  /// 0 lets the kernel pick; read back with `port()`.
  uint16_t listen_port = 0;
  std::string upstream_host = "127.0.0.1";
  uint16_t upstream_port = 0;
  int64_t upstream_connect_timeout_ms = 5'000;
  /// Largest slice of the stream read (and fault-rolled) at a time. Smaller
  /// chunks mean more fault opportunities per RPC.
  size_t chunk_bytes = 4'096;
  /// Cadence at which relay threads re-check the shutdown flag while idle.
  int64_t idle_poll_ms = 50;
  /// Fault mix. `faults.seed` is the master seed: every relayed connection
  /// forks two child injectors off it (one per direction), so a chaos run is
  /// deterministic per (connection index, direction) no matter how threads
  /// interleave.
  sim::WireFaultInjectorOptions faults;
};

/// In-process TCP chaos relay: listens like a server, forwards every
/// accepted connection to the upstream address byte-for-byte — except when
/// the seeded `sim::WireFaultInjector` says otherwise. Point a `net::Client`
/// at `port()` instead of the real server and the full retry/exactly-once
/// machinery gets exercised against delayed, segmented, truncated,
/// bit-flipped, blackholed and reset traffic, deterministically per seed.
///
/// The proxy is transport-agnostic: it never parses frames, so it also
/// stresses the framing layer's reassembly (splits) and its CRC (flips).
class ChaosProxy {
 public:
  /// Aggregate over all relayed connections.
  struct Stats {
    uint64_t connections_relayed = 0;
    sim::WireFaultInjector::Ledger ledger;
  };

  explicit ChaosProxy(const ChaosProxyOptions& options);
  ~ChaosProxy();

  ChaosProxy(const ChaosProxy&) = delete;
  ChaosProxy& operator=(const ChaosProxy&) = delete;

  /// Binds the listen socket and starts accepting.
  Status Start();

  /// Closes the listener and every live relay; joins all threads.
  /// Idempotent.
  void Shutdown();

  /// The bound listen port (valid after a successful `Start`).
  uint16_t port() const { return port_; }

  /// Aggregated fault ledger. Live relays fold their counts in when their
  /// direction ends, so totals are complete once clients disconnected.
  Stats stats() const;

 private:
  /// One relayed connection: the downstream (client-side) and upstream
  /// (server-side) sockets shared by the two pump threads.
  struct Relay {
    UniqueFd downstream;
    UniqueFd upstream;
    /// Hard-closes both sockets (thread-safe, idempotent enough: shutdown
    /// on a closed fd is a harmless error).
    void Kill();
  };

  void AcceptLoop();
  /// Pumps bytes `src` -> `dst`, applying the injector to every chunk.
  void Pump(std::shared_ptr<Relay> relay, int src, int dst,
            sim::WireFaultInjector injector);

  const ChaosProxyOptions options_;
  UniqueFd listen_fd_;
  uint16_t port_ = 0;
  std::thread accept_thread_;
  std::atomic<bool> stopping_{false};
  bool started_ = false;

  mutable std::mutex mu_;  // guards everything below
  sim::WireFaultInjector master_injector_;
  std::vector<std::thread> pump_threads_;
  std::vector<std::shared_ptr<Relay>> relays_;
  uint64_t connections_relayed_ = 0;
  sim::WireFaultInjector::Ledger ledger_;
};

}  // namespace vz::net

#endif  // VZ_NET_CHAOS_PROXY_H_
