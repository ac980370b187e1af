/// \file net_transport.hpp
/// TCP worker transport for the distributed sweep driver: the "fleet"
/// backend that lets workers live on other hosts.
///
/// The driver listens; workers dial in (`dsweep_worker_connect`) and
/// open with a `Hello` frame carrying the wire protocol version and the
/// sweep fingerprint they last served (empty on first contact). The
/// transport rejects protocol mismatches and foreign workers — a worker
/// that served a different run reconnecting to this driver would be as
/// wrong as resuming from a foreign manifest — with a `Reject` frame,
/// and queues handshake-complete connections for slot adoption.
///
/// Connection state machine (driver side), per inbound connection:
///
///   accepted --Hello ok--> ready --acquire()--> adopted (driver slot)
///       |  \--Hello bad / corrupt / timeout--> closed (+Reject if bad)
///   adopted --EOF / corrupt / heartbeat timeout--> released (closed);
///             the in-flight cell is reassigned and the slot waits for
///             the next ready connection (the remote worker reconnects
///             with exponential backoff under its own retry budget)
///
/// All sockets the driver touches are nonblocking; handshakes that stall
/// past `handshake_timeout_ms` are dropped so a half-open peer cannot
/// pin a slot.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/wire.hpp"
#include "sim/transport.hpp"

namespace tbi::sim {

/// Largest Hello payload a pending connection may announce. A Hello is
/// about 40 bytes of JSON; the frame header of an unauthenticated peer
/// announcing more drops the connection before its payload is buffered
/// or parsed.
constexpr std::uint32_t kMaxHelloPayload = 4096;

struct TcpTransportOptions {
  /// This run's sweep fingerprint (sim/manifest.hpp); a Hello carrying a
  /// different non-empty fingerprint is rejected.
  std::string fingerprint;
  /// A connection must complete its Hello within this window.
  unsigned handshake_timeout_ms = 5000;
};

class TcpTransport : public Transport {
 public:
  /// Binds + listens on \p hostport ("host:port", port 0 = ephemeral).
  /// Throws std::invalid_argument on a malformed address and
  /// std::runtime_error when the bind/listen fails.
  TcpTransport(const std::string& hostport, TcpTransportOptions options);
  ~TcpTransport() override;

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  const char* name() const override { return "tcp"; }
  bool transient_acquire() const override { return true; }
  int event_fd() const override { return listen_fd_; }
  void service(std::uint64_t now_ns) override;
  bool busy() const override { return !pending_.empty() || !ready_.empty(); }
  int acquire(unsigned slot) override;
  void release(unsigned slot, int fd) override;

  std::uint16_t port() const { return port_; }
  unsigned adopted() const { return adopted_; }
  unsigned rejected() const { return rejected_; }

 private:
  struct Pending {
    int fd = -1;
    wire::FrameReader reader{kMaxHelloPayload};
    std::uint64_t deadline_ns = 0;
  };

  /// Validate a Hello payload; returns true when the connection may be
  /// adopted, else fills \p reason.
  bool handshake_ok(const std::string& payload, std::string* reason) const;

  TcpTransportOptions options_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::vector<Pending> pending_;
  std::deque<int> ready_;
  unsigned adopted_ = 0;
  unsigned rejected_ = 0;
};

}  // namespace tbi::sim
