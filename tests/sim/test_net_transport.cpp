/// \file test_net_transport.cpp
/// Fleet-mode (TCP transport) tests for the distributed sweep backend.
/// The driver runs in the test's main thread; remote workers are either
/// std::threads running dsweep_worker_connect against 127.0.0.1 (so
/// connection faults like drop-conn-after can run in-process) or real
/// re-exec'd child processes when the test needs to SIGKILL one.
/// Every recovery path must converge to the byte-identical single-process
/// result.
#include "sim/net_transport.hpp"

#include <gtest/gtest.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <functional>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "common/net.hpp"
#include "common/wire.hpp"
#include "perf/counters.hpp"
#include "sim/dsweep.hpp"

namespace tbi::sim {
namespace {

constexpr std::uint64_t kCells = 24;
constexpr std::uint64_t kSeed = 7;

Json echo_job(unsigned sleep_us = 2000) {
  Json job;
  job["tag"] = "t";
  job["sleep_us"] = static_cast<std::uint64_t>(sleep_us);
  return job;
}

/// Clean single-process reference for \p job.
std::vector<std::string> echo_reference(const Json& job) {
  DsweepOptions opt;
  opt.workers = 1;
  opt.threads = 2;
  const auto res = dsweep_run("test-echo", job, kCells, kSeed, opt);
  std::vector<std::string> dumps;
  for (const auto& r : res.records) dumps.push_back(r.dump(0));
  return dumps;
}

void expect_matches_reference(const DsweepResult& res, const Json& job) {
  const auto ref = echo_reference(job);
  ASSERT_EQ(res.records.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_TRUE(res.done[i]) << "cell " << i << " missing";
    EXPECT_EQ(res.records[i].dump(0), ref[i]) << "cell " << i;
  }
}

/// In-thread remote workers dialing an ephemeral driver port published
/// through on_listening.
struct Fleet {
  std::promise<std::uint16_t> port_promise;
  std::shared_future<std::uint16_t> port = port_promise.get_future().share();
  std::vector<std::thread> threads;
  std::vector<int> exit_codes;

  DsweepOptions driver_options(unsigned workers) {
    DsweepOptions opt;
    opt.workers = workers;
    opt.threads = 2;
    opt.listen = "127.0.0.1:0";
    opt.backoff_base_ms = 1;  // keep reconnect tests fast
    opt.on_listening = [this](std::uint16_t p) { port_promise.set_value(p); };
    return opt;
  }

  void start_workers(unsigned n) {
    exit_codes.assign(n, -1);
    for (unsigned i = 0; i < n; ++i) {
      threads.emplace_back([this, i] {
        WorkerConnectOptions w;
        w.backoff_base_ms = 2;
        w.max_retries = 8;
        exit_codes[i] = dsweep_worker_connect(
            "127.0.0.1:" + std::to_string(port.get()), w);
      });
    }
  }

  void join() {
    for (auto& t : threads) t.join();
    threads.clear();
  }
};

TEST(DsweepTcp, FleetRunMatchesSingleProcessByteForByte) {
  Fleet fleet;
  auto opt = fleet.driver_options(2);
  fleet.start_workers(2);
  const auto res = dsweep_run("test-echo", echo_job(), kCells, kSeed, opt);
  fleet.join();

  EXPECT_TRUE(res.stats.tcp);
  EXPECT_FALSE(res.stats.degraded_inprocess);
  EXPECT_GE(res.stats.connections_adopted, 2u);
  EXPECT_EQ(res.stats.connections_rejected, 0u);
  for (const int code : fleet.exit_codes) EXPECT_EQ(code, 0);
  expect_matches_reference(res, echo_job());
}

TEST(DsweepTcp, DroppedConnectionIsReassignedAndWorkerReconnects) {
  Fleet fleet;
  auto opt = fleet.driver_options(2);
  opt.faults = FaultSpec::parse("drop-conn-after=2@0");
  fleet.start_workers(2);
  const auto res = dsweep_run("test-echo", echo_job(), kCells, kSeed, opt);
  fleet.join();

  EXPECT_GE(res.stats.worker_restarts, 1u);
  EXPECT_GE(res.stats.cells_reassigned, 1u);
  EXPECT_FALSE(res.stats.degraded_inprocess);
  expect_matches_reference(res, echo_job());
}

TEST(DsweepTcp, PartitionedWorkerHitsHeartbeatTimeoutAndIsReplaced) {
  Fleet fleet;
  auto opt = fleet.driver_options(2);
  opt.heartbeat_interval_ms = 25;
  opt.heartbeat_timeout_ms = 300;
  // The connection stays open but heartbeats stop: only the liveness
  // window can tell this "partitioned" worker from a slow one.
  opt.faults = FaultSpec::parse("stall-conn-after=1@0");
  fleet.start_workers(2);
  const auto res = dsweep_run("test-echo", echo_job(), kCells, kSeed, opt);
  fleet.join();

  EXPECT_GE(res.stats.heartbeat_timeouts, 1u);
  EXPECT_GE(res.stats.worker_restarts, 1u);
  expect_matches_reference(res, echo_job());
}

TEST(DsweepTcp, CorruptHeaderFrameIsRejectedNeverMerged) {
  Fleet fleet;
  auto opt = fleet.driver_options(2);
  // corrupt-frame flips a header type bit — only the v2 CRC (which
  // covers the header) catches it.
  opt.faults = FaultSpec::parse("corrupt-frame=2@0");
  fleet.start_workers(2);
  const auto res = dsweep_run("test-echo", echo_job(), kCells, kSeed, opt);
  fleet.join();

  EXPECT_GE(res.stats.batches_rejected, 1u);
  EXPECT_GE(res.stats.worker_restarts, 1u);
  expect_matches_reference(res, echo_job());
}

TEST(DsweepTcp, NoWorkerEverConnectsDegradesToInProcess) {
  DsweepOptions opt;
  opt.workers = 2;
  opt.threads = 2;
  opt.listen = "127.0.0.1:0";
  opt.accept_timeout_ms = 150;
  const auto res = dsweep_run("test-echo", echo_job(0), kCells, kSeed, opt);

  EXPECT_TRUE(res.stats.tcp);
  EXPECT_TRUE(res.stats.degraded_inprocess);
  EXPECT_EQ(res.stats.connections_adopted, 0u);
  expect_matches_reference(res, echo_job(0));
}

TEST(DsweepTcp, KilledRemoteWorkerProcessIsRecovered) {
  // One worker is a real re-exec'd process; SIGKILL lands mid-grid (a
  // cell takes 5 ms, the grid ~120 ms on one worker). The driver must
  // survive the dead peer (EPIPE, not SIGPIPE), reassign its in-flight
  // cell and finish on the surviving worker. The child dials in alone and
  // the kill waits for its first committed cell, which proves it was
  // adopted; only then does the in-thread worker start. No fixed delay is
  // safe: a sanitized child can still be starting up when it fires.
  Fleet fleet;
  const Json job = echo_job(5000);
  auto opt = fleet.driver_options(2);
  std::promise<void> first_commit;
  bool committed = false;
  opt.progress = [&](const SweepProgress&) {
    if (!committed) first_commit.set_value();
    committed = true;
  };

  char exe[4096] = {0};
  ASSERT_GT(::readlink("/proc/self/exe", exe, sizeof exe - 1), 0);
  std::thread killer([&fleet, &exe, adopted = first_commit.get_future()] {
    const std::string spec = "127.0.0.1:" + std::to_string(fleet.port.get());
    const pid_t pid = ::fork();
    if (pid == 0) {
      ::execl(exe, exe, ("--connect=" + spec).c_str(), (char*)nullptr);
      ::_exit(127);
    }
    ASSERT_GT(pid, 0);
    adopted.wait();
    fleet.start_workers(1);
    ::kill(pid, SIGKILL);
    int status = 0;
    ::waitpid(pid, &status, 0);
  });

  const auto res = dsweep_run("test-echo", job, kCells, kSeed, opt);
  killer.join();
  fleet.join();

  EXPECT_GE(res.stats.worker_restarts, 1u);
  EXPECT_FALSE(res.stats.degraded_inprocess);
  expect_matches_reference(res, job);
}

TEST(DsweepTcp, WorkerConnectBudgetExhaustedReturnsFailure) {
  // Bind an ephemeral port and close it again: every dial must fail,
  // and the bounded retry budget must end in a clean error exit.
  std::string err;
  const int lfd = net::listen_tcp("127.0.0.1:0", &err);
  ASSERT_GE(lfd, 0) << err;
  const std::uint16_t port = net::local_port(lfd);
  ::close(lfd);

  WorkerConnectOptions w;
  w.max_retries = 2;
  w.backoff_base_ms = 1;
  w.connect_timeout_ms = 200;
  EXPECT_EQ(dsweep_worker_connect("127.0.0.1:" + std::to_string(port), w), 1);
}

TEST(DsweepTcp, MalformedListenSpecThrows) {
  DsweepOptions opt;
  opt.workers = 2;
  opt.listen = "no-port-here";
  EXPECT_THROW(dsweep_run("test-echo", echo_job(0), kCells, kSeed, opt),
               std::invalid_argument);
}

TEST(DsweepTcp, UnbindableListenAddressThrows) {
  DsweepOptions opt;
  opt.workers = 2;
  opt.listen = "192.0.2.1:0";  // TEST-NET-1: never a local interface
  EXPECT_THROW(dsweep_run("test-echo", echo_job(0), kCells, kSeed, opt),
               std::runtime_error);
}

// ---------------------------------------------------------------------------
// TcpTransport handshake unit tests: drive service() directly.
// ---------------------------------------------------------------------------

bool pump_until(TcpTransport& t, const std::function<bool()>& done,
                int timeout_ms = 2000) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    t.service(perf::now_ns());
    if (done()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return false;
}

int dial(const TcpTransport& t) {
  std::string err;
  const int fd =
      net::connect_tcp("127.0.0.1:" + std::to_string(t.port()), 2000, &err);
  EXPECT_GE(fd, 0) << err;
  return fd;
}

std::string hello_payload(std::uint64_t proto, const std::string& fingerprint) {
  Json hello;
  hello["proto"] = proto;
  hello["fingerprint"] = fingerprint;
  return hello.dump(0);
}

TEST(TcpTransportHandshake, ForeignFingerprintGetsARejectFrame) {
  TcpTransportOptions topt;
  topt.fingerprint = "feedface";
  TcpTransport t("127.0.0.1:0", topt);
  ASSERT_NE(t.port(), 0);

  const int fd = dial(t);
  ASSERT_TRUE(wire::write_frame(fd, wire::FrameType::Hello,
                                hello_payload(wire::kProtocolVersion, "deadbeef")));
  ASSERT_TRUE(pump_until(t, [&t] { return t.rejected() > 0; }));
  EXPECT_EQ(t.rejected(), 1u);
  EXPECT_EQ(t.adopted(), 0u);

  // The worker hears why before the close: Reject frame, then EOF.
  wire::FrameReader r;
  wire::Frame f;
  ASSERT_EQ(wire::read_frame(fd, r, &f), wire::FrameReader::Status::Frame);
  EXPECT_EQ(f.type, wire::FrameType::Reject);
  EXPECT_FALSE(f.payload.empty());
  EXPECT_EQ(wire::read_frame(fd, r, &f), wire::FrameReader::Status::Eof);
  ::close(fd);
}

TEST(TcpTransportHandshake, ProtocolVersionMismatchIsRejected) {
  TcpTransportOptions topt;
  topt.fingerprint = "feedface";
  TcpTransport t("127.0.0.1:0", topt);

  const int fd = dial(t);
  ASSERT_TRUE(wire::write_frame(
      fd, wire::FrameType::Hello,
      hello_payload(wire::kProtocolVersion + 1, "feedface")));
  ASSERT_TRUE(pump_until(t, [&t] { return t.rejected() > 0; }));

  wire::FrameReader r;
  wire::Frame f;
  ASSERT_EQ(wire::read_frame(fd, r, &f), wire::FrameReader::Status::Frame);
  EXPECT_EQ(f.type, wire::FrameType::Reject);
  ::close(fd);
}

TEST(TcpTransportHandshake, FreshAndMatchingWorkersAreQueuedForAdoption) {
  TcpTransportOptions topt;
  topt.fingerprint = "feedface";
  TcpTransport t("127.0.0.1:0", topt);

  // A first-contact worker has no fingerprint yet; a reconnecting one
  // echoes this run's. Both must pass the handshake.
  const int fresh = dial(t);
  ASSERT_TRUE(wire::write_frame(fresh, wire::FrameType::Hello,
                                hello_payload(wire::kProtocolVersion, "")));
  const int back = dial(t);
  ASSERT_TRUE(wire::write_frame(back, wire::FrameType::Hello,
                                hello_payload(wire::kProtocolVersion, "feedface")));

  int a = -1;
  int b = -1;
  ASSERT_TRUE(pump_until(t, [&] {
    if (a < 0) a = t.acquire(0);
    if (a >= 0 && b < 0) b = t.acquire(1);
    return a >= 0 && b >= 0;
  }));
  EXPECT_EQ(t.adopted(), 2u);
  EXPECT_EQ(t.rejected(), 0u);

  t.release(0, a);
  t.release(1, b);
  ::close(fresh);
  ::close(back);
}

TEST(TcpTransportHandshake, OversizeHelloHeaderDropsTheConnectionUnread) {
  // An unauthenticated peer announcing a Hello past kMaxHelloPayload is
  // dropped on the header alone: no Reject, no adoption, and long before
  // the handshake timeout, so its payload is never buffered or parsed.
  TcpTransportOptions topt;
  topt.fingerprint = "feedface";
  topt.handshake_timeout_ms = 60'000;
  TcpTransport t("127.0.0.1:0", topt);

  const int fd = dial(t);
  const std::uint32_t len = kMaxHelloPayload + 1;
  std::vector<std::uint8_t> header(wire::kHeaderBytes, 0);
  for (int i = 0; i < 4; ++i) {
    header[i] = static_cast<std::uint8_t>(wire::kMagic >> (8 * i));
    header[5 + i] = static_cast<std::uint8_t>(len >> (8 * i));
  }
  header[4] = static_cast<std::uint8_t>(wire::FrameType::Hello);
  ASSERT_TRUE(wire::write_all(fd, header.data(), header.size()));
  const std::string some_payload(512, '{');
  ASSERT_TRUE(wire::write_all(fd, reinterpret_cast<const std::uint8_t*>(some_payload.data()),
                              some_payload.size()));

  // Pump until the peer sees the close.
  ASSERT_TRUE(pump_until(t, [fd] {
    struct pollfd p{fd, POLLIN, 0};
    return ::poll(&p, 1, 0) > 0;
  }));
  EXPECT_FALSE(t.busy());
  EXPECT_EQ(t.rejected(), 0u);
  EXPECT_EQ(t.adopted(), 0u);
  EXPECT_EQ(t.acquire(0), -1);

  wire::FrameReader r;
  wire::Frame f;
  EXPECT_EQ(wire::read_frame(fd, r, &f), wire::FrameReader::Status::Eof);
  ::close(fd);
}

TEST(TcpTransportHandshake, SilentConnectionTimesOutWithoutPinningASlot) {
  TcpTransportOptions topt;
  topt.fingerprint = "feedface";
  topt.handshake_timeout_ms = 100;
  TcpTransport t("127.0.0.1:0", topt);

  const int fd = dial(t);  // connect, then never say Hello
  ASSERT_TRUE(pump_until(t, [&t] { return t.busy(); }, 1000));
  // busy() while the handshake is pending, idle again once it expires.
  ASSERT_TRUE(pump_until(t, [&t] { return !t.busy(); }, 1000));
  EXPECT_EQ(t.acquire(0), -1);
  EXPECT_EQ(t.adopted(), 0u);
  ::close(fd);
}

}  // namespace
}  // namespace tbi::sim
