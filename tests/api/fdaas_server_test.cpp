// FdaasServer: the threaded end-to-end suite (CTest label `threaded`,
// the ThreadSanitizer target).
//
// Real TCP over loopback, real UDP heartbeats, real client threads.
// Covers the tentpole scenario — two remote applications with DIFFERENT
// QoS tuples watching the same peer through one shared service, each
// notified within its own detection bound and recovering to Trust when
// the peer returns — plus the session-defence mechanics: lease expiry
// for half-open clients, eviction of slow readers, and malformed-stream
// drops. Timing slack is generous (TSan slows everything); the bounds
// asserted are still the paper-level ones.

#include "api/fdaas_server.hpp"

#include <gtest/gtest.h>

#include <poll.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/client.hpp"
#include "net/event_loop.hpp"
#include "service/dispatcher.hpp"
#include "service/heartbeat_sender.hpp"
#include "shard/sharded_monitor_service.hpp"

namespace twfd {
namespace {

using shard::ShardedMonitorService;

constexpr Tick kBeaconInterval = ticks_from_ms(200);

/// A monitored process (same shape as the shard suite's helper), with an
/// explicit bind port so a "recovered" process can reclaim its old UDP
/// address — the service identifies peers by source ip:port.
class Beacon {
 public:
  Beacon(std::uint64_t sender_id, std::uint16_t service_port,
         std::uint16_t bind_port = 0)
      : loop_(std::make_unique<net::EventLoop>(bind_port)) {
    port_ = loop_->local_port();
    thread_ = std::thread([this, sender_id, service_port] {
      service::Dispatcher dispatch(loop_->runtime());
      service::HeartbeatSender sender(
          loop_->runtime(),
          {.sender_id = sender_id, .base_interval = kBeaconInterval});
      dispatch.on_interval_request(
          [&](PeerId from, const net::IntervalRequestMsg& msg) {
            sender.handle_interval_request(from, msg);
          });
      sender.add_target(
          loop_->add_peer(net::SocketAddress::loopback(service_port)));
      sender.start();
      while (!stop_.load(std::memory_order_acquire)) {
        loop_->run_for(ticks_from_ms(50));
      }
      sender.stop();
    });
  }

  ~Beacon() { crash(); }

  void crash() {
    stop_.store(true, std::memory_order_release);
    loop_->wake();
    if (thread_.joinable()) thread_.join();
  }

  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] net::SocketAddress address() const {
    return net::SocketAddress::loopback(port_);
  }

 private:
  std::unique_ptr<net::EventLoop> loop_;
  std::uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// One remote application: its own thread owning one api::Client,
/// pumping events and recording the arrival instant of each transition.
class Subscriber {
 public:
  Subscriber(std::uint16_t api_port, net::SocketAddress peer,
             std::uint64_t sender_id, std::string app,
             config::QosRequirements qos) {
    thread_ = std::thread([this, api_port, peer, sender_id,
                           app = std::move(app), qos] {
      api::Client client(net::SocketAddress::loopback(api_port));
      client.set_event_handler([this](const api::EventMsg& event) {
        const auto now = std::chrono::steady_clock::now().time_since_epoch();
        const auto ns =
            std::chrono::duration_cast<std::chrono::nanoseconds>(now).count();
        if (event.output == detect::Output::Suspect) {
          suspect_at_ns_.store(ns, std::memory_order_release);
        } else if (suspect_at_ns_.load(std::memory_order_acquire) != 0) {
          trust_after_suspect_at_ns_.store(ns, std::memory_order_release);
        }
      });
      sub_ = client.subscribe(peer, sender_id, app, qos);
      ready_.store(true, std::memory_order_release);
      while (!stop_.load(std::memory_order_acquire)) {
        if (!client.pump_for(ticks_from_ms(50))) {
          pump_failed_.store(true, std::memory_order_release);
          return;
        }
      }
      client.unsubscribe(sub_);
    });
  }

  ~Subscriber() { join(); }

  void join() {
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
  }

  [[nodiscard]] bool ready() const {
    return ready_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::int64_t suspect_at_ns() const {
    return suspect_at_ns_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::int64_t trust_after_suspect_at_ns() const {
    return trust_after_suspect_at_ns_.load(std::memory_order_acquire);
  }
  [[nodiscard]] bool pump_failed() const {
    return pump_failed_.load(std::memory_order_acquire);
  }

 private:
  std::thread thread_;
  std::uint64_t sub_ = 0;
  std::atomic<bool> ready_{false};
  std::atomic<bool> stop_{false};
  std::atomic<bool> pump_failed_{false};
  std::atomic<std::int64_t> suspect_at_ns_{0};
  std::atomic<std::int64_t> trust_after_suspect_at_ns_{0};
};

[[nodiscard]] std::int64_t now_ns() {
  const auto now = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(now).count();
}

bool wait_until(const std::function<bool()>& pred,
                std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return true;
}

// The tentpole: two applications, one peer, two QoS tuples, one shared
// service — crash detected within each application's own T_D^U, Trust
// restored when the process returns on the same address.
TEST(FdaasServer, TwoClientsDifferentQosDetectCrashAndRecovery) {
  ShardedMonitorService service({.shards = 2});
  service.start();
  api::FdaasServer server(service, {});
  server.start();

  auto beacon = std::make_unique<Beacon>(1, service.port());
  const auto peer = beacon->address();
  const std::uint16_t beacon_port = beacon->port();

  constexpr double kTdTight = 0.8;  // application A: aggressive detection
  constexpr double kTdLoose = 2.0;  // application B: relaxed detection
  Subscriber a(server.port(), peer, 1, "appA", {kTdTight, 1e-3, 4.0});
  Subscriber b(server.port(), peer, 1, "appB", {kTdLoose, 1e-3, 6.0});
  ASSERT_TRUE(wait_until([&] { return a.ready() && b.ready(); },
                         std::chrono::milliseconds(5000)));

  // Warm-up: both seeded Trust, heartbeats flowing, no transition yet.
  std::this_thread::sleep_for(std::chrono::milliseconds(1200));
  EXPECT_EQ(a.suspect_at_ns(), 0);
  EXPECT_EQ(b.suspect_at_ns(), 0);

  const std::int64_t crash_ns = now_ns();
  beacon->crash();
  beacon.reset();

  ASSERT_TRUE(wait_until(
      [&] { return a.suspect_at_ns() != 0 && b.suspect_at_ns() != 0; },
      std::chrono::milliseconds(8000)))
      << "both subscribers must be told about the crash";

  // Wall-clock detection bound per application: T_D^U plus scheduler
  // slack (heartbeat cadence + CI/TSan stalls).
  const double kSlackS = 2.0;
  const double a_detect_s = static_cast<double>(a.suspect_at_ns() - crash_ns) / 1e9;
  const double b_detect_s = static_cast<double>(b.suspect_at_ns() - crash_ns) / 1e9;
  EXPECT_LT(a_detect_s, kTdTight + kSlackS);
  EXPECT_LT(b_detect_s, kTdLoose + kSlackS);

  // Recovery: the process returns on the SAME udp address; both
  // applications must see Trust again.
  auto revived = std::make_unique<Beacon>(1, service.port(), beacon_port);
  ASSERT_EQ(revived->port(), beacon_port);
  ASSERT_TRUE(wait_until(
      [&] {
        return a.trust_after_suspect_at_ns() != 0 &&
               b.trust_after_suspect_at_ns() != 0;
      },
      std::chrono::milliseconds(8000)))
      << "recovery must propagate to both subscribers";

  a.join();
  b.join();
  EXPECT_FALSE(a.pump_failed());
  EXPECT_FALSE(b.pump_failed());

  auto stats = server.stats();
  EXPECT_EQ(stats.sessions_accepted, 2u);
  EXPECT_GE(stats.events_pushed, 4u);  // >= 2 Suspect + 2 Trust
  EXPECT_EQ(stats.frames_malformed, 0u);
  EXPECT_EQ(stats.slow_evictions, 0u);
  EXPECT_EQ(stats.lease_expiries, 0u);

  revived.reset();
  server.stop();
  service.stop();
}

// A half-open client (network gone, no FIN — here: simply silent) must
// be reclaimed by the lease, its subscriptions released on the shards.
TEST(FdaasServer, SilentSessionExpiresAndReleasesSubscriptions) {
  ShardedMonitorService service({.shards = 2});
  service.start();
  api::FdaasServer server(service, {.lease = ticks_from_ms(600)});
  server.start();

  api::Client client(net::SocketAddress::loopback(server.port()));
  client.subscribe(net::SocketAddress::loopback(45100), 3, "halfopen",
                   {4.0, 1e-3, 4.0});
  service.poll_events();
  ASSERT_EQ(service.view()->entries.size(), 1u);

  // Go silent: no pings, no reads. The server must expire the session.
  ASSERT_TRUE(wait_until(
      [&] { return server.stats().lease_expiries >= 1; },
      std::chrono::milliseconds(5000)));

  auto stats = server.stats();
  EXPECT_EQ(stats.lease_expiries, 1u);
  EXPECT_EQ(stats.sessions_active, 0u);
  EXPECT_EQ(stats.subscriptions_active, 0u);

  // The shard-side subscription is gone too.
  service.poll_events();
  EXPECT_TRUE(service.view()->entries.empty());

  // The client finds out the moment it touches the connection again.
  EXPECT_FALSE(client.pump_for(ticks_from_ms(300)));

  server.stop();
  service.stop();
}

/// Blocking send over a raw non-blocking conn (test-side convenience).
void raw_send(net::TcpConn& conn, const std::vector<std::byte>& frame) {
  std::size_t sent = 0;
  while (sent < frame.size()) {
    const auto w = conn.write_some(std::span(frame).subspan(sent));
    ASSERT_NE(w.status, net::TcpConn::IoStatus::kClosed);
    if (w.status == net::TcpConn::IoStatus::kWouldBlock) {
      pollfd pfd{conn.fd(), POLLOUT, 0};
      ::poll(&pfd, 1, 100);
    }
    sent += w.bytes;
  }
}

/// Blocks until one frame decodes from `conn` or `timeout` elapses.
std::optional<api::ControlMessage> raw_read_frame(
    net::TcpConn& conn, api::FrameAssembler& rx,
    std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  for (;;) {
    if (auto body = rx.next()) return api::decode_body(*body);
    if (std::chrono::steady_clock::now() >= deadline) return std::nullopt;
    pollfd pfd{conn.fd(), POLLIN, 0};
    ::poll(&pfd, 1, 50);
    std::byte buf[4096];
    const auto r = conn.read_some(buf);
    if (r.status == net::TcpConn::IoStatus::kClosed) return std::nullopt;
    if (r.status == net::TcpConn::IoStatus::kOk) {
      rx.push(std::span<const std::byte>(buf, r.bytes));
    }
  }
}

// A subscriber that stops reading must be evicted the moment its backlog
// exceeds the cap — without delaying a healthy subscriber and without
// ever blocking the API thread or the shards.
TEST(FdaasServer, SlowClientIsEvictedWithoutHurtingHealthyOne) {
  ShardedMonitorService service({.shards = 2});
  service.start();
  // Tiny send budget so backpressure trips deterministically: the socket
  // buffers absorb a few KiB, then the 2 KiB user-space queue overflows
  // and the session is evicted.
  api::FdaasServer server(service,
                          {.max_send_queue_bytes = 2048,
                           .conn_sndbuf_bytes = 4096});
  server.start();

  // The slow client is a raw connection with a shrunken receive buffer
  // (so loopback TCP stops absorbing quickly): it subscribes, reads the
  // ack, then never reads again.
  auto slow = net::TcpConn::connect(net::SocketAddress::loopback(server.port()),
                                    ticks_from_sec(5));
  ASSERT_TRUE(slow.has_value());
  slow->set_recv_buffer(4096);
  raw_send(*slow, api::encode_frame(api::SubscribeRequest{
                      1, net::SocketAddress::loopback(45200), 5, "slow",
                      {4.0, 1e-3, 4.0}}));
  api::FrameAssembler slow_rx;
  const auto ack =
      raw_read_frame(*slow, slow_rx, std::chrono::milliseconds(5000));
  ASSERT_TRUE(ack.has_value());
  const auto* ok = std::get_if<api::SubscribeOk>(&*ack);
  ASSERT_NE(ok, nullptr);
  const std::uint64_t slow_sub = ok->subscription_id;

  // The healthy client keeps pumping on its own thread.
  std::atomic<std::uint64_t> healthy_received{0};
  std::atomic<std::uint64_t> healthy_sub{0};
  std::atomic<bool> healthy_ready{false};
  std::atomic<bool> stop{false};
  std::thread healthy_thread([&] {
    api::Client healthy(net::SocketAddress::loopback(server.port()));
    healthy.set_event_handler([&](const api::EventMsg&) {
      healthy_received.fetch_add(1, std::memory_order_relaxed);
    });
    healthy_sub.store(healthy.subscribe(net::SocketAddress::loopback(45201), 6,
                                        "healthy", {4.0, 1e-3, 4.0}),
                      std::memory_order_release);
    healthy_ready.store(true, std::memory_order_release);
    while (!stop.load(std::memory_order_acquire)) {
      if (!healthy.pump_for(ticks_from_ms(20))) return;
    }
  });
  ASSERT_TRUE(wait_until([&] { return healthy_ready.load(); },
                         std::chrono::milliseconds(5000)));

  // Push events at BOTH subscriptions through the real delivery path,
  // letting the healthy client catch up each round so only the
  // non-reading session builds backlog. Bounded rounds: the slow session
  // must trip the cap long before the budget runs out.
  std::uint64_t healthy_target = 0;
  bool evicted = false;
  int round = 0;
  for (; round < 100 && !evicted; ++round) {
    std::vector<ShardedMonitorService::StatusEvent> batch;
    for (int i = 0; i < 50; ++i) {
      const auto output =
          i % 2 == 0 ? detect::Output::Suspect : detect::Output::Trust;
      batch.push_back({slow_sub, "slow", output, ticks_from_ms(round), 0});
      batch.push_back({healthy_sub.load(std::memory_order_acquire), "healthy",
                       output, ticks_from_ms(round), 0});
      ++healthy_target;
    }
    server.inject_events(std::move(batch));
    ASSERT_TRUE(wait_until(
        [&] { return healthy_received.load(std::memory_order_acquire) >=
                     healthy_target; },
        std::chrono::milliseconds(10000)))
        << "healthy delivery stalled behind the slow session at round "
        << round << " (" << healthy_received.load() << "/" << healthy_target
        << ")";
    evicted = server.stats().slow_evictions >= 1;
  }
  EXPECT_TRUE(evicted) << "slow session never hit the send-queue cap";

  auto stats = server.stats();
  EXPECT_EQ(stats.slow_evictions, 1u);
  EXPECT_EQ(stats.sessions_active, 1u);  // slow gone, healthy alive
  // The slow client's subscription was released on the shards; the
  // healthy one is untouched.
  service.poll_events();
  ASSERT_EQ(service.view()->entries.size(), 1u);
  EXPECT_NE(service.view()->entries[0].subscription, slow_sub);

  // The evicted client observes the close once it drains the buffered
  // events.
  EXPECT_TRUE(wait_until(
      [&] {
        std::byte probe[4096];
        for (;;) {
          const auto r = slow->read_some(probe);
          if (r.status == net::TcpConn::IoStatus::kClosed) return true;
          if (r.status == net::TcpConn::IoStatus::kWouldBlock) return false;
        }
      },
      std::chrono::milliseconds(5000)));

  stop.store(true, std::memory_order_release);
  healthy_thread.join();
  server.stop();
  service.stop();
}

// A transition queued before the server started woke nobody and leaves
// the service's pending flag set; the server's start-up drain must clear
// it, or no later transition would ever wake the API thread.
TEST(FdaasServer, TransitionQueuedBeforeStartDoesNotBlockDelivery) {
  ShardedMonitorService service({.shards = 1});
  service.start();
  // A silent peer subscribed straight on the service: its Suspect is
  // queued with no consumer around.
  service.subscribe(net::SocketAddress::loopback(45600), 1, "direct", {0.8, 1e-3, 4.0});
  std::this_thread::sleep_for(std::chrono::milliseconds(2000));

  api::FdaasServer server(service, {});
  server.start();
  std::atomic<bool> suspected{false};
  std::atomic<bool> stop{false};
  std::thread client_thread([&] {
    api::Client client(net::SocketAddress::loopback(server.port()));
    client.set_event_handler([&](const api::EventMsg& e) {
      if (e.output == detect::Output::Suspect) {
        suspected.store(true, std::memory_order_release);
      }
    });
    client.subscribe(net::SocketAddress::loopback(45601), 2, "client", {0.8, 1e-3, 4.0});
    while (!stop.load(std::memory_order_acquire)) {
      if (!client.pump_for(ticks_from_ms(20))) return;
    }
  });
  EXPECT_TRUE(wait_until([&] { return suspected.load(std::memory_order_acquire); },
                         std::chrono::milliseconds(5000)))
      << "the client's Suspect never reached it";
  stop.store(true, std::memory_order_release);
  client_thread.join();
  server.stop();
  service.stop();
}

/// server.stats() with a deadline. A wedged API thread never answers and
/// can never be joined, so the test reports the failure and exits the
/// process instead of hanging the suite.
api::FdaasServer::Stats stats_within(api::FdaasServer& server,
                                std::chrono::milliseconds deadline) {
  auto answer = std::async(std::launch::async, [&server] { return server.stats(); });
  if (answer.wait_for(deadline) != std::future_status::ready) {
    ADD_FAILURE() << "server.stats() did not answer within " << deadline.count()
                  << " ms: the API thread is wedged";
    std::fflush(stdout);
    std::_Exit(1);
  }
  return answer.get();
}

// Eviction inside event delivery: a slow client is closed while the API
// thread is delivering real shard transitions to it, which releases its
// subscriptions from within the drain. The API thread must keep serving.
TEST(FdaasServer, EvictionDuringDeliveryKeepsApiThreadServing) {
  ShardedMonitorService service({.shards = 2});
  service.start();
  api::FdaasServer::Params params;
  params.max_send_queue_bytes = 512;
  params.conn_sndbuf_bytes = 4096;
  api::FdaasServer server(service, params);
  server.start();

  auto slow = net::TcpConn::connect(net::SocketAddress::loopback(server.port()),
                                    ticks_from_sec(5));
  ASSERT_TRUE(slow.has_value());
  slow->set_recv_buffer(4096);
  // Silent peers (nothing ever beats from these ports): every subscription
  // turns Suspect about T_D^U after it was made. One request in flight at
  // a time, so the acks never back up; events that overtake an ack are
  // read and skipped.
  constexpr std::size_t kPeers = 100;
  constexpr std::size_t kAppsPerPeer = 10;
  api::FrameAssembler slow_rx;
  std::uint64_t request = 0;
  for (std::size_t p = 0; p < kPeers; ++p) {
    for (std::size_t a = 0; a < kAppsPerPeer; ++a) {
      raw_send(*slow, api::encode_frame(api::SubscribeRequest{
                          ++request,
                          net::SocketAddress::loopback(
                              static_cast<std::uint16_t>(45300 + p)),
                          p + 1, "app" + std::to_string(a), {2.0, 1e-3, 4.0}}));
      std::optional<api::ControlMessage> reply;
      do {
        reply = raw_read_frame(*slow, slow_rx, std::chrono::milliseconds(5000));
        ASSERT_TRUE(reply.has_value());
      } while (std::holds_alternative<api::EventMsg>(*reply));
      ASSERT_TRUE(std::holds_alternative<api::SubscribeOk>(*reply));
    }
  }
  // From here on the slow client never reads: its Suspect events fill the
  // socket buffers, then the send-queue cap evicts it mid-delivery.

  bool evicted = false;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(15);
  while (!evicted && std::chrono::steady_clock::now() < deadline) {
    evicted = stats_within(server, std::chrono::milliseconds(2000)).slow_evictions >= 1;
    if (!evicted) std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  ASSERT_TRUE(evicted) << "the slow client was never evicted";

  const auto stats = stats_within(server, std::chrono::milliseconds(2000));
  EXPECT_GE(stats.slow_evictions, 1u);
  EXPECT_EQ(stats.sessions_active, 0u);
  EXPECT_EQ(stats.subscriptions_active, 0u);

  // The API thread still serves new sessions.
  api::Client second(net::SocketAddress::loopback(server.port()));
  EXPECT_NE(second.subscribe(net::SocketAddress::loopback(45400), 99, "second",
                             {4.0, 1e-3, 4.0}),
            0u);
  EXPECT_EQ(stats_within(server, std::chrono::milliseconds(2000)).sessions_active, 1u);

  server.stop();
  service.stop();
}

// A poisoned stream (hostile length prefix) must drop the session at
// once and count it; a well-formed garbage body likewise.
TEST(FdaasServer, MalformedFrameDropsSession) {
  ShardedMonitorService service({.shards = 1});
  service.start();
  api::FdaasServer server(service, {});
  server.start();

  auto conn = net::TcpConn::connect(net::SocketAddress::loopback(server.port()),
                                    ticks_from_sec(5));
  ASSERT_TRUE(conn.has_value());

  // Hostile length prefix: 2 GiB body.
  const std::uint8_t poison[] = {0xff, 0xff, 0xff, 0x7f, 0xde, 0xad};
  std::size_t sent = 0;
  const auto bytes = std::as_bytes(std::span(poison));
  while (sent < bytes.size()) {
    const auto w = conn->write_some(bytes.subspan(sent));
    ASSERT_NE(w.status, net::TcpConn::IoStatus::kClosed);
    sent += w.bytes;
  }

  // The server must close the connection (EOF on our side) promptly.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(5000);
  bool closed = false;
  while (!closed && std::chrono::steady_clock::now() < deadline) {
    pollfd pfd{conn->fd(), POLLIN, 0};
    ::poll(&pfd, 1, 100);
    std::byte buf[256];
    const auto r = conn->read_some(buf);
    closed = r.status == net::TcpConn::IoStatus::kClosed;
  }
  EXPECT_TRUE(closed);

  auto stats = server.stats();
  EXPECT_GE(stats.frames_malformed, 1u);
  EXPECT_EQ(stats.sessions_active, 0u);

  server.stop();
  service.stop();
}

}  // namespace
}  // namespace twfd
