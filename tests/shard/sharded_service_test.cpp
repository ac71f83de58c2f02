// ShardedMonitorService: the threaded integration suite (CTest label
// `threaded`, the ThreadSanitizer target).
//
// Covers the three cross-thread mechanisms — control-plane marshaling,
// receive hand-off, event aggregation — plus the headline property: the
// sharded runtime reports the SAME crash-detection verdicts as the
// single-loop FdService on the same workload (parity test).
//
// Real UDP over loopback with real sender threads. QoS {0.8s, 1e-3/s, 4s}
// under the default assumed network yields interval ~0.37s with margin
// ~0.43s — generous enough that scheduler stalls (CI, TSan) do not cause
// false suspicions, while a genuine crash is flagged in well under 2s.

#include "shard/sharded_monitor_service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "net/event_loop.hpp"
#include "service/dispatcher.hpp"
#include "service/fd_service.hpp"
#include "service/heartbeat_sender.hpp"

namespace twfd {
namespace {

using shard::ShardedMonitorService;
using shard::shard_of;

constexpr config::QosRequirements kQos{0.8, 1e-3, 4.0};
constexpr Tick kBeaconInterval = ticks_from_ms(200);

/// A monitored process: its own thread + EventLoop + HeartbeatSender,
/// emitting to the service port until crash()ed. The loop (and hence the
/// source port) is created in the constructor so tests know the beacon's
/// address before any traffic flows.
class Beacon {
 public:
  Beacon(std::uint64_t sender_id, std::uint16_t service_port)
      : loop_(std::make_unique<net::EventLoop>()) {
    port_ = loop_->local_port();
    thread_ = std::thread([this, sender_id, service_port] {
      service::Dispatcher dispatch(loop_->runtime());
      service::HeartbeatSender sender(
          loop_->runtime(), {.sender_id = sender_id, .base_interval = kBeaconInterval});
      dispatch.on_interval_request(
          [&](PeerId from, const net::IntervalRequestMsg& msg) {
            sender.handle_interval_request(from, msg);
          });
      sender.add_target(loop_->add_peer(net::SocketAddress::loopback(service_port)));
      sender.start();
      while (!stop_.load(std::memory_order_acquire)) {
        loop_->run_for(ticks_from_ms(50));
      }
      sender.stop();
    });
  }

  ~Beacon() { crash(); }

  /// Stops heartbeating (simulated process crash). Idempotent.
  void crash() {
    stop_.store(true, std::memory_order_release);
    loop_->wake();
    if (thread_.joinable()) thread_.join();
  }

  [[nodiscard]] net::SocketAddress address() const {
    return net::SocketAddress::loopback(port_);
  }

 private:
  std::unique_ptr<net::EventLoop> loop_;
  std::uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// Polls the service (draining events) until `pred` holds on the current
/// snapshot or `timeout` elapses. Returns the final predicate value.
bool wait_for_view(ShardedMonitorService& svc,
                   const std::function<bool(const ShardedMonitorService::Snapshot&)>& pred,
                   std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  for (;;) {
    svc.poll_events();
    if (pred(*svc.view())) return true;
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
}

std::map<std::string, detect::Output> verdicts(const ShardedMonitorService& svc) {
  std::map<std::string, detect::Output> out;
  for (const auto& e : svc.view()->entries) out[e.app] = e.output;
  return out;
}

TEST(ShardOf, DeterministicAndInRange) {
  const auto addr = net::SocketAddress::loopback(12345);
  for (std::size_t n : {1u, 2u, 4u, 7u, 64u}) {
    const std::size_t s = shard_of(addr, n);
    EXPECT_LT(s, n);
    EXPECT_EQ(s, shard_of(addr, n)) << "must be deterministic";
  }
  EXPECT_EQ(shard_of(addr, 1), 0u);
}

TEST(ShardOf, SpreadsPeersAcrossShards) {
  // 256 distinct ports over 4 shards: every shard must own a healthy
  // fraction — splitmix64 should not collapse the port pattern.
  constexpr std::size_t kShards = 4;
  std::vector<std::size_t> hits(kShards, 0);
  for (std::uint16_t p = 20000; p < 20256; ++p) {
    ++hits[shard_of(net::SocketAddress::loopback(p), kShards)];
  }
  for (std::size_t s = 0; s < kShards; ++s) {
    EXPECT_GT(hits[s], 256 / kShards / 4) << "shard " << s << " starved";
  }
}

TEST(ShardedService, StartStopIsCleanAndIdempotent) {
  ShardedMonitorService svc({.shards = 3});
  EXPECT_FALSE(svc.running());
  EXPECT_NE(svc.port(), 0) << "ephemeral service port must be resolved";
  svc.start();
  EXPECT_TRUE(svc.running());
  svc.stop();
  EXPECT_FALSE(svc.running());
  svc.stop();  // idempotent
  // Stats stay readable after stop (direct, no marshaling).
  const auto stats = svc.shard_stats();
  EXPECT_EQ(stats.size(), 3u);
}

TEST(ShardedService, InfeasibleQosThrowsAndLeavesNoEntry) {
  ShardedMonitorService svc({.shards = 2});
  svc.start();
  // Sub-millisecond detection demands an interval below the service's
  // 1 ms floor; the owning shard rejects and the error crosses threads.
  EXPECT_THROW(svc.subscribe(net::SocketAddress::loopback(45001), 7, "impossible",
                             {0.001, 1e-6, 0.001}),
               std::logic_error);
  EXPECT_TRUE(svc.view()->entries.empty()) << "seeded entry must be rolled back";
  svc.stop();
}

TEST(ShardedService, UnsubscribeRemovesEntryFromView) {
  ShardedMonitorService svc({.shards = 2});
  svc.start();
  const auto id = svc.subscribe(net::SocketAddress::loopback(45002), 9, "ephemeral", kQos);
  ASSERT_EQ(svc.view()->entries.size(), 1u);
  EXPECT_EQ(svc.view()->entries[0].subscription, id);
  EXPECT_EQ(svc.view()->entries[0].app, "ephemeral");
  svc.unsubscribe(id);
  EXPECT_TRUE(svc.view()->entries.empty());
  svc.unsubscribe(id);  // unknown id: no-op
  svc.stop();
}

bool wait_until(const std::function<bool()>& pred, std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return true;
}

/// Subscribes `count` silent peers (nothing ever beats from their ports):
/// each subscription turns Suspect about T_D^U after it was made.
std::set<ShardedMonitorService::SubscriptionId> subscribe_silent(
    ShardedMonitorService& svc, std::uint16_t first_port, std::uint16_t count) {
  std::set<ShardedMonitorService::SubscriptionId> ids;
  for (std::uint16_t i = 0; i < count; ++i) {
    const auto peer = net::SocketAddress::loopback(static_cast<std::uint16_t>(first_port + i));
    ids.insert(svc.subscribe(peer, i + 1, "silent" + std::to_string(i), kQos));
  }
  return ids;
}

/// Drains once; returns the subscriptions whose Suspect it delivered.
std::set<ShardedMonitorService::SubscriptionId> drain_suspects(ShardedMonitorService& svc) {
  std::set<ShardedMonitorService::SubscriptionId> out;
  svc.poll_events([&](const ShardedMonitorService::StatusEvent& e) {
    if (e.output == detect::Output::Suspect) out.insert(e.subscription);
  });
  return out;
}

// The wake-on-first-event hook: one notification per drain cycle, no
// matter how many transitions queue behind the first, and the drain that
// follows hands over all of them.
TEST(ShardedService, EventNotifierFiresOncePerDrain) {
  std::atomic<int> notified{0};  // outlives the service and its hook
  ShardedMonitorService svc({.shards = 2});
  svc.start();
  svc.set_event_notifier([&] { notified.fetch_add(1, std::memory_order_relaxed); });

  const auto ids = subscribe_silent(svc, 45500, 8);
  ASSERT_TRUE(wait_until([&] { return notified.load() >= 1; },
                         std::chrono::milliseconds(5000)))
      << "a real transition must fire the notifier";
  // The other seven Suspects queue behind the first; none of them may
  // notify again before a drain.
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  EXPECT_EQ(notified.load(), 1);
  EXPECT_EQ(drain_suspects(svc), ids);
  EXPECT_EQ(svc.view()->events_seen, ids.size());

  // A later transition, after the drain, notifies again.
  const auto more = subscribe_silent(svc, 45510, 1);
  ASSERT_TRUE(wait_until([&] { return notified.load() >= 2; },
                         std::chrono::milliseconds(5000)));
  EXPECT_EQ(drain_suspects(svc), more);
  EXPECT_EQ(notified.load(), 2);
  svc.set_event_notifier({});
  svc.stop();
}

// Events queued while no notifier is installed leave the pending flag set,
// so a notifier installed afterwards is not called for them: its owner
// must drain once after installing it, and is notified normally from then.
TEST(ShardedService, NotifierInstalledLateIsCoveredByInitialDrain) {
  std::atomic<int> notified{0};  // outlives the service and its hook
  ShardedMonitorService svc({.shards = 2});
  svc.start();
  const auto early = subscribe_silent(svc, 45520, 4);
  // No notifier and no drain: the Suspects pile up with the flag set.
  std::this_thread::sleep_for(std::chrono::milliseconds(2500));

  svc.set_event_notifier([&] { notified.fetch_add(1, std::memory_order_relaxed); });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_EQ(notified.load(), 0) << "the flag was already set: nobody is woken";

  // The owner's initial drain picks up everything queued before the hook.
  EXPECT_EQ(drain_suspects(svc), early);

  const auto later = subscribe_silent(svc, 45530, 1);
  ASSERT_TRUE(wait_until([&] { return notified.load() >= 1; },
                         std::chrono::milliseconds(5000)))
      << "after the initial drain the hook must fire on the next transition";
  EXPECT_EQ(drain_suspects(svc), later);
  svc.set_event_notifier({});
  svc.stop();
}

// The tentpole end-to-end: single-socket mode forces every datagram
// through shard 0, so detection working at all for peers owned by shards
// 1..3 proves the hash hand-off + re-injection path.
TEST(ShardedService, SingleSocketHandoffDetectsCrashes) {
  ShardedMonitorService svc(
      {.shards = 4, .receive_mode = ShardedMonitorService::ReceiveMode::kSingleSocket});
  svc.start();

  constexpr std::size_t kBeacons = 6;
  std::vector<std::unique_ptr<Beacon>> beacons;
  std::size_t foreign = 0;  // beacons owned by a shard other than 0
  for (std::size_t i = 0; i < kBeacons; ++i) {
    beacons.push_back(std::make_unique<Beacon>(i + 1, svc.port()));
    if (svc.shard_for(beacons[i]->address()) != 0) ++foreign;
  }
  for (std::size_t i = 0; i < kBeacons; ++i) {
    svc.subscribe(beacons[i]->address(), i + 1, "app" + std::to_string(i), kQos);
  }

  // Warm-up: everyone heartbeating -> all Trust (seeded Trust holds, and
  // any transient false suspicion must recover).
  ASSERT_TRUE(wait_for_view(
      svc,
      [](const auto& snap) {
        if (snap.entries.size() != kBeacons) return false;
        for (const auto& e : snap.entries)
          if (e.output != detect::Output::Trust) return false;
        return true;
      },
      std::chrono::milliseconds(3000)));

  beacons[0]->crash();
  beacons[3]->crash();

  ASSERT_TRUE(wait_for_view(
      svc,
      [](const auto& snap) {
        for (const auto& e : snap.entries) {
          const bool crashed = e.app == "app0" || e.app == "app3";
          if (crashed != (e.output == detect::Output::Suspect)) return false;
        }
        return true;
      },
      std::chrono::milliseconds(5000)))
      << "crashed peers must be Suspected and live peers Trusted";

  const auto total = svc.merged_stats();
  EXPECT_GT(total.service_heartbeats, 0u);
  EXPECT_GT(total.dispatcher_heartbeats, 0u);
  EXPECT_EQ(total.dispatcher_malformed, 0u);
  EXPECT_EQ(total.events_dropped, 0u);
  if (foreign > 0) {
    EXPECT_GT(total.handoff_out, 0u)
        << foreign << " beacons hash to shards 1..3; their heartbeats must be handed off";
    EXPECT_GT(total.loop.datagrams_injected, 0u);
    EXPECT_GT(total.loop.wakeups_cross, 0u);
    // Hand-offs move per receive batch: at least one flush happened, and
    // never more than one flush command per forwarded datagram.
    EXPECT_GT(total.handoff_batches, 0u);
    EXPECT_LE(total.handoff_batches, total.handoff_out);
  }
  EXPECT_GT(total.loop.rx_batches, 0u);
  EXPECT_GE(total.loop.rx_batch_max, total.loop.rx_batch_min);

  const auto per_shard = svc.shard_stats();
  std::uint64_t receiving_shards = 0;
  for (const auto& st : per_shard) {
    if (st.loop.datagrams_received > 0) ++receiving_shards;
  }
  EXPECT_EQ(receiving_shards, 1u) << "single-socket mode: only shard 0 receives";

  svc.stop();
  // Post-stop stats remain readable and consistent.
  EXPECT_GE(svc.merged_stats().service_heartbeats, total.service_heartbeats);
}

TEST(ShardedService, ReusePortModeDetectsCrash) {
  ShardedMonitorService svc(
      {.shards = 2, .receive_mode = ShardedMonitorService::ReceiveMode::kReusePort});
  svc.start();

  std::vector<std::unique_ptr<Beacon>> beacons;
  for (std::size_t i = 0; i < 3; ++i) {
    beacons.push_back(std::make_unique<Beacon>(i + 1, svc.port()));
    svc.subscribe(beacons[i]->address(), i + 1, "rp" + std::to_string(i), kQos);
  }

  ASSERT_TRUE(wait_for_view(
      svc,
      [](const auto& snap) {
        if (snap.entries.size() != 3u) return false;
        for (const auto& e : snap.entries)
          if (e.output != detect::Output::Trust) return false;
        return true;
      },
      std::chrono::milliseconds(3000)));

  beacons[1]->crash();

  ASSERT_TRUE(wait_for_view(
      svc,
      [](const auto& snap) {
        for (const auto& e : snap.entries) {
          if (e.app == "rp1") return e.output == detect::Output::Suspect;
        }
        return false;
      },
      std::chrono::milliseconds(5000)));

  const auto total = svc.merged_stats();
  EXPECT_GT(total.service_heartbeats, 0u);
  svc.stop();
}

// Parity: the same workload (N beacons, a subset crashes) through the
// classic single-loop FdService and through the sharded runtime must end
// with identical per-app verdicts.
TEST(ShardedService, ParityWithSingleLoopService) {
  constexpr std::size_t kBeacons = 4;
  const std::set<std::size_t> kCrashed = {1, 2};
  const auto app_name = [](std::size_t i) { return "papp" + std::to_string(i); };

  // --- Single-loop run ---
  std::map<std::string, detect::Output> single_verdicts;
  {
    net::EventLoop loop;
    service::Dispatcher dispatch(loop.runtime());
    service::FdService fd(loop.runtime(), {});
    dispatch.on_heartbeat([&](PeerId from, const net::HeartbeatMsg& m, Tick at) {
      fd.handle_heartbeat(from, m, at);
    });

    std::vector<std::unique_ptr<Beacon>> beacons;
    std::vector<service::FdService::SubscriptionId> subs;
    for (std::size_t i = 0; i < kBeacons; ++i) {
      beacons.push_back(std::make_unique<Beacon>(i + 1, loop.local_port()));
      subs.push_back(fd.subscribe(loop.add_peer(beacons[i]->address()), i + 1,
                                  app_name(i), kQos,
                                  [](const service::FdService::StatusEvent&) {}));
    }

    loop.run_for(ticks_from_ms(1500));
    for (std::size_t i : kCrashed) beacons[i]->crash();
    loop.run_for(ticks_from_ms(2500));
    // Ride out any stall-induced transient: give live peers a chance to
    // recover to Trust before taking the final reading.
    for (int retry = 0; retry < 6; ++retry) {
      bool settled = true;
      for (std::size_t i = 0; i < kBeacons; ++i) {
        const auto expect = kCrashed.count(i) ? detect::Output::Suspect
                                              : detect::Output::Trust;
        if (fd.output(subs[i]) != expect) settled = false;
      }
      if (settled) break;
      loop.run_for(ticks_from_ms(500));
    }
    for (std::size_t i = 0; i < kBeacons; ++i) {
      single_verdicts[app_name(i)] = fd.output(subs[i]);
    }
  }

  // --- Sharded run (single-socket: exercises hand-off too) ---
  std::map<std::string, detect::Output> sharded_verdicts;
  {
    ShardedMonitorService svc(
        {.shards = 4,
         .receive_mode = ShardedMonitorService::ReceiveMode::kSingleSocket});
    svc.start();
    std::vector<std::unique_ptr<Beacon>> beacons;
    for (std::size_t i = 0; i < kBeacons; ++i) {
      beacons.push_back(std::make_unique<Beacon>(i + 1, svc.port()));
      svc.subscribe(beacons[i]->address(), i + 1, app_name(i), kQos);
    }

    std::this_thread::sleep_for(std::chrono::milliseconds(1500));
    svc.poll_events();
    for (std::size_t i : kCrashed) beacons[i]->crash();

    ASSERT_TRUE(wait_for_view(
        svc,
        [&](const auto& snap) {
          if (snap.entries.size() != kBeacons) return false;
          for (const auto& e : snap.entries) {
            std::size_t i = 0;
            for (; i < kBeacons; ++i)
              if (e.app == app_name(i)) break;
            const auto expect = kCrashed.count(i) ? detect::Output::Suspect
                                                  : detect::Output::Trust;
            if (e.output != expect) return false;
          }
          return true;
        },
        std::chrono::milliseconds(6000)));
    sharded_verdicts = verdicts(svc);
    svc.stop();
  }

  // The headline assertion: identical verdict maps.
  ASSERT_EQ(single_verdicts.size(), kBeacons);
  EXPECT_EQ(single_verdicts, sharded_verdicts);
  for (std::size_t i = 0; i < kBeacons; ++i) {
    const auto expect =
        kCrashed.count(i) ? detect::Output::Suspect : detect::Output::Trust;
    EXPECT_EQ(single_verdicts[app_name(i)], expect) << app_name(i);
    EXPECT_EQ(sharded_verdicts[app_name(i)], expect) << app_name(i);
  }
}

}  // namespace
}  // namespace twfd
