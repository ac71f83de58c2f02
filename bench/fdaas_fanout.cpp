// Engineering bench: EVENT fan-out throughput of the FDaaS wire API.
//
// C clients connect to an FdaasServer over loopback TCP, each holding
// one subscription; the bench injects Suspect/Trust transitions through
// the server's real push path (routing, per-session send queues, flush)
// and measures end-to-end delivered events/sec — from first injection
// until every client has decoded its full share. Two sweeps: client
// count at a fixed shard count, then shard count at a fixed client
// count (injected events skip the shard event queues, which the API
// thread drains only when a shard wakes it with a real transition, so
// shard count mainly probes subscribe-path fan-in, not delivery).
//
// Knobs: FD_BENCH_FANOUT_EVENTS (events per client, default 2000),
// FD_BENCH_FANOUT_TIMEOUT_S (per-run delivery deadline, default 30).
//
// Emits BENCH_fdaas_fanout.json via bench::emit_json.

#include <atomic>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/client.hpp"
#include "api/fdaas_server.hpp"
#include "bench_common.hpp"
#include "common/table.hpp"
#include "shard/sharded_monitor_service.hpp"

using namespace twfd;

namespace {

long env_long(const char* name, long fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::atol(v);
}

// Feasible under the service's default assumed network (same tuple the
// shard tests use): T_D <= 4s, rate <= 1e-3/s, T_M <= 4s.
constexpr config::QosRequirements kQos{4.0, 1e-3, 4.0};

struct ClientSlot {
  std::atomic<std::uint64_t> received{0};
  std::atomic<std::uint64_t> sub{0};
  std::atomic<bool> ready{false};
};

struct RunResult {
  std::size_t clients = 0;
  std::size_t shards = 0;
  std::uint64_t events = 0;
  double elapsed_ms = 0;
  double events_per_sec = 0;
  std::uint64_t slow_evictions = 0;
};

RunResult run(std::size_t clients, std::size_t shards, long events_per_client,
              long timeout_s) {
  shard::ShardedMonitorService service({.shards = shards});
  service.start();
  api::FdaasServer server(service, {});
  server.start();
  const auto api_addr = net::SocketAddress::loopback(server.port());

  std::vector<std::unique_ptr<ClientSlot>> slots;
  for (std::size_t i = 0; i < clients; ++i) {
    slots.push_back(std::make_unique<ClientSlot>());
  }
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (std::size_t i = 0; i < clients; ++i) {
    threads.emplace_back([&, i] {
      ClientSlot& slot = *slots[i];
      api::Client client(api_addr);
      client.set_event_handler([&slot](const api::EventMsg&) {
        slot.received.fetch_add(1, std::memory_order_relaxed);
      });
      // Dead peers: nothing heartbeats them, so the only events flowing
      // are the injected ones and the bench measures pure fan-out.
      const auto peer = net::SocketAddress::parse("10.255.0.1",
                                                  static_cast<std::uint16_t>(i + 1));
      slot.sub.store(client.subscribe(peer, i + 1, "bench", kQos),
                     std::memory_order_release);
      slot.ready.store(true, std::memory_order_release);
      while (!stop.load(std::memory_order_acquire)) {
        if (!client.pump_for(ticks_from_ms(20))) return;
      }
    });
  }

  for (auto& slot : slots) {
    while (!slot->ready.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  }

  SteadyClock clock;
  const Tick t0 = clock.now();
  for (long round = 0; round < events_per_client; ++round) {
    std::vector<shard::ShardedMonitorService::StatusEvent> batch;
    batch.reserve(clients);
    const auto output =
        round % 2 == 0 ? detect::Output::Suspect : detect::Output::Trust;
    for (auto& slot : slots) {
      batch.push_back({slot->sub.load(std::memory_order_acquire), "bench",
                       output, clock.now(), 0});
    }
    server.inject_events(std::move(batch));
  }
  const std::uint64_t target = static_cast<std::uint64_t>(events_per_client);
  const Tick deadline = clock.now() + ticks_from_sec(timeout_s);
  bool all_delivered = false;
  while (!all_delivered && clock.now() < deadline) {
    all_delivered = true;
    for (auto& slot : slots) {
      if (slot->received.load(std::memory_order_acquire) < target) {
        all_delivered = false;
        break;
      }
    }
    if (!all_delivered) std::this_thread::yield();
  }
  const Tick t1 = clock.now();

  stop.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  const auto stats = server.stats();
  server.stop();
  service.stop();

  RunResult r;
  r.clients = clients;
  r.shards = shards;
  for (auto& slot : slots) {
    r.events += slot->received.load(std::memory_order_acquire);
  }
  r.elapsed_ms = static_cast<double>(t1 - t0) / 1e6;
  r.events_per_sec =
      r.elapsed_ms > 0 ? static_cast<double>(r.events) * 1e3 / r.elapsed_ms : 0;
  r.slow_evictions = stats.slow_evictions;
  if (!all_delivered) {
    std::cerr << "warning: delivery deadline hit at clients=" << clients
              << " shards=" << shards << " (received " << r.events << "/"
              << target * clients << ")\n";
  }
  return r;
}

}  // namespace

int main() {
  const long events_per_client = env_long("FD_BENCH_FANOUT_EVENTS", 2000);
  const long timeout_s = env_long("FD_BENCH_FANOUT_TIMEOUT_S", 30);

  std::cout << "fdaas_fanout: EVENT delivery throughput over loopback TCP\n"
            << "events/client=" << events_per_client << "\n\n";

  std::vector<std::pair<std::size_t, std::size_t>> combos = {
      {1, 2}, {2, 2}, {4, 2}, {8, 2}, {16, 2},  // client sweep
      {8, 1}, {8, 4},                           // shard sweep (8,2 above)
  };

  Table table({"clients", "shards", "events", "elapsed_ms", "events_per_sec",
               "slow_evictions"});
  for (const auto& [clients, shards] : combos) {
    const RunResult r = run(clients, shards, events_per_client, timeout_s);
    table.add_row({std::to_string(r.clients), std::to_string(r.shards),
                   std::to_string(r.events), Table::num(r.elapsed_ms, 1),
                   Table::num(r.events_per_sec, 0),
                   std::to_string(r.slow_evictions)});
  }
  bench::emit(table);
  bench::emit_json("fdaas_fanout", table);
  return 0;
}
