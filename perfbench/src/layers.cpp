// Per-layer probes (traced runs). Each probe times the benchmark's own
// calls into one layer, on a private instance fed the workload's shape:
// its peers, its apps' QoS tuples, its heartbeat interval and its
// silence schedule. Nothing here reaches inside the library.
#include <poll.h>

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "api/client.hpp"
#include "api/fdaas_server.hpp"
#include "net/event_loop.hpp"
#include "net/timer_wheel.hpp"
#include "net/udp_socket.hpp"
#include "net/wire.hpp"
#include "obs/metrics.hpp"
#include "obs/qos_tracker.hpp"
#include "service/dispatcher.hpp"
#include "service/fd_service.hpp"
#include "shard/sharded_monitor_service.hpp"
#include "trace/scenario.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace twfd;

namespace {

constexpr config::NetworkBehaviour kAssumedNetwork{0.01, 1e-4};  // FdService default

/// config: Chen's configuration procedure with the workload's tuples.
double config_probe(const Shape& shape) {
  Scope span("config.chen_configure");
  std::vector<double> us;
  for (int i = 0; i < 500; ++i) {
    for (const double td : shape.td_s) {
      const std::int64_t t0 = now_ns();
      const auto cfg = config::chen_configure(tuple_for(td), kAssumedNetwork);
      us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
      if (!cfg.feasible) throw std::runtime_error("workload QoS tuple is infeasible");
    }
  }
  return median(us);
}

struct RxResult {
  double ns_per_dgram = 0;
  double dgrams_per_batch = 0;
  std::vector<std::vector<std::byte>> samples;
};

/// net: UdpSocket::receive_batch fed the workload's live datagram stream
/// (the generator at the workload's rate), drained the way the event
/// loop drains: wait for readability, then batch until empty.
RxResult rx_probe(const Shape& shape, std::uint64_t seed) {
  Scope span("net.receive_batch");
  net::UdpSocket sock(net::UdpSocket::Options{.port = 0, .rcvbuf_bytes = 8 << 20});
  Generator gen(shape.peers, shape.interval, seed, sock.local_port());
  gen.start();
  RxResult r;
  std::uint64_t dgrams = 0, batches = 0;
  std::int64_t busy = 0;
  const std::int64_t end = now_ns() + 1'500'000'000;
  while (now_ns() < end) {
    pollfd pfd{sock.fd(), POLLIN, 0};
    if (::poll(&pfd, 1, 50) <= 0) continue;
    for (;;) {
      const std::int64_t t0 = now_ns();
      const auto items = sock.receive_batch();
      busy += now_ns() - t0;
      if (items.empty()) break;
      ++batches;
      dgrams += items.size();
      for (const auto& it : items) {
        if (r.samples.size() < 50'000) r.samples.emplace_back(it.data.begin(), it.data.end());
      }
    }
  }
  gen.stop();
  r.ns_per_dgram = static_cast<double>(busy) / static_cast<double>(std::max<std::uint64_t>(1, dgrams));
  r.dgrams_per_batch =
      static_cast<double>(dgrams) / static_cast<double>(std::max<std::uint64_t>(1, batches));
  return r;
}

/// net: decode over the datagrams the RX probe received.
double decode_probe(const std::vector<std::vector<std::byte>>& samples) {
  if (samples.empty()) return 0;
  Scope span("net.decode");
  std::uint64_t ok = 0, calls = 0;
  const std::int64_t t0 = now_ns();
  do {
    for (const auto& s : samples) {
      ok += net::decode(std::span<const std::byte>(s.data(), s.size())).has_value() ? 1 : 0;
      ++calls;
    }
  } while (calls < 1'000'000);
  const std::int64_t t1 = now_ns();
  if (ok != calls) throw std::runtime_error("decode rejected a generated heartbeat");
  return static_cast<double>(t1 - t0) / static_cast<double>(calls);
}

/// net: TimerWheel::reschedule at the workload's live-timer count (one
/// freshness timer per subscription), re-armed in heartbeat order.
double timer_probe(const Shape& shape, std::uint64_t seed) {
  Scope span("net.timer_reschedule");
  TimerStats stats;
  net::TimerWheel wheel(0, &stats);
  const std::size_t apps = shape.td_s.size();
  Rng rng(mix64(seed ^ 0x74696d));
  std::vector<Tick> phase(shape.peers);
  for (auto& p : phase) p = static_cast<Tick>(rng.below(static_cast<std::uint64_t>(shape.interval)));
  std::vector<TimerId> ids;
  ids.reserve(shape.peers * apps);
  for (std::size_t p = 0; p < shape.peers; ++p) {
    for (std::size_t a = 0; a < apps; ++a) {
      ids.push_back(wheel.schedule(phase[p] + ticks_from_seconds(shape.td_s[a]), [] {}));
    }
  }
  std::uint64_t calls = 0, hits = 0;
  std::int64_t busy = 0;
  for (Tick round = 1; calls < 2'000'000 || round < 5; ++round) {
    wheel.advance_to(round * shape.interval);
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const std::size_t p = i / apps;
      hits += wheel.reschedule(ids[i], round * shape.interval + phase[p] +
                                           ticks_from_seconds(shape.td_s[i % apps]))
                  ? 1
                  : 0;
    }
    busy += now_ns() - t0;
    calls += ids.size();
  }
  if (hits != calls) throw std::runtime_error("timer reschedule missed a live timer");
  return static_cast<double>(busy) / static_cast<double>(calls);
}

struct IngestResult {
  double ingest_ns = 0;
  double handle_ns = 0;
  double allocs_per_hb = 0;
  double bytes_per_peer = 0;
  double dispatcher_self_ns = 0;  ///< ingest minus handle_heartbeat
};

/// service: Dispatcher::ingest on a private loop + dispatcher + FdService
/// holding the workload's peers and subscriptions (wired with an obs
/// registry and QosTracker, as the daemon wires them). Heartbeats carry
/// synthetic arrival stamps that run ahead of the real clock, so no
/// freshness timer fires and every heartbeat takes the re-arm path.
IngestResult ingest_probe(const Shape& shape, std::uint64_t seed) {
  Scope span("service.ingest");
  IngestResult r;
  const std::size_t rss0 = rss_bytes();
  Generator addrs(shape.peers, shape.interval, seed, 9);  // addresses and ids only
  obs::Registry registry;
  obs::QosTracker tracker(registry);
  net::EventLoop loop(0);
  service::Dispatcher dispatcher(loop.runtime());
  service::FdService::Params fp;
  fp.qos_tracker = &tracker;
  fp.obs_heartbeats = &registry.sharded_counter("perfbench_heartbeats_total", "probe", 1);
  service::FdService fd(loop.runtime(), fp);
  bool timed = false;
  std::int64_t handle_busy = 0;  // inside the ingest handler, timed pass only
  dispatcher.on_heartbeat([&](PeerId from, const net::HeartbeatMsg& m, Tick arrival) {
    if (!timed) {
      fd.handle_heartbeat(from, m, arrival);
      return;
    }
    const std::int64_t t0 = now_ns();
    fd.handle_heartbeat(from, m, arrival);
    handle_busy += now_ns() - t0;
  });

  std::vector<PeerId> ids(shape.peers);
  std::vector<std::vector<std::byte>> dgram(shape.peers);
  Rng rng(mix64(seed ^ 0x696e67));
  std::vector<Tick> phase(shape.peers);
  for (std::size_t p = 0; p < shape.peers; ++p) {
    ids[p] = loop.add_peer(addrs.address(p));
    for (std::size_t a = 0; a < shape.td_s.size(); ++a) {
      fd.subscribe(ids[p], addrs.sender_id(p), "app" + std::to_string(a), tuple_for(shape.td_s[a]),
                   [](const service::FdService::StatusEvent&) {});
    }
    dgram[p] = net::encode(net::HeartbeatMsg{addrs.sender_id(p), 1, 0, shape.interval});
    phase[p] = static_cast<Tick>(rng.below(static_cast<std::uint64_t>(shape.interval)));
  }
  const Tick base = loop.now() + ticks_from_sec(5);
  auto round = [&](std::int64_t k) {
    for (std::size_t p = 0; p < shape.peers; ++p) {
      patch_heartbeat(dgram[p].data(), k, base + k * shape.interval);
    }
    const std::int64_t t0 = now_ns();
    for (std::size_t p = 0; p < shape.peers; ++p) {
      const Tick arrival = base + k * shape.interval + phase[p] +
                           static_cast<Tick>(rng.below(200'000));  // <= 0.2 ms jitter
      dispatcher.ingest(ids[p], dgram[p], arrival);
    }
    return now_ns() - t0;
  };
  std::int64_t k = 1;
  for (; k <= 3; ++k) round(k);  // first heartbeats rebuild the detectors
  r.bytes_per_peer = (static_cast<double>(rss_bytes()) - static_cast<double>(rss0)) /
                     static_cast<double>(shape.peers);

  const std::uint64_t hb0 = fd.heartbeats_processed();
  std::int64_t busy = 0;
  const std::uint64_t a0 = alloc_count();
  alloc_counting(true);
  const std::int64_t rounds = std::max<std::int64_t>(5, 1'000'000 / static_cast<std::int64_t>(shape.peers));
  for (std::int64_t i = 0; i < rounds; ++i, ++k) busy += round(k);
  alloc_counting(false);
  const std::uint64_t allocs = alloc_count() - a0;
  const auto hb = static_cast<double>(fd.heartbeats_processed() - hb0);
  if (hb < static_cast<double>(rounds * static_cast<std::int64_t>(shape.peers))) {
    throw std::runtime_error("ingest probe: heartbeats were not applied");
  }
  r.allocs_per_hb = static_cast<double>(allocs) / hb;
  r.ingest_ns = static_cast<double>(busy) / hb;

  // Second pass with the handler timed: handle_heartbeat's own cost, and
  // the dispatcher's self time as this pass's ingest minus it.
  timed = true;
  const std::uint64_t hb1 = fd.heartbeats_processed();
  std::int64_t timed_busy = 0;
  for (std::int64_t i = 0; i < rounds; ++i, ++k) timed_busy += round(k);
  const auto hb_timed = static_cast<double>(fd.heartbeats_processed() - hb1);
  r.handle_ns = static_cast<double>(handle_busy) / hb_timed;
  r.dispatcher_self_ns = static_cast<double>(timed_busy - handle_busy) / hb_timed;
  return r;
}

struct ShardResult {
  std::vector<double> subscribe_us;  // in subscription order
  double poll_us = 0;
  double events_per_poll = 0;
  double handoff_share = 0;
  double late_p99_ms = 0, late_max_ms = 0;
  double interval_requests = 0;
};

/// shard: ShardedMonitorService::subscribe for every (peer, app), then
/// poll_events at the API's 20 ms cadence while the generator runs the
/// workload's silence schedule. The benchmark is the only poller here.
ShardResult shard_probe(const Shape& shape, std::uint64_t seed) {
  ShardResult r;
  obs::Registry registry;
  obs::QosTracker tracker(registry);
  shard::ShardedMonitorService::Params sp;
  sp.shards = 2;
  sp.registry = &registry;
  sp.service.qos_tracker = &tracker;
  shard::ShardedMonitorService service(sp);
  service.start();
  Generator gen(shape.peers, shape.interval, seed, service.port());
  std::vector<bool> flapping;
  gen.set_silences(make_silences(shape, seed, 4'000'000'000, flapping));
  gen.start();
  sleep_until_ns(now_ns() + 2 * shape.interval);
  {
    Scope span("shard.subscribe_all");
    for (std::size_t p = 0; p < shape.peers; ++p) {
      for (std::size_t a = 0; a < shape.td_s.size(); ++a) {
        const std::int64_t t0 = now_ns();
        const auto id = service.subscribe(gen.address(p), gen.sender_id(p),
                                          "app" + std::to_string(a), tuple_for(shape.td_s[a]));
        const std::int64_t t1 = now_ns();
        Spans::record("shard.subscribe", t0, t1, id, span.id());
        r.subscribe_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
      }
    }
  }
  gen.set_epoch(now_ns());
  std::vector<double> poll_us;
  std::uint64_t events = 0;
  const std::int64_t start = now_ns();
  for (std::int64_t tick = start; tick < start + 5'000'000'000; tick += 20'000'000) {
    sleep_until_ns(tick);
    const std::int64_t t0 = now_ns();
    events += service.poll_events([](const shard::ShardedMonitorService::StatusEvent&) {});
    const std::int64_t t1 = now_ns();
    Spans::record("shard.poll_events", t0, t1);
    poll_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
  }
  gen.stop();
  const auto st = service.merged_stats();
  service.stop();
  r.poll_us = median(poll_us);
  r.events_per_poll = static_cast<double>(events) / static_cast<double>(poll_us.size());
  r.handoff_share = static_cast<double>(st.handoff_out) /
                    std::max(1.0, static_cast<double>(st.dispatcher_heartbeats));
  r.late_p99_ms = gen.late_quantile_ms(0.99);
  r.late_max_ms = gen.late_max_ms();
  r.interval_requests = static_cast<double>(gen.interval_requests());
  return r;
}

struct ApiResult {
  double client_subscribe_ms = 0;
  double subscribe_p50_ms = 0, subscribe_p99_ms = 0;
  double deliver_us = 0;
};

/// api: api::Client::subscribe for every (peer, app), then
/// FdaasServer::inject_events timed to the client's read.
ApiResult api_probe(const Shape& shape, std::uint64_t seed) {
  ApiResult r;
  shard::ShardedMonitorService::Params sp;
  sp.shards = 2;
  shard::ShardedMonitorService service(sp);
  service.start();
  api::FdaasServer::Params ap;
  ap.max_subscriptions_per_session = 4 * shape.peers * shape.td_s.size();
  api::FdaasServer server(service, ap);
  server.start();
  Generator addrs(shape.peers, shape.interval, seed, service.port());  // not started
  {
    api::Client client(net::SocketAddress::loopback(server.port()));
    std::vector<std::pair<std::uint64_t, std::int64_t>> reads;
    client.set_event_handler([&](const api::EventMsg& e) {
      if (e.when < 0) reads.emplace_back(static_cast<std::uint64_t>(-e.when), now_ns());
    });
    std::vector<double> sub_ms;
    std::uint64_t first_id = 0;
    Scope all("api.subscribe_all");
    for (std::size_t p = 0; p < shape.peers; ++p) {
      for (std::size_t a = 0; a < shape.td_s.size(); ++a) {
        const std::int64_t t0 = now_ns();
        const auto id = client.subscribe(addrs.address(p), addrs.sender_id(p),
                                         "app" + std::to_string(a), tuple_for(shape.td_s[a]));
        const std::int64_t t1 = now_ns();
        Spans::record("api.client_subscribe", t0, t1, id, all.id());
        sub_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
        if (first_id == 0) first_id = id;
      }
    }
    std::vector<std::int64_t> start;
    for (std::uint64_t k = 1; k <= 200; ++k) {
      shard::ShardedMonitorService::StatusEvent ev;
      ev.subscription = first_id;
      ev.output = detect::Output::Trust;
      ev.when = -static_cast<std::int64_t>(k);
      const std::int64_t t0 = now_ns();
      server.inject_events({ev});
      Spans::record("api.inject_events", t0, now_ns(), k);
      start.push_back(t0);
      client.pump_for(ticks_from_ms(2));
    }
    std::vector<double> deliver;
    for (const auto& [k, recv] : reads) {
      if (k >= 1 && k <= start.size()) {
        deliver.push_back(static_cast<double>(recv - start[k - 1]) * 1e-3);
      }
    }
    r.client_subscribe_ms = median(sub_ms);
    r.subscribe_p50_ms = quantile(sub_ms, 0.50);
    r.subscribe_p99_ms = quantile(sub_ms, 0.99);
    r.deliver_us = median(deliver);
    server.stop();  // closes the session off the delivery path
  }
  service.stop();
  return r;
}

}  // namespace

void replay_probes_for(const Shape& shape, std::uint64_t seed, std::vector<Metric>& out) {
  // The workload's heartbeats over a 10 s window, replayed as one stream.
  trace::WanScenario::Params p;
  p.samples = static_cast<std::int64_t>(shape.peers) * (ticks_from_sec(10) / shape.interval);
  p.seed = seed;
  p.interval = shape.interval;
  const std::int64_t t0 = now_ns();
  trace::Trace t;
  {
    Scope span("trace.build");
    t = trace::WanScenario(p).build();
  }
  replay_probes(t, static_cast<double>(now_ns() - t0) * 1e-9, out);
}

void live_layer_probes(const Shape& shape, std::uint64_t seed, bool have_live_run,
                       std::vector<Metric>& out) {
  out.push_back({"config.chen_configure_us", config_probe(shape), "us"});
  const RxResult rx = rx_probe(shape, seed);
  out.push_back({"net.rx_ns_per_dgram", rx.ns_per_dgram, "ns"});
  out.push_back({"net.rx_dgrams_per_batch", rx.dgrams_per_batch, "count"});
  out.push_back({"net.decode_ns", decode_probe(rx.samples), "ns"});
  out.push_back({"net.timer_reschedule_ns", timer_probe(shape, seed), "ns"});
  const IngestResult in = ingest_probe(shape, seed);
  out.push_back({"service.ingest_ns_per_hb", in.ingest_ns, "ns"});
  out.push_back({"service.handle_heartbeat_ns", in.handle_ns, "ns"});
  out.push_back({"service.allocs_per_hb", in.allocs_per_hb, "count"});
  out.push_back({"service.bytes_per_peer", in.bytes_per_peer, "B"});
  note("dispatcher self time per heartbeat (ingest - handle_heartbeat, timed pass): " +
       fmt(in.dispatcher_self_ns) + " ns");

  ShardResult sh = shard_probe(shape, seed);
  out.push_back({"shard.subscribe_us", median(sh.subscribe_us), "us"});
  // The subscribe cost curve against the subscription count.
  const std::size_t bucket = std::max<std::size_t>(1, sh.subscribe_us.size() / 10);
  std::string curve = "shard.subscribe_us by subscription count:";
  for (std::size_t b = 0; b < sh.subscribe_us.size(); b += bucket) {
    const std::size_t e = std::min(b + bucket, sh.subscribe_us.size());
    std::vector<double> part(sh.subscribe_us.begin() + static_cast<std::ptrdiff_t>(b),
                             sh.subscribe_us.begin() + static_cast<std::ptrdiff_t>(e));
    curve += " " + std::to_string(e) + ":" + fmt(median(part), 1);
  }
  note(curve);
  out.push_back({"shard.subscribe_last_tenth_us",
                 median(std::vector<double>(sh.subscribe_us.end() - static_cast<std::ptrdiff_t>(
                                                std::min(bucket, sh.subscribe_us.size())),
                                            sh.subscribe_us.end())),
                 "us"});
  out.push_back({"shard.poll_events_us", sh.poll_us, "us"});
  out.push_back({"shard.events_per_poll", sh.events_per_poll, "count"});
  if (have_live_run) return;  // the live run reported the rest

  const ApiResult api = api_probe(shape, seed);
  out.push_back({"shard.handoff_share", sh.handoff_share, "ratio"});
  out.push_back({"api.client_subscribe_ms", api.client_subscribe_ms, "ms"});
  out.push_back({"api.subscribe_p50_ms", api.subscribe_p50_ms, "ms"});
  out.push_back({"api.subscribe_p99_ms", api.subscribe_p99_ms, "ms"});
  out.push_back({"api.deliver_us", api.deliver_us, "us"});
  out.push_back({"gen.late_p99_ms", sh.late_p99_ms, "ms"});
  out.push_back({"gen.late_max_ms", sh.late_max_ms, "ms"});
  out.push_back({"gen.interval_requests", sh.interval_requests, "count"});
}

}  // namespace perfbench
