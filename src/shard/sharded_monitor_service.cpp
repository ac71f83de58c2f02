#include "shard/sharded_monitor_service.hpp"

#include <algorithm>
#include <chrono>
#include <future>
#include <stdexcept>
#include <utility>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include "common/assert.hpp"

namespace twfd::shard {
namespace {

/// Thrown by the WorkerFault::kCrash test seam; any exception escaping a
/// command or handler kills the worker the same way.
struct WorkerCrash : std::runtime_error {
  WorkerCrash() : std::runtime_error("injected worker crash") {}
};

/// Distinct deterministic per-shard chaos seed (splitmix64 step of the
/// plan seed, keyed by shard index): every shard draws an independent
/// fault schedule, yet the whole run is reproducible from one seed.
std::uint64_t shard_chaos_seed(std::uint64_t base, std::size_t index) {
  std::uint64_t x = base + 0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(index) + 1);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

std::size_t shard_of(const net::SocketAddress& addr, std::size_t shard_count) {
  TWFD_CHECK(shard_count >= 1);
  // splitmix64 finalizer over ip:port — cheap, well-mixed, and identical
  // everywhere a routing decision is made.
  std::uint64_t x =
      (std::uint64_t{addr.ip_host_order} << 16) ^ std::uint64_t{addr.port};
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return static_cast<std::size_t>(x % shard_count);
}

ShardedMonitorService::ShardStats& ShardedMonitorService::ShardStats::operator+=(
    const ShardStats& o) {
  loop += o.loop;
  dispatcher_heartbeats += o.dispatcher_heartbeats;
  dispatcher_malformed += o.dispatcher_malformed;
  service_heartbeats += o.service_heartbeats;
  handoff_out += o.handoff_out;
  handoff_dropped += o.handoff_dropped;
  handoff_batches += o.handoff_batches;
  commands_run += o.commands_run;
  events_dropped += o.events_dropped;
  post_retries += o.post_retries;
  post_stalls += o.post_stalls;
  restarts += o.restarts;
  stalls_detected += o.stalls_detected;
  resubscribed += o.resubscribed;
  degraded += o.degraded;
  pinned += o.pinned;
  chaos += o.chaos;
  return *this;
}

ShardedMonitorService::Shard::Shard(std::size_t idx, const Params& params)
    : index(idx),
      commands(params.command_queue_capacity),
      events(params.event_queue_capacity) {
  staging.resize(params.shards);
}

void ShardedMonitorService::build_shard_runtime(Shard& s) {
  net::UdpSocket::Options opts;
  opts.port = s.bind_port;
  opts.reuse_port = s.reuse_port;
  opts.rcvbuf_bytes = params_.rcvbuf_bytes;
  s.loop = std::make_unique<net::EventLoop>(opts);
  s.dispatcher = std::make_unique<service::Dispatcher>(s.loop->runtime());
  service::FdService::Params service_params = params_.service;
  if (live_heartbeats_ != nullptr) {
    service_params.obs_heartbeats = live_heartbeats_;
    service_params.obs_cell = s.index;
  }
  s.fd = std::make_unique<service::FdService>(s.loop->runtime(), service_params);
  auto* fdp = s.fd.get();
  s.dispatcher->on_heartbeat(
      [fdp](PeerId from, const net::HeartbeatMsg& m, Tick at) {
        fdp->handle_heartbeat(from, m, at);
      });

  Shard* sp = &s;
  if (params_.chaos.any_datagram_faults()) {
    net::FaultPlan plan = params_.chaos;
    plan.seed = shard_chaos_seed(params_.chaos.seed, s.index);
    // The injector re-emits delayed/reordered datagrams from timers, so
    // a foreign datagram can be staged outside a receive batch; the sink
    // flushes hand-offs itself, trading some wake coalescing (chaos is a
    // drill mode) for never stranding a staged datagram.
    s.chaos = std::make_unique<net::FaultInjector>(
        *s.loop, *s.loop, plan,
        [this, sp](const net::SocketAddress& from, std::span<const std::byte> data,
                   Tick arrival) {
          route_datagram(*sp, from, data, arrival);
          flush_handoffs(*sp);
        });
  }

  // The router replaces the Dispatcher's auto-installed handler: owned
  // datagrams go straight into the dispatcher, foreign ones are handed
  // off to their owner's command queue. Hand-off replays re-enter here
  // via inject_datagram with in_handoff set — already-chaosed traffic is
  // never run through the plan a second time.
  s.loop->set_receive_handler(
      [this, sp](PeerId from, std::span<const std::byte> data, Tick arrival) {
        const net::SocketAddress addr = sp->loop->peer_address(from);
        if (sp->chaos && !sp->in_handoff) {
          sp->chaos->offer(addr, data, arrival);
        } else {
          route_datagram(*sp, addr, data, arrival);
        }
      });
  // Foreign datagrams staged by the router are flushed once per receive
  // batch — one bulk command and at most one wake per destination shard.
  s.loop->set_batch_end_handler([this, sp] { flush_handoffs(*sp); });
  s.loop->set_wake_handler([this, sp] { drain_commands(*sp); });
}

ShardedMonitorService::ShardedMonitorService(Params params)
    : params_(std::move(params)) {
  TWFD_CHECK_MSG(params_.shards >= 1, "need at least one shard");
  if (params_.registry != nullptr) {
    live_heartbeats_ = &params_.registry->sharded_counter(
        "twfd_shard_heartbeats_total",
        "Heartbeats applied on the shard hot path (live, per-shard cells).",
        params_.shards);
  }
  const bool reuse =
      params_.receive_mode == ReceiveMode::kReusePort && params_.shards > 1;

  for (std::size_t i = 0; i < params_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(i, params_));
  }

  // Shard 0 resolves the service port (possibly ephemeral); in reuse-port
  // mode every other shard joins it, in single-socket mode they bind
  // ephemeral send-side sockets. Each shard remembers its RESOLVED port
  // so a supervisor rebuild rebinds the same one.
  shards_[0]->bind_port = params_.port;
  shards_[0]->reuse_port = reuse;
  build_shard_runtime(*shards_[0]);
  service_port_ = shards_[0]->loop->local_port();
  shards_[0]->bind_port = service_port_;
  for (std::size_t i = 1; i < params_.shards; ++i) {
    Shard& s = *shards_[i];
    s.reuse_port = reuse;
    s.bind_port = reuse ? service_port_ : std::uint16_t{0};
    build_shard_runtime(s);
  }
}

ShardedMonitorService::~ShardedMonitorService() { stop(); }

void ShardedMonitorService::start() {
  TWFD_CHECK_MSG(!running_, "service already started");
  running_ = true;
  for (auto& sp : shards_) {
    Shard* s = sp.get();
    s->thread = std::thread([this, s] { worker_main(*s); });
  }
  if (params_.supervision.enabled) {
    {
      std::lock_guard lk(sup_mu_);
      sup_stop_ = false;
    }
    supervisor_ = std::thread([this] { supervisor_main(); });
  }
}

void ShardedMonitorService::stop() {
  if (!running_) return;
  // The supervisor goes first so no restart can race the teardown.
  if (supervisor_.joinable()) {
    {
      std::lock_guard lk(sup_mu_);
      sup_stop_ = true;
    }
    sup_cv_.notify_all();
    supervisor_.join();
  }
  // Stop flag first, then wake: the worker's wake handler re-checks the
  // flag, so the wake that follows the store can never be lost even if
  // run_until resets the loop's own stop latch.
  for (auto& sp : shards_) {
    sp->stop_requested.store(true, std::memory_order_release);
    std::lock_guard lk(sp->swap_mu);
    if (sp->loop) sp->loop->stop();
  }
  for (auto& sp : shards_) {
    if (sp->thread.joinable()) sp->thread.join();
  }
  running_ = false;
  // Discard unexecuted commands — any waiter sees broken_promise rather
  // than hanging — then fold remaining transitions into the view.
  for (auto& sp : shards_) {
    Command cmd;
    while (sp->commands.try_pop(cmd)) cmd = nullptr;
  }
  poll_events();
}

void ShardedMonitorService::maybe_pin(Shard& s) {
  s.pinned.store(false, std::memory_order_relaxed);
  if (!params_.pin_cores) return;
#if defined(__linux__)
  // Pin shard i to the i-th CPU the process is allowed on — robust to
  // sparse/offline CPU ids and cgroup cpusets, unlike assuming ids
  // 0..N-1. Skip gracefully when there are fewer usable cores than
  // shards: pinning two workers to one core is strictly worse than
  // letting the scheduler migrate them.
  cpu_set_t avail;
  CPU_ZERO(&avail);
  if (sched_getaffinity(0, sizeof(avail), &avail) != 0) return;
  const int cores = CPU_COUNT(&avail);
  if (cores <= 0 || shards_.size() > static_cast<std::size_t>(cores)) return;
  int want = static_cast<int>(s.index);
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &avail) && want-- == 0) {
      cpu = c;
      break;
    }
  }
  if (cpu < 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  if (pthread_setaffinity_np(pthread_self(), sizeof(one), &one) == 0) {
    s.pinned.store(true, std::memory_order_relaxed);
  }
#endif
}

void ShardedMonitorService::worker_main(Shard& s) {
  maybe_pin(s);
  // Sliced loop: each slice advances the liveness counter the supervisor
  // watches, so a worker that wedges inside a handler stops advancing and
  // is declared degraded after Supervision::stall_timeout.
  const Tick slice =
      std::max<Tick>(params_.supervision.worker_heartbeat_period, ticks_from_ms(1));
  try {
    while (!s.stop_requested.load(std::memory_order_acquire)) {
      s.liveness.fetch_add(1, std::memory_order_relaxed);
      s.loop->run_until(tick_add_sat(s.loop->now(), slice));
    }
  } catch (...) {
    // A command or handler threw (fault injection, or a genuine defect).
    // Record the crash and fall through: the supervisor rebuilds this
    // shard's runtime and re-seeds its subscriptions.
  }
  s.worker_exited.store(true, std::memory_order_release);
}

void ShardedMonitorService::drain_commands(Shard& s) {
  Command cmd;
  while (s.commands.try_pop(cmd)) {
    ++s.commands_run;
    cmd();
    cmd = nullptr;
  }
  if (s.stop_requested.load(std::memory_order_acquire)) s.loop->stop();
}

void ShardedMonitorService::route_datagram(Shard& s, const net::SocketAddress& from,
                                           std::span<const std::byte> data,
                                           Tick arrival) {
  const std::size_t owner = shard_of(from, shards_.size());
  if (owner == s.index) {
    s.dispatcher->ingest(s.loop->add_peer(from), data, arrival);
    return;
  }
  // Hash hand-off: stage the raw bytes (plus the arrival stamp observed
  // here, so the owner's estimator sees the true receive time) for the
  // owning shard. The stage is flushed once per receive batch.
  HandoffStage& stage = s.staging[owner];
  HandoffStage::Item item;
  item.from = from;
  item.arrival = arrival;
  item.offset = static_cast<std::uint32_t>(stage.bytes.size());
  item.length = static_cast<std::uint32_t>(data.size());
  stage.bytes.insert(stage.bytes.end(), data.begin(), data.end());
  stage.items.push_back(item);
}

void ShardedMonitorService::flush_handoffs(Shard& s) {
  for (std::size_t owner = 0; owner < s.staging.size(); ++owner) {
    HandoffStage& stage = s.staging[owner];
    if (stage.empty()) continue;
    const std::uint64_t count = stage.items.size();
    Shard& dst = *shards_[owner];
    // The whole stage moves into one command; the staging slot is left
    // empty (moved-from) and regrows next batch. Heartbeats are
    // loss-tolerant, so a full queue drops the batch (counted) instead of
    // blocking the receive path. in_handoff marks the replay so the
    // destination's chaos wrapper does not distort the bytes again.
    Command cmd = [dstp = &dst, batch = std::move(stage)] {
      dstp->in_handoff = true;
      for (const HandoffStage::Item& it : batch.items) {
        dstp->loop->inject_datagram(
            it.from,
            std::span<const std::byte>(batch.bytes.data() + it.offset, it.length),
            it.arrival);
      }
      dstp->in_handoff = false;
    };
    stage = HandoffStage{};
    if (!dst.commands.try_push(std::move(cmd))) {
      s.handoff_dropped += count;
      continue;
    }
    s.handoff_out += count;
    ++s.handoff_batches;
    wake_shard(dst);
  }
}

void ShardedMonitorService::wake_shard(Shard& s) {
  std::lock_guard lk(s.swap_mu);
  if (s.loop) s.loop->wake();
}

void ShardedMonitorService::post(Shard& s, Command cmd) {
  // Bounded backoff ladder instead of an unbounded spin: a wedged shard
  // (worker crashed mid-rebuild, or stuck in a handler) must not livelock
  // the control plane. Yield a few rounds, then sleep in 1 ms steps, then
  // give up with an exception the caller can surface.
  constexpr int kYieldRounds = 64;
  constexpr int kSleepRounds = 200;  // 200 x 1 ms ≈ 200 ms worst case
  for (int attempt = 0;; ++attempt) {
    if (s.commands.try_push(std::move(cmd))) break;
    s.post_retries.fetch_add(1, std::memory_order_relaxed);
    if (attempt >= kYieldRounds + kSleepRounds) {
      s.post_stalls.fetch_add(1, std::memory_order_relaxed);
      throw std::runtime_error("shard " + std::to_string(s.index) +
                               ": command queue wedged, post abandoned");
    }
    wake_shard(s);
    if (attempt < kYieldRounds) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  wake_shard(s);
}

void ShardedMonitorService::publish_event(Shard& s, StatusEvent event) {
  if (!s.events.try_push(std::move(event))) {
    s.events_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // Pairs with the exchange(false) at the top of poll_events(): a push
  // that finds the flag already set is seen by the drain that follows.
  if (!events_pending_.exchange(true, std::memory_order_acq_rel)) {
    std::lock_guard lk(notifier_mu_);
    if (event_notifier_) event_notifier_();
  }
}

void ShardedMonitorService::set_event_notifier(std::function<void()> notifier) {
  std::lock_guard lk(notifier_mu_);
  event_notifier_ = std::move(notifier);
}

ShardedMonitorService::SubscriptionId ShardedMonitorService::subscribe(
    const net::SocketAddress& peer, std::uint64_t sender_id, std::string app,
    const config::QosRequirements& qos) {
  return subscribe(peer, sender_id, std::move(app), qos, Initial{});
}

ShardedMonitorService::SubscriptionId ShardedMonitorService::subscribe(
    const net::SocketAddress& peer, std::uint64_t sender_id, std::string app,
    const config::QosRequirements& qos, Initial initial) {
  TWFD_CHECK_MSG(running_, "subscribe() requires a started service");
  const std::size_t idx = shard_for(peer);
  Shard& s = *shards_[idx];
  const SubscriptionId gid = next_sub_id_.fetch_add(1, std::memory_order_relaxed);

  {
    // Seed the view before the shard can emit events for this id, so no
    // transition is ever applied to a missing entry. A restored seed
    // starts at its persisted verdict, not at Trust.
    std::lock_guard lk(agg_mu_);
    state_[gid] = {gid, app, initial.output, initial.since, idx};
    view_dirty_ = true;
  }

  auto prom =
      std::make_shared<std::promise<service::FdService::SubscriptionId>>();
  auto fut = prom->get_future();
  service::FdService::SubscriptionId local = 0;
  try {
    post(s, [this, sp = &s, peer, sender_id, app, qos, gid, prom,
             out = initial.output] {
      try {
        prom->set_value(sp->fd->subscribe(
            sp->loop->add_peer(peer), sender_id, app, qos,
            [this, sp, gid](const service::FdService::StatusEvent& e) {
              publish_event(*sp, {gid, e.app, e.output, e.when, sp->index});
            },
            out));
      } catch (...) {
        prom->set_exception(std::current_exception());
      }
    });
    local = fut.get();  // rethrows infeasible-QoS from the shard thread
  } catch (...) {
    // post() gave up on a wedged shard, or the shard rejected the tuple:
    // roll the seeded view entry back.
    std::lock_guard lk(agg_mu_);
    state_.erase(gid);
    view_dirty_ = true;
    throw;
  }
  std::lock_guard lk(control_mu_);
  subs_[gid] = {idx, local, peer, sender_id, std::move(app), qos};
  return gid;
}

void ShardedMonitorService::unsubscribe(SubscriptionId id) {
  TWFD_CHECK_MSG(running_, "unsubscribe() requires a started service");
  SubRef ref;
  {
    std::lock_guard lk(control_mu_);
    const auto it = subs_.find(id);
    if (it == subs_.end()) return;
    ref = it->second;
  }
  Shard& s = *shards_[ref.shard];
  auto prom = std::make_shared<std::promise<void>>();
  auto fut = prom->get_future();
  post(s, [sp = &s, local = ref.local, prom] {
    sp->fd->unsubscribe(local);
    prom->set_value();
  });
  fut.get();
  // Deregister only after the shard acked: if post() threw on a wedged
  // shard the registry still owns the subscription (and a later restart
  // will re-seed it).
  {
    std::lock_guard lk(control_mu_);
    subs_.erase(id);
  }
  std::lock_guard lk(agg_mu_);
  state_.erase(id);
  view_dirty_ = true;
}

std::vector<ShardedMonitorService::SubscriptionSeed>
ShardedMonitorService::export_seeds() {
  // Join the control registry (what is subscribed) with the published
  // view (what each subscription's current verdict is). Both sides are
  // safe off-shard: the registry under control_mu_, the view as an
  // immutable snapshot. std::map iteration gives subscription-id order.
  const auto snap = view();
  std::vector<SubscriptionSeed> seeds;
  std::lock_guard lk(control_mu_);
  seeds.reserve(subs_.size());
  for (const auto& [gid, ref] : subs_) {
    SubscriptionSeed seed;
    seed.peer = ref.peer;
    seed.sender_id = ref.sender_id;
    seed.app = ref.app;
    seed.qos = ref.qos;
    const auto it = std::lower_bound(
        snap->entries.begin(), snap->entries.end(), gid,
        [](const Snapshot::Entry& e, SubscriptionId id) {
          return e.subscription < id;
        });
    if (it != snap->entries.end() && it->subscription == gid) {
      seed.last = it->output;
      seed.since = it->since;
    }
    seeds.push_back(std::move(seed));
  }
  return seeds;
}

ShardedMonitorService::SubscriptionId ShardedMonitorService::import_seed(
    const SubscriptionSeed& seed) {
  return subscribe(seed.peer, seed.sender_id, seed.app, seed.qos,
                   {seed.last, seed.since});
}

void ShardedMonitorService::reconfigure(const net::SocketAddress& peer) {
  TWFD_CHECK_MSG(running_, "reconfigure() requires a started service");
  Shard& s = *shards_[shard_for(peer)];
  auto prom = std::make_shared<std::promise<void>>();
  auto fut = prom->get_future();
  post(s, [sp = &s, peer, prom] {
    sp->fd->reconfigure(sp->loop->add_peer(peer));
    prom->set_value();
  });
  fut.get();
}

std::size_t ShardedMonitorService::poll_events(
    const std::function<void(const StatusEvent&)>& fn) {
  std::lock_guard poll_lk(poll_mu_);
  // Reset before popping (see publish_event): an event pushed after this
  // point either is popped below or re-arms the notifier.
  events_pending_.exchange(false, std::memory_order_acq_rel);
  std::vector<StatusEvent> drained;
  {
    std::lock_guard lk(agg_mu_);
    StatusEvent e;
    for (auto& sp : shards_) {
      while (sp->events.try_pop(e)) {
        // Health events (subscription 0) pass through to `fn` but are not
        // snapshot entries; verdicts update the per-subscription state.
        const auto it = state_.find(e.subscription);
        if (it != state_.end()) {
          it->second.output = e.output;
          it->second.since = e.when;
        }
        drained.push_back(std::move(e));
      }
    }
    if (!drained.empty()) {
      events_seen_ += drained.size();
      view_dirty_ = true;
    }
  }
  // Callbacks run outside agg_mu_: delivery may close a session, which
  // unsubscribes and takes agg_mu_ on this same thread.
  for (const StatusEvent& ev : drained) {
    if (event_listener_) event_listener_(ev);
    if (fn) fn(ev);
  }
  return drained.size();
}

std::shared_ptr<const ShardedMonitorService::Snapshot> ShardedMonitorService::view()
    const {
  std::lock_guard lk(agg_mu_);
  if (view_dirty_) {
    auto snap = std::make_shared<Snapshot>();
    snap->entries.reserve(state_.size());
    for (const auto& [id, entry] : state_) snap->entries.push_back(entry);
    snap->events_seen = events_seen_;
    view_ = std::move(snap);
    view_dirty_ = false;
  }
  return view_;
}

// --- Supervision -----------------------------------------------------------

ShardedMonitorService::ShardHealth ShardedMonitorService::health(
    std::size_t shard) const {
  TWFD_CHECK(shard < shards_.size());
  const Shard& s = *shards_[shard];
  ShardHealth h;
  h.degraded = s.degraded.load(std::memory_order_relaxed);
  h.worker_exited = s.worker_exited.load(std::memory_order_acquire);
  h.restarts = s.restarts.load(std::memory_order_relaxed);
  h.stalls_detected = s.stalls_detected.load(std::memory_order_relaxed);
  h.liveness = s.liveness.load(std::memory_order_relaxed);
  return h;
}

std::size_t ShardedMonitorService::degraded_count() const {
  std::size_t n = 0;
  for (const auto& sp : shards_) {
    if (sp->degraded.load(std::memory_order_relaxed)) ++n;
  }
  return n;
}

void ShardedMonitorService::inject_worker_fault(std::size_t shard,
                                                WorkerFault fault,
                                                Tick stall_for) {
  TWFD_CHECK(shard < shards_.size());
  Shard& s = *shards_[shard];
  switch (fault) {
    case WorkerFault::kCrash:
      post(s, [] { throw WorkerCrash{}; });
      break;
    case WorkerFault::kStall:
      post(s, [stall_for] {
        std::this_thread::sleep_for(std::chrono::nanoseconds(stall_for));
      });
      break;
  }
}

void ShardedMonitorService::emit_health(Shard& s, detect::Output output) {
  StatusEvent e;
  e.subscription = kHealthSubscription;
  e.app = "shard-" + std::to_string(s.index);
  e.output = output;
  e.when = SteadyClock{}.now();
  e.shard = s.index;
  publish_event(s, std::move(e));
}

bool ShardedMonitorService::restart_shard(Shard& s) {
  if (s.thread.joinable()) s.thread.join();
  {
    std::lock_guard lk(s.swap_mu);
    // Destruction order: service and dispatcher hold the loop's runtime,
    // and the chaos injector's pending timers live in the loop, so the
    // loop goes last — and is destroyed before the new one binds, so the
    // saved port is free to rebind.
    s.fd.reset();
    s.dispatcher.reset();
    s.chaos.reset();
    s.loop.reset();
    try {
      build_shard_runtime(s);
    } catch (...) {
      // Rebind/rebuild failed (e.g. the port was stolen while we were
      // down). Leave the shard dead; the supervisor backs off and retries.
      s.fd.reset();
      s.dispatcher.reset();
      s.chaos.reset();
      s.loop.reset();
      return false;
    }
  }
  s.worker_exited.store(false, std::memory_order_release);

  // Re-seed the subscriptions this shard owned. The control registry is
  // the source of truth; the aggregated view still carries each
  // subscription's last verdict, so monitoring resumes here and the next
  // genuine transition restores full parity with an uncrashed run. The
  // worker thread is not running yet, so the shard runtime is exclusively
  // ours — no marshalling needed.
  std::vector<std::pair<SubscriptionId, SubRef>> owned;
  {
    std::lock_guard lk(control_mu_);
    for (const auto& [gid, ref] : subs_) {
      if (ref.shard == s.index) owned.emplace_back(gid, ref);
    }
  }
  // Prime each re-seed from the verdict the view retained. Without this a
  // subscription the view holds at Suspect gets a fresh detector that
  // believes Trust: a live peer then never produces a Trust *transition*
  // event, so the view would stay Suspect forever.
  std::map<SubscriptionId, detect::Output> retained;
  {
    std::lock_guard lk(agg_mu_);
    for (const auto& [gid, ref] : owned) {
      const auto it = state_.find(gid);
      if (it != state_.end()) retained[gid] = it->second.output;
    }
  }
  for (auto& [gid, ref] : owned) {
    const auto rit = retained.find(gid);
    const detect::Output last =
        rit != retained.end() ? rit->second : detect::Output::Trust;
    try {
      const auto local = s.fd->subscribe(
          s.loop->add_peer(ref.peer), ref.sender_id, ref.app, ref.qos,
          [this, sp = &s, gid](const service::FdService::StatusEvent& e) {
            publish_event(*sp, {gid, e.app, e.output, e.when, sp->index});
          },
          last);
      {
        std::lock_guard lk(control_mu_);
        const auto it = subs_.find(gid);
        if (it != subs_.end()) it->second.local = local;
      }
      s.resubscribed.fetch_add(1, std::memory_order_relaxed);
    } catch (...) {
      // The tuple was feasible before the crash; if it is rejected now we
      // drop this subscription rather than wedge the restart.
    }
  }

  s.thread = std::thread([this, sp = &s] { worker_main(*sp); });
  return true;
}

void ShardedMonitorService::supervisor_main() {
  struct Track {
    std::uint64_t last_liveness = 0;
    Tick last_advance = 0;
    Tick last_restart = 0;
    Tick backoff = 0;
    Tick restart_at = kTickInfinity;
  };
  const Supervision& sup = params_.supervision;
  SteadyClock clock;
  std::vector<Track> tracks(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    tracks[i].last_liveness = shards_[i]->liveness.load(std::memory_order_relaxed);
    tracks[i].last_advance = clock.now();
    tracks[i].backoff = sup.restart_backoff_min;
  }

  std::unique_lock lk(sup_mu_);
  while (!sup_stop_) {
    sup_cv_.wait_for(lk, std::chrono::nanoseconds(sup.check_interval),
                     [this] { return sup_stop_; });
    if (sup_stop_) break;
    lk.unlock();

    const Tick now = clock.now();
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      Shard& s = *shards_[i];
      Track& t = tracks[i];
      const std::uint64_t lv = s.liveness.load(std::memory_order_relaxed);
      const bool exited = s.worker_exited.load(std::memory_order_acquire);

      if (lv != t.last_liveness) {
        t.last_liveness = lv;
        t.last_advance = now;
        if (s.degraded.load(std::memory_order_relaxed) && !exited) {
          // A stalled worker resumed, or a restarted one came back up.
          s.degraded.store(false, std::memory_order_relaxed);
          emit_health(s, detect::Output::Trust);
        }
      }

      if (!s.degraded.load(std::memory_order_relaxed)) {
        // A healthy stretch as long as the watchdog bound earns the shard
        // its minimum backoff again (a crash loop keeps the doubled one).
        if (t.backoff != sup.restart_backoff_min &&
            now - t.last_restart >= sup.stall_timeout) {
          t.backoff = sup.restart_backoff_min;
        }
        const bool stalled = now - t.last_advance >= sup.stall_timeout;
        if (exited || stalled) {
          s.degraded.store(true, std::memory_order_relaxed);
          if (!exited) s.stalls_detected.fetch_add(1, std::memory_order_relaxed);
          emit_health(s, detect::Output::Suspect);
          t.restart_at = tick_add_sat(now, exited ? 0 : sup.restart_backoff_min);
        }
      }

      // Only an EXITED worker is restarted — a wedged C++ thread cannot
      // be killed safely, so a stall stays degraded until it resumes.
      if (s.degraded.load(std::memory_order_relaxed) && exited &&
          now >= t.restart_at) {
        restart_shard(s);
        s.restarts.fetch_add(1, std::memory_order_relaxed);
        t.last_restart = now;
        t.restart_at = tick_add_sat(now, t.backoff);
        t.backoff = std::min<Tick>(t.backoff * 2, sup.restart_backoff_max);
        t.last_liveness = s.liveness.load(std::memory_order_relaxed);
        t.last_advance = now;
      }
    }

    lk.lock();
  }
}

// --- Stats -----------------------------------------------------------------

ShardedMonitorService::ShardStats ShardedMonitorService::collect_supervision_stats(
    Shard& s) const {
  ShardStats st;
  st.events_dropped = s.events_dropped.load(std::memory_order_relaxed);
  st.post_retries = s.post_retries.load(std::memory_order_relaxed);
  st.post_stalls = s.post_stalls.load(std::memory_order_relaxed);
  st.restarts = s.restarts.load(std::memory_order_relaxed);
  st.stalls_detected = s.stalls_detected.load(std::memory_order_relaxed);
  st.resubscribed = s.resubscribed.load(std::memory_order_relaxed);
  st.degraded = s.degraded.load(std::memory_order_relaxed) ? 1 : 0;
  st.pinned = s.pinned.load(std::memory_order_relaxed) ? 1 : 0;
  return st;
}

ShardedMonitorService::ShardStats ShardedMonitorService::collect_stats_on_shard(
    Shard& s) const {
  ShardStats st = collect_supervision_stats(s);
  if (!s.loop) return st;  // shard died and its rebuild failed
  st.loop = s.loop->stats();
  st.dispatcher_heartbeats = s.dispatcher->heartbeat_count();
  st.dispatcher_malformed = s.dispatcher->malformed_count();
  st.service_heartbeats = s.fd->heartbeats_processed();
  st.handoff_out = s.handoff_out;
  st.handoff_dropped = s.handoff_dropped;
  st.handoff_batches = s.handoff_batches;
  st.commands_run = s.commands_run;
  if (s.chaos) st.chaos = s.chaos->stats();
  return st;
}

std::vector<ShardedMonitorService::ShardStats> ShardedMonitorService::shard_stats() {
  std::vector<ShardStats> out(shards_.size());
  if (!running_) {
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      out[i] = collect_stats_on_shard(*shards_[i]);
    }
    return out;
  }
  // Marshal a stats command per shard, but never hang on a dead or
  // wedged one: a bounded wait, then fall back to the supervision
  // atomics (shard-confined counters read as zero for that shard).
  std::vector<std::future<ShardStats>> futures(shards_.size());
  std::vector<bool> posted(shards_.size(), false);
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    auto prom = std::make_shared<std::promise<ShardStats>>();
    futures[i] = prom->get_future();
    Shard* s = shards_[i].get();
    try {
      post(*s, [this, s, prom] { prom->set_value(collect_stats_on_shard(*s)); });
      posted[i] = true;
    } catch (const std::runtime_error&) {
      posted[i] = false;
    }
  }
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (posted[i] &&
        futures[i].wait_for(std::chrono::seconds(2)) == std::future_status::ready) {
      out[i] = futures[i].get();
    } else {
      out[i] = collect_supervision_stats(*shards_[i]);
    }
  }
  return out;
}

ShardedMonitorService::ShardStats ShardedMonitorService::merged_stats() {
  ShardStats total;
  for (const auto& st : shard_stats()) total += st;
  return total;
}

}  // namespace twfd::shard
