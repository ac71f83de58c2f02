// The live workloads: real UDP heartbeats from an in-process open-loop
// generator into a 2-shard ShardedMonitorService plus FdaasServer (wired
// as twfd_fdaasd wires them: obs registry + QosTracker), verdicts read by
// TCP api::Client subscribers.
//
//   steady_fleet  4,000 peers at 100 ms, one app at T_D^U = 1 s; a seeded
//                 schedule crashes peers (3 s silent, then they resume).
//   flap_shared   2,000 peers at 100 ms, two apps at T_D^U = 0.5 s and
//                 2 s; a seeded half of the peers flap 4 s silent / 4 s
//                 alive. The second app also churns: it unsubscribes and
//                 resubscribes peers that never go silent.
//
// Timeline of a run: set-up (service start + every subscribe; heartbeats
// flow before the first subscribe) -> settle -> warm-up -> measured
// window (--seconds) -> tail (every silence begun in the window ends and
// its Trust arrives) -> generator stops -> teardown. More set-ups follow,
// only to time them; setup_s is the median of all of them.
#include <netinet/in.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <system_error>
#include <unordered_map>

#include "api/client.hpp"
#include "api/fdaas_server.hpp"
#include "net/wire.hpp"
#include "obs/metrics.hpp"
#include "obs/qos_tracker.hpp"
#include "shard/sharded_monitor_service.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace twfd;

// ---------------------------------------------------------------------------
// Generator
// ---------------------------------------------------------------------------

namespace {

constexpr std::size_t kSendBatch = 256;
// The sender wakes on a 1 ms grid and sends every heartbeat due by then,
// as a NIC's interrupt coalescing would deliver them. Waking for each
// heartbeat (every 25 us at 40k hb/s) made every datagram wake a shard
// worker too: the runs then measured vCPU wake-ups, with up to 22% of the
// CPU time stolen by the hypervisor. The tick adds up to 1 ms of lateness,
// 1% of an interval.
constexpr std::int64_t kSendTickNs = 1'000'000;
constexpr std::size_t kHbSize = net::HeartbeatMsg::kWireSize;
constexpr std::size_t kSeqOffset = 14;       // wire.cpp: magic, ver, type, sender_id
constexpr std::size_t kSendTimeOffset = 22;  // then seq, send_time, interval
constexpr std::int64_t kLateBinNs = 10'000;
constexpr std::size_t kLateBins = 100'000;  // 1 s of lateness

void put_le64(std::byte* p, std::int64_t v) {
  auto u = static_cast<std::uint64_t>(v);
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::byte>((u >> (8 * i)) & 0xff);
}

}  // namespace

Generator::Generator(std::size_t peers, Tick interval, std::uint64_t seed,
                     std::uint16_t service_port)
    : peers_(peers), interval_(interval), service_port_(service_port) {
  if (peers == 0 || peers >= (1u << 23)) throw std::invalid_argument("peer count out of range");
  fd_ = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd_ < 0) throw std::system_error(errno, std::generic_category(), "generator socket");
  const int buf = 4 << 20;
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDBUF, &buf, sizeof buf);
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &buf, sizeof buf);
  sockaddr_in any{};
  any.sin_family = AF_INET;
  any.sin_addr.s_addr = htonl(INADDR_ANY);
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&any), sizeof any) != 0) {
    const int e = errno;
    ::close(fd_);
    throw std::system_error(e, std::generic_category(), "generator bind");
  }
  socklen_t len = sizeof any;
  ::getsockname(fd_, reinterpret_cast<sockaddr*>(&any), &len);
  local_port_ = ntohs(any.sin_port);

  Rng rng(mix64(seed ^ 0x6e6574));
  id_base_ = (mix64(seed) & 0xffffffffull) << 32;
  phase_.resize(peers);
  for (auto& ph : phase_) ph = static_cast<std::int64_t>(rng.below(static_cast<std::uint64_t>(interval)));
  order_.resize(peers);
  for (std::size_t i = 0; i < peers; ++i) order_[i] = static_cast<std::uint32_t>(i);
  std::sort(order_.begin(), order_.end(),
            [&](std::uint32_t a, std::uint32_t b) { return phase_[a] < phase_[b]; });
  silences_.resize(peers);
  late_hist_.assign(kLateBins + 1, 0);
}

Generator::~Generator() {
  stop();
  if (fd_ >= 0) ::close(fd_);
}

net::SocketAddress Generator::address(std::size_t peer) const {
  // 127.1.0.1 + peer: every peer its own loopback source address.
  return {static_cast<std::uint32_t>(0x7f010001u + peer), local_port_};
}

std::uint64_t Generator::sender_id(std::size_t peer) const { return id_base_ | (peer + 1); }

void Generator::start() { thread_ = std::thread([this] { main(); }); }

void Generator::stop() {
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
}

double Generator::late_quantile_ms(double q) const {
  std::uint64_t total = 0;
  for (const auto c : late_hist_) total += c;
  if (total == 0) return 0;
  const auto target = static_cast<std::uint64_t>(q * static_cast<double>(total - 1));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < late_hist_.size(); ++b) {
    seen += late_hist_[b];
    if (seen > target) return static_cast<double>(b) * static_cast<double>(kLateBinNs) * 1e-6;
  }
  return late_max_ms();
}

std::uint64_t Generator::late_count_over_ms(double ms) const {
  const auto first = static_cast<std::size_t>(ms * 1e6 / static_cast<double>(kLateBinNs)) + 1;
  std::uint64_t n = 0;
  for (std::size_t b = std::min(first, late_hist_.size()); b < late_hist_.size(); ++b) {
    n += late_hist_[b];
  }
  return n;
}

void Generator::drain_incoming() {
  std::byte bufs[64][64];
  iovec iov[64];
  mmsghdr msgs[64];
  for (;;) {
    for (int i = 0; i < 64; ++i) {
      iov[i] = {bufs[i], sizeof bufs[i]};
      msgs[i] = {};
      msgs[i].msg_hdr.msg_iov = &iov[i];
      msgs[i].msg_hdr.msg_iovlen = 1;
    }
    const int n = ::recvmmsg(fd_, msgs, 64, MSG_DONTWAIT, nullptr);
    if (n <= 0) return;
    std::uint64_t requests = 0;
    for (int i = 0; i < n; ++i) {
      const auto msg = net::decode(std::span<const std::byte>(bufs[i], msgs[i].msg_len));
      if (msg && std::holds_alternative<net::IntervalRequestMsg>(*msg)) ++requests;
    }
    interval_requests_.fetch_add(requests, std::memory_order_release);
  }
}

void Generator::main() {
  ::prctl(PR_SET_TIMERSLACK, 1000UL);
  // Per-peer datagram templates, laid out by the library's own encoder;
  // the loop patches seq and send_time in place.
  std::vector<std::byte> tmpl(peers_ * kHbSize);
  for (std::size_t p = 0; p < peers_; ++p) {
    const auto bytes = net::encode(net::HeartbeatMsg{sender_id(p), 1, 0, interval_});
    std::copy(bytes.begin(), bytes.end(), tmpl.begin() + static_cast<std::ptrdiff_t>(p * kHbSize));
  }
  {  // self-check of the patch offsets against the decoder
    std::byte probe[kHbSize];
    std::copy_n(tmpl.begin(), kHbSize, probe);
    put_le64(probe + kSeqOffset, 77);
    put_le64(probe + kSendTimeOffset, 99);
    const auto m = net::decode(std::span<const std::byte>(probe, kHbSize));
    const auto* hb = m ? std::get_if<net::HeartbeatMsg>(&*m) : nullptr;
    if (hb == nullptr || hb->seq != 77 || hb->send_time != 99) {
      std::fprintf(stderr, "generator: heartbeat layout self-check failed\n");
      std::abort();
    }
  }

  sockaddr_in dst{};
  dst.sin_family = AF_INET;
  dst.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  dst.sin_port = htons(service_port_);

  struct Slot {
    std::byte data[kHbSize];
    alignas(cmsghdr) unsigned char cmsg[CMSG_SPACE(sizeof(in_pktinfo))];
    iovec iov;
  };
  std::vector<Slot> slots(kSendBatch);
  std::vector<mmsghdr> msgs(kSendBatch);
  std::vector<std::uint32_t> batch_peer(kSendBatch);
  std::vector<std::int64_t> batch_due(kSendBatch);
  std::vector<std::int64_t> last_send(peers_, 0);
  std::vector<std::uint32_t> cursor(peers_, 0);        // next silence per peer
  std::vector<std::uint32_t> pending_resume(peers_, 0);  // silence index + 1

  const std::int64_t t0 = now_ns();
  std::uint64_t batches = 0;  // traced runs keep one span per 64 batches
  std::int64_t round = 0;
  std::size_t pos = 0;  // index into order_
  auto due_of = [&](std::int64_t r, std::size_t i) {
    return t0 + r * interval_ + phase_[order_[i]];
  };

  while (!stop_.load(std::memory_order_acquire)) {
    const std::int64_t now = now_ns();
    const std::int64_t epoch = epoch_.load(std::memory_order_acquire);
    std::size_t n = 0;
    while (n < kSendBatch && due_of(round, pos) <= now) {
      const std::uint32_t p = order_[pos];
      const std::int64_t due = due_of(round, pos);
      const std::int64_t seq = round + 1;
      if (++pos == peers_) {
        pos = 0;
        ++round;
      }
      bool silent = false;
      if (epoch != 0) {
        auto& sv = silences_[p];
        std::uint32_t& c = cursor[p];
        while (c < sv.size() && due >= epoch + sv[c].end) {
          pending_resume[p] = c + 1;
          ++c;
        }
        if (c < sv.size() && due >= epoch + sv[c].start) {
          silent = true;
          if (sv[c].last_send == 0) sv[c].last_send = last_send[p];
        }
      }
      if (silent) continue;
      Slot& s = slots[n];
      std::copy_n(tmpl.begin() + static_cast<std::ptrdiff_t>(p * kHbSize), kHbSize, s.data);
      put_le64(s.data + kSeqOffset, seq);
      put_le64(s.data + kSendTimeOffset, now);
      s.iov = {s.data, kHbSize};
      mmsghdr& m = msgs[n];
      m = {};
      m.msg_hdr.msg_name = &dst;
      m.msg_hdr.msg_namelen = sizeof dst;
      m.msg_hdr.msg_iov = &s.iov;
      m.msg_hdr.msg_iovlen = 1;
      m.msg_hdr.msg_control = s.cmsg;
      m.msg_hdr.msg_controllen = sizeof s.cmsg;
      cmsghdr* cm = CMSG_FIRSTHDR(&m.msg_hdr);
      cm->cmsg_level = IPPROTO_IP;
      cm->cmsg_type = IP_PKTINFO;
      cm->cmsg_len = CMSG_LEN(sizeof(in_pktinfo));
      in_pktinfo pi{};
      pi.ipi_spec_dst.s_addr = htonl(address(p).ip_host_order);
      std::memcpy(CMSG_DATA(cm), &pi, sizeof pi);
      batch_peer[n] = p;
      batch_due[n] = due;
      last_send[p] = now;
      ++n;
    }
    if (n > 0) {
      const std::int64_t b0 = now_ns();
      std::size_t done = 0;
      while (done < n) {
        const int r = ::sendmmsg(fd_, msgs.data() + done, static_cast<unsigned>(n - done), 0);
        if (r > 0) {
          done += static_cast<std::size_t>(r);
        } else if (errno == EAGAIN || errno == ENOBUFS || errno == EINTR) {
          drain_incoming();
        } else {
          ++send_failures_;
          ++done;  // skip the datagram the kernel refused
        }
      }
      const std::int64_t b1 = now_ns();
      if (++batches % 64 == 0) Spans::record("gen.send_batch", b0, b1, batch_peer[0]);
      for (std::size_t i = 0; i < n; ++i) {
        const std::int64_t sent_at =
            b0 + (b1 - b0) * static_cast<std::int64_t>(i + 1) / static_cast<std::int64_t>(n);
        const std::int64_t late = std::max<std::int64_t>(0, sent_at - batch_due[i]);
        if (epoch == 0) {
          setup_late_max_ns_ = std::max(setup_late_max_ns_, late);
        } else {
          late_max_ns_ = std::max(late_max_ns_, late);
          ++late_hist_[std::min<std::size_t>(static_cast<std::size_t>(late / kLateBinNs), kLateBins)];
        }
        const std::uint32_t p = batch_peer[i];
        last_send[p] = sent_at;
        if (pending_resume[p] != 0) {
          silences_[p][pending_resume[p] - 1].resume_send = sent_at;
          pending_resume[p] = 0;
        }
      }
      sent_.fetch_add(n, std::memory_order_release);
      if (n == kSendBatch) continue;  // still behind: send the next batch now
    }
    drain_incoming();
    // Sleep to the send tick at or after the next due heartbeat.
    const std::int64_t next = due_of(round, pos);
    const std::int64_t tick = t0 + (next - t0 + kSendTickNs - 1) / kSendTickNs * kSendTickNs;
    const std::int64_t now2 = now_ns();
    if (tick > now2) sleep_until_ns(std::min(tick, now2 + kSendTickNs));
  }
  drain_incoming();
}

// ---------------------------------------------------------------------------
// The live deployment
// ---------------------------------------------------------------------------

namespace {

Shape steady_shape() {
  Shape s;
  s.name = "steady_fleet";
  s.peers = 4'000;
  s.interval = ticks_from_ms(100);
  s.td_s = {1.0};
  s.silences = Shape::Silences::kCrash;
  s.silence_ns = 3'000'000'000;
  s.crash_per_s = 100;
  return s;
}

Shape flap_shape() {
  Shape s;
  s.name = "flap_shared";
  s.peers = 2'000;
  s.interval = ticks_from_ms(100);
  s.td_s = {0.5, 2.0};
  s.silences = Shape::Silences::kFlap;
  s.silence_ns = 4'000'000'000;
  s.flap_period_ns = 8'000'000'000;
  s.churn_per_s = 50;
  return s;
}

constexpr std::int64_t kSettleNs = 500'000'000;
constexpr int kSetups = 5;  ///< set-ups per run; setup_s is their median
// Subscribe samples are every churn from this long after it starts (its
// first seconds run slower) until the generator stops: ~1,300 samples
// at 50 churns/s and a 20 s window, so the p99 rests on ~13 beyond it.
constexpr std::int64_t kChurnWarmNs = 2'000'000'000;
// verdict_p99_ms is the median of the p99s of this many equal parts of
// the window (~1,000 events each or more). A hypervisor that takes a vCPU
// away for milliseconds delays every event of an API poll at once; a
// burst of that confined to one part moves one part's p99, not the
// median. A slower delivery tail in the program moves every part.
constexpr std::int64_t kVerdictParts = 4;
// A resumed peer's Trust is due this long after its first heartbeat.
constexpr std::int64_t kDeliverySlack = 200'000'000;

}  // namespace

void patch_heartbeat(std::byte* datagram, std::int64_t seq, Tick send_time) {
  put_le64(datagram + kSeqOffset, seq);
  put_le64(datagram + kSendTimeOffset, send_time);
}

config::QosRequirements tuple_for(double td_s) { return {td_s, 1.0 / 3600.0, 1.0}; }

std::vector<std::vector<Silence>> make_silences(const Shape& spec, std::uint64_t seed,
                                                std::int64_t horizon,
                                                std::vector<bool>& goes_silent) {
  std::vector<std::vector<Silence>> out(spec.peers);
  goes_silent.assign(spec.peers, false);
  Rng rng(mix64(seed ^ 0x73696c));
  if (spec.silences == Shape::Silences::kCrash) {
    std::vector<std::int64_t> free_at(spec.peers, 0);
    const double gap = 1e9 / spec.crash_per_s;
    for (std::int64_t j = 0;; ++j) {
      const auto start = static_cast<std::int64_t>((static_cast<double>(j) + rng.uniform()) * gap);
      if (start >= horizon) break;
      std::size_t p = rng.below(spec.peers);
      for (int tries = 0; free_at[p] > start && tries < 64; ++tries) p = rng.below(spec.peers);
      if (free_at[p] > start) continue;  // fleet too small for this rate
      out[p].push_back({start, start + spec.silence_ns, 0, 0});
      goes_silent[p] = true;
      free_at[p] = start + spec.silence_ns + 1'000'000'000;  // >= 1 s alive between
    }
  } else if (spec.silences == Shape::Silences::kFlap) {
    std::vector<std::size_t> perm(spec.peers);
    for (std::size_t i = 0; i < spec.peers; ++i) perm[i] = i;
    for (std::size_t i = spec.peers; i > 1; --i) std::swap(perm[i - 1], perm[rng.below(i)]);
    for (std::size_t k = 0; k < spec.peers / 2; ++k) {
      const std::size_t p = perm[k];
      goes_silent[p] = true;
      const auto phase =
          static_cast<std::int64_t>(rng.uniform() * static_cast<double>(spec.flap_period_ns));
      for (std::int64_t s = phase; s < horizon; s += spec.flap_period_ns) {
        out[p].push_back({s, s + spec.silence_ns, 0, 0});
      }
    }
  }
  return out;
}

namespace {

struct EventRec {
  std::uint64_t sub = 0;
  std::int64_t when = 0;
  std::int64_t recv = 0;
  bool suspect = false;
};

/// One application: a TCP client on its own thread that subscribes to
/// every peer, then reads verdicts (and, for the churning app,
/// unsubscribes and resubscribes on a seeded schedule).
struct App {
  std::size_t index = 0;
  double td_s = 1;
  std::string name;
  // Results, owned by the client thread until it is joined.
  std::vector<EventRec> events;
  std::unordered_map<std::uint64_t, std::size_t> sub_peer;  // every id ever
  std::vector<std::uint64_t> current_sub;                   // by peer
  std::vector<double> setup_sub_ms;
  std::vector<std::pair<std::int64_t, double>> churn_sub_ms;  // (start, rtt)
  std::vector<std::pair<std::uint64_t, std::int64_t>> injected;  // (k, recv)
  std::uint64_t subscribes = 0;
  std::uint64_t subscribe_failures = 0;
  // Churn: resubscribe churn_peers[i % size] at churn_start + i / rate.
  std::vector<std::size_t> churn_peers;
  double churn_per_s = 0;
  std::atomic<std::int64_t> churn_start{0};
  std::atomic<std::int64_t> churn_end{0};
  std::uint32_t setup_span = 0;  ///< parent of the set-up subscribe spans
  std::atomic<bool> ready{false};
  std::atomic<bool> stop{false};
  std::atomic<bool> failed_connect{false};
  std::thread thread;
};

class Deployment {
 public:
  Deployment(const Shape& spec, std::uint64_t seed,
             std::vector<std::vector<Silence>> silences,
             const std::vector<bool>& goes_silent)
      : spec_(spec), tracker_(registry_) {
    const std::int64_t s0 = now_ns();
    {
      Scope span("setup.service_start");
      shard::ShardedMonitorService::Params sp;
      sp.shards = 2;
      sp.port = 0;
      sp.registry = &registry_;
      sp.service.qos_tracker = &tracker_;
      service_ = std::make_unique<shard::ShardedMonitorService>(sp);
      service_->start();
      api::FdaasServer::Params ap;
      ap.port = 0;
      ap.registry = &registry_;
      ap.max_subscriptions_per_session = 4 * spec.peers;
      server_ = std::make_unique<api::FdaasServer>(*service_, ap);
      server_->start();
    }
    const std::int64_t s1 = now_ns();

    // Heartbeats flow before the first subscribe.
    gen_ = std::make_unique<Generator>(spec.peers, spec.interval, seed, service_->port());
    gen_->set_silences(std::move(silences));
    gen_->start();
    sleep_until_ns(now_ns() + 2 * spec.interval);

    const std::int64_t s2 = now_ns();
    const std::uint32_t setup_span = Spans::begin("setup.subscribe_all");
    Rng rng(mix64(seed ^ 0x636875));
    for (std::size_t a = 0; a < spec.td_s.size(); ++a) {
      auto app = std::make_unique<App>();
      app->index = a;
      app->td_s = spec.td_s[a];
      app->name = "app" + std::to_string(a);
      app->setup_span = setup_span;
      if (a + 1 == spec.td_s.size() && spec.churn_per_s > 0) {
        app->churn_per_s = spec.churn_per_s;
        for (int k = 0; k < 64; ++k) {
          std::size_t p = rng.below(spec.peers);
          while (goes_silent[p]) p = rng.below(spec.peers);
          app->churn_peers.push_back(p);
        }
      }
      apps_.push_back(std::move(app));
    }
    for (auto& app : apps_) {
      App* ap = app.get();
      ap->thread = std::thread([this, ap] { client_main(*ap); });
    }
    for (auto& app : apps_) {
      while (!app->ready.load(std::memory_order_acquire)) sleep_until_ns(now_ns() + 1'000'000);
    }
    Spans::end(setup_span);
    const std::int64_t s3 = now_ns();
    setup_s_ = static_cast<double>((s1 - s0) + (s3 - s2)) * 1e-9;
  }

  ~Deployment() { teardown(); }
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  [[nodiscard]] double setup_s() const { return setup_s_; }
  [[nodiscard]] Generator& generator() { return *gen_; }
  [[nodiscard]] shard::ShardedMonitorService& service() { return *service_; }
  [[nodiscard]] api::FdaasServer& server() { return *server_; }
  [[nodiscard]] std::vector<std::unique_ptr<App>>& apps() { return apps_; }
  [[nodiscard]] net::SocketAddress api_address() const {
    return net::SocketAddress::loopback(server_->port());
  }

  /// Generator first, then the server (it closes every session off the
  /// event-delivery path), then the clients, which read until the server
  /// has closed their connection, then the service. Closing a client
  /// while verdicts are still being delivered to it can deadlock the API
  /// thread (see README.md, "Defects found").
  void teardown() {
    for (auto& app : apps_) app->stop.store(true, std::memory_order_release);
    if (gen_) gen_->stop();
    if (server_) server_->stop();
    for (auto& app : apps_) {
      if (app->thread.joinable()) app->thread.join();
    }
    if (service_) service_->stop();
  }

 private:
  void client_main(App& app) {
    std::unique_ptr<api::Client> client;
    try {
      client = std::make_unique<api::Client>(api_address());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "client %s: connect failed: %s\n", app.name.c_str(), e.what());
      app.failed_connect.store(true);
      app.ready.store(true, std::memory_order_release);
      return;
    }
    client->set_event_handler([&app](const api::EventMsg& e) {
      const std::int64_t recv = now_ns();
      if (e.when < 0) {
        app.injected.emplace_back(static_cast<std::uint64_t>(-e.when), recv);
        return;
      }
      app.events.push_back({e.subscription_id, e.when, recv, e.output == detect::Output::Suspect});
    });
    const auto qos = tuple_for(app.td_s);
    auto subscribe = [&](std::size_t p, std::uint32_t parent) -> double {
      ++app.subscribes;
      const std::int64_t t0 = now_ns();
      try {
        const std::uint64_t id =
            client->subscribe(gen_->address(p), gen_->sender_id(p), app.name, qos);
        const std::int64_t t1 = now_ns();
        Spans::record("api.client_subscribe", t0, t1, id, parent);
        app.sub_peer[id] = p;
        app.current_sub[p] = id;
        return static_cast<double>(t1 - t0) * 1e-6;
      } catch (const std::exception& e) {
        ++app.subscribe_failures;
        std::fprintf(stderr, "client %s: subscribe peer %zu failed: %s\n", app.name.c_str(), p,
                     e.what());
        return -1;
      }
    };
    app.current_sub.assign(spec_.peers, 0);
    for (std::size_t p = 0; p < spec_.peers; ++p) {
      const double ms = subscribe(p, app.setup_span);
      if (ms >= 0) app.setup_sub_ms.push_back(ms);
    }
    app.ready.store(true, std::memory_order_release);

    // Read verdicts (and churn) until the server closes the connection.
    std::uint64_t churned = 0;
    for (;;) {
      const std::int64_t cs = app.churn_start.load(std::memory_order_acquire);
      const std::int64_t ce = app.churn_end.load(std::memory_order_acquire);
      std::int64_t wait = 100'000'000;
      if (app.churn_per_s > 0 && cs != 0 && !app.stop.load(std::memory_order_acquire)) {
        const auto due = cs + static_cast<std::int64_t>(static_cast<double>(churned) * 1e9 /
                                                        app.churn_per_s);
        const std::int64_t now = now_ns();
        if (due < ce && due <= now) {
          const std::size_t p = app.churn_peers[churned % app.churn_peers.size()];
          ++churned;
          // Two unsubscribe + subscribe cycles on the same peer at the same
          // subscription count; the sample is the faster subscribe, so a
          // stolen time slice must hit both to count.
          double best = -1;
          for (int rep = 0; rep < 2; ++rep) {
            Scope span("churn", p);  // self time: the unsubscribe
            try {
              client->unsubscribe(app.current_sub[p]);
            } catch (const std::exception& e) {
              std::fprintf(stderr, "client %s: unsubscribe failed: %s\n", app.name.c_str(),
                           e.what());
            }
            const double ms = subscribe(p, span.id());
            if (ms >= 0 && (best < 0 || ms < best)) best = ms;
          }
          if (best >= 0) app.churn_sub_ms.emplace_back(now, best);
          continue;
        }
        if (due < ce) wait = std::min<std::int64_t>(wait, std::max<std::int64_t>(due - now, 0));
      }
      if (!client->pump_for(std::max<std::int64_t>(wait, 1'000'000))) break;
    }
  }

  Shape spec_;
  obs::Registry registry_;
  obs::QosTracker tracker_;
  std::unique_ptr<shard::ShardedMonitorService> service_;
  std::unique_ptr<api::FdaasServer> server_;
  std::unique_ptr<Generator> gen_;
  std::vector<std::unique_ptr<App>> apps_;
  double setup_s_ = 0;
};

struct Window {
  std::int64_t w0 = 0, w1 = 0;
};

/// Checks every (app, peer) verdict sequence against the silences the
/// generator actually produced and collects the latencies.
struct Accounting {
  std::vector<double> detect_ms;   // first app, silences begun in the window
  std::vector<double> verdict_ms;  // every app, events read in the window
  std::array<std::vector<double>, kVerdictParts> verdict_parts;  // the same, by part of it
  std::uint64_t crash_ops = 0, crash_failed = 0;
  std::uint64_t revive_ops = 0, revive_failed = 0;
  std::uint64_t spurious_suspects = 0, orphan_trusts = 0, unknown_subs = 0;
};

Accounting account(const Shape& spec, Deployment& d, const Window& w, std::int64_t cutoff) {
  Accounting acc;
  const auto& silences = d.generator().silences();
  const std::int64_t resume_slack = 5'000'000;  // first resumed heartbeat in flight
  for (auto& app : d.apps()) {
    const auto td_ns = static_cast<std::int64_t>(app->td_s * 1e9);
    std::vector<std::vector<const EventRec*>> by_peer(spec.peers);
    for (const EventRec& e : app->events) {
      if (e.recv >= w.w0 && e.recv < w.w1) {
        const double ms = static_cast<double>(e.recv - e.when) * 1e-6;
        acc.verdict_ms.push_back(ms);
        acc.verdict_parts[static_cast<std::size_t>((e.recv - w.w0) * kVerdictParts /
                                                   (w.w1 - w.w0))]
            .push_back(ms);
      }
      if (e.when >= cutoff) continue;  // after the generator stopped
      const auto it = app->sub_peer.find(e.sub);
      if (it == app->sub_peer.end()) {
        ++acc.unknown_subs;
        continue;
      }
      by_peer[it->second].push_back(&e);
    }
    for (std::size_t p = 0; p < spec.peers; ++p) {
      auto& evs = by_peer[p];
      std::stable_sort(evs.begin(), evs.end(),
                       [](const EventRec* a, const EventRec* b) { return a->when < b->when; });
      const auto& sv = silences[p];
      std::vector<int> suspects(sv.size(), 0), trusts(sv.size(), 0);
      std::vector<std::int64_t> first_suspect_recv(sv.size(), 0);
      bool suspected = false;
      std::size_t open = 0;
      for (const EventRec* e : evs) {
        if (e->suspect) {
          std::size_t k = sv.size();
          for (std::size_t j = 0; j < sv.size(); ++j) {
            const std::int64_t until =
                sv[j].resume_send != 0 ? sv[j].resume_send + resume_slack : cutoff;
            if (sv[j].last_send != 0 && sv[j].last_send <= e->when && e->when <= until) {
              k = j;
              break;
            }
          }
          if (k == sv.size() || suspected) {
            ++acc.spurious_suspects;
            continue;
          }
          if (suspects[k]++ == 0) first_suspect_recv[k] = e->recv;
          suspected = true;
          open = k;
        } else {
          if (!suspected) {
            ++acc.orphan_trusts;
            continue;
          }
          ++trusts[open];
          suspected = false;
        }
      }
      for (std::size_t k = 0; k < sv.size(); ++k) {
        if (sv[k].resume_send == 0 || sv[k].last_send == 0) continue;  // not reached
        if (sv[k].resume_send + kDeliverySlack >= cutoff) continue;  // Trust not yet due
        const std::int64_t detect = first_suspect_recv[k] - sv[k].last_send;
        ++acc.crash_ops;
        if (suspects[k] == 0 || detect > td_ns) ++acc.crash_failed;
        ++acc.revive_ops;
        if (suspects[k] != 1 || trusts[k] != 1) ++acc.revive_failed;
        const std::int64_t start_abs = sv[k].last_send;
        if (app->index == 0 && suspects[k] > 0 && start_abs >= w.w0 && start_abs < w.w1) {
          acc.detect_ms.push_back(static_cast<double>(detect) * 1e-6);
        }
      }
    }
  }
  return acc;
}

RunOutput run_live(const Shape& spec, const Args& args, const IdlePollers& pollers) {
  RunOutput out;
  Result& res = out.result;
  const std::int64_t warmup = spec.silence_ns + 500'000'000;
  const std::int64_t window = static_cast<std::int64_t>(args.seconds) * 1'000'000'000;
  const std::int64_t tail = spec.silence_ns + 500'000'000;
  std::vector<bool> goes_silent;
  auto silences = make_silences(spec, args.seed, warmup + window, goes_silent);

  const std::size_t rss0 = rss_bytes();
  std::vector<double> setups;
  auto d = std::make_unique<Deployment>(spec, args.seed, silences, goes_silent);
  setups.push_back(d->setup_s());
  for (auto& app : d->apps()) {
    if (app->failed_connect.load()) res.invalid("client could not connect");
  }
  note(std::string(spec.name) + ": " + std::to_string(spec.peers) + " peers every " +
       format_ticks(spec.interval) + ", " + std::to_string(spec.td_s.size()) +
       " app(s); set-up " + fmt(d->setup_s()) + " s");

  // Churn starts right after set-up.
  const std::int64_t epoch = now_ns() + kSettleNs;
  const Window w{epoch + warmup, epoch + warmup + window};
  const std::int64_t churn_from = now_ns() + kChurnWarmNs;
  const std::int64_t churn_until = w.w1 + tail;
  for (auto& app : d->apps()) {
    if (app->churn_per_s > 0) {
      app->churn_end.store(churn_until, std::memory_order_release);
      app->churn_start.store(now_ns(), std::memory_order_release);
    }
  }
  d->generator().set_epoch(epoch);

  // The benchmark's own threads: sender, clients and idle pollers.
  auto bench_cpu = [&] {
    double s = thread_cpu_s(d->generator().native_handle()) + pollers.cpu_s();
    for (auto& app : d->apps()) s += thread_cpu_s(app->thread.native_handle());
    return s;
  };
  sleep_until_ns(w.w0);
  const double steal0 = host_steal_s();
  const double cpu0 = process_cpu_s() - bench_cpu();
  const std::uint64_t hb0 = d->service().merged_stats().dispatcher_heartbeats;
  const std::uint32_t window_span = Spans::begin("window");
  sleep_until_ns(w.w1);
  Spans::end(window_span);
  const double monitor_cpu_s = process_cpu_s() - bench_cpu() - cpu0;
  const std::uint64_t hb_in_window = d->service().merged_stats().dispatcher_heartbeats - hb0;
  const std::size_t rss_end = rss_bytes();
  note("host: " +
       fmt(100.0 * (host_steal_s() - steal0) / (static_cast<double>(window) * 1e-9 * host_cpus()),
           1) +
       "% of CPU time stolen by the hypervisor in the window");

  // The traced run prices API delivery at full load: events injected
  // through FdaasServer::inject_events, timed to the client's read.
  std::vector<std::int64_t> inject_start;
  if (Spans::enabled()) {
    auto& app0 = *d->apps().front();
    for (std::uint64_t k = 1; k <= 200; ++k) {
      shard::ShardedMonitorService::StatusEvent ev;
      ev.subscription = app0.current_sub[k % spec.peers];
      ev.app = app0.name;
      ev.output = detect::Output::Trust;
      ev.when = -static_cast<std::int64_t>(k);  // marks it as injected
      const std::int64_t t0 = now_ns();
      d->server().inject_events({ev});
      Spans::record("api.inject_events", t0, now_ns(), k);
      inject_start.push_back(t0);
      sleep_until_ns(t0 + 5'000'000);
    }
  }

  sleep_until_ns(churn_until);
  // Every scheduled silence has ended and its Trust is out. Stop the
  // generator and count what was ingested before peers start timing out.
  const std::int64_t cutoff = now_ns();
  d->generator().stop();
  sleep_until_ns(now_ns() + 150'000'000);
  const auto final_stats = d->service().merged_stats();
  const auto server_stats = d->server().stats();
  d->teardown();
  Generator& gen = d->generator();

  // --- operations and failures ---
  const Accounting acc = account(spec, *d, w, cutoff);
  res.attempted += gen.sent();
  const std::uint64_t ingested = final_stats.dispatcher_heartbeats;
  res.fail(gen.sent() > ingested ? gen.sent() - ingested : 0,
           "heartbeats sent but never ingested");
  std::vector<double> setup_sub_ms, churn_ms;
  for (auto& app : d->apps()) {
    res.attempted += app->subscribes;
    res.fail(app->subscribe_failures, app->name + ": subscribe threw");
    setup_sub_ms.insert(setup_sub_ms.end(), app->setup_sub_ms.begin(), app->setup_sub_ms.end());
    for (const auto& [t, ms] : app->churn_sub_ms) {
      if (t >= churn_from && t < churn_until) churn_ms.push_back(ms);
    }
  }
  res.attempted += acc.crash_ops + acc.revive_ops;
  res.fail(acc.crash_failed, "silence without a Suspect within T_D^U");
  res.fail(acc.revive_failed, "silence without exactly one Suspect and one Trust");
  res.fail(acc.spurious_suspects, "Suspect for a live peer (or a duplicate Suspect)");
  res.fail(acc.orphan_trusts, "Trust with no Suspect before it");
  res.fail(acc.unknown_subs, "event for a subscription no client holds");
  res.fail(final_stats.events_dropped, "shard events_dropped");
  res.fail(final_stats.post_retries + server_stats.post_retries, "control post_retries");
  res.fail(server_stats.slow_evictions, "API slow_evictions");

  // --- generator honesty ---
  const double late_p99 = gen.late_quantile_ms(0.99);
  const double late_max = gen.late_max_ms();
  // A heartbeat that leaves after its successor was due is a failed
  // operation: a late generator looks like a crash to the detector. Below
  // that, each peer's stream is the scheduled one shifted by less than an
  // interval, far inside the 5-10 intervals of every app's T_D^U.
  const double late_limit = to_millis(spec.interval);
  const std::uint64_t late_over = gen.late_count_over_ms(late_limit);
  note("generator: sent " + std::to_string(gen.sent()) + ", ingested " +
       std::to_string(ingested) + ", lateness from the epoch on p99 " + fmt(late_p99) +
       " ms max " + fmt(late_max) + " ms (limit " + fmt(late_limit) +
       " ms = 1 interval), during set-up max " + fmt(gen.setup_late_max_ms()) + " ms, " +
       std::to_string(gen.interval_requests()) + " IntervalRequests drained, " +
       std::to_string(gen.send_failures()) + " send failures");
  res.fail(late_over, "heartbeats that left more than one interval late (generator fell behind)");
  note("operations: silences x apps " + std::to_string(acc.crash_ops) + " (late/missed " +
       std::to_string(acc.crash_failed) + ", bad S/T pairs " + std::to_string(acc.revive_failed) +
       "), spurious Suspects " + std::to_string(acc.spurious_suspects) + ", orphan Trusts " +
       std::to_string(acc.orphan_trusts) + ", events pushed " +
       std::to_string(server_stats.events_pushed));

  const double window_s = static_cast<double>(window) * 1e-9;
  const auto hb_window = static_cast<double>(hb_in_window);
  std::vector<double> detect = acc.detect_ms, verdict = acc.verdict_ms;
  note("samples: detect " + std::to_string(detect.size()) + ", verdict " +
       std::to_string(verdict.size()) + ", subscribe " + std::to_string(churn_ms.size()));
  if (detect.empty() || verdict.empty() || (spec.churn_per_s > 0 && churn_ms.empty())) {
    res.invalid("no latency samples");
  }

  std::vector<double> deliver_us;  // traced run: injection -> client read
  for (const auto& [k, recv] : d->apps().front()->injected) {
    if (k >= 1 && k <= inject_start.size()) {
      deliver_us.push_back(static_cast<double>(recv - inject_start[k - 1]) * 1e-3);
    }
  }

  const auto handoff = static_cast<double>(final_stats.handoff_out) /
                       std::max<double>(1.0, static_cast<double>(final_stats.dispatcher_heartbeats));
  const std::uint64_t interval_requests = gen.interval_requests();
  d.reset();

  // More set-ups, timed only.
  for (int i = 1; i < kSetups; ++i) {
    std::vector<std::vector<Silence>> none(spec.peers);
    Deployment extra(spec, args.seed + static_cast<std::uint64_t>(i), none, goes_silent);
    setups.push_back(extra.setup_s());
  }
  std::string setup_line = "set-ups (s):";
  for (const double s : setups) setup_line += " " + fmt(s);
  note(setup_line);

  res.metric("setup_s", median(setups), "s");
  res.metric("replay_mhb_per_s", hb_window / window_s * 1e-6, "Mhb/s");
  res.metric("monitor_cpu_ns_per_hb", monitor_cpu_s * 1e9 / std::max(1.0, hb_window), "ns");
  res.metric("detect_p50_ms", quantile(detect, 0.50), "ms");
  res.metric("detect_p99_ms", quantile(detect, 0.99), "ms");
  res.metric("verdict_p50_ms", quantile(verdict, 0.50), "ms");
  std::vector<double> part_p99;
  for (std::vector<double> part : acc.verdict_parts) {
    if (!part.empty()) part_p99.push_back(quantile(part, 0.99));
  }
  res.metric("verdict_p99_ms", median(part_p99), "ms");
  res.metric("rss_bytes_per_peer",
             (static_cast<double>(rss_end) - static_cast<double>(rss0)) /
                 static_cast<double>(spec.peers),
             "B");

  if (Spans::enabled()) {
    out.layers.push_back({"shard.handoff_share", handoff, "ratio"});
    out.layers.push_back({"api.client_subscribe_ms", median(setup_sub_ms), "ms"});
    // Subscribe latency under churn where the workload churns, else at set-up.
    std::vector<double>& sub_ms = churn_ms.empty() ? setup_sub_ms : churn_ms;
    out.layers.push_back({"api.subscribe_p50_ms", quantile(sub_ms, 0.50), "ms"});
    out.layers.push_back({"api.subscribe_p99_ms", quantile(sub_ms, 0.99), "ms"});
    out.layers.push_back({"api.deliver_us", median(deliver_us), "us"});
    out.layers.push_back({"gen.late_p99_ms", late_p99, "ms"});
    out.layers.push_back({"gen.late_max_ms", late_max, "ms"});
    out.layers.push_back({"gen.interval_requests", static_cast<double>(interval_requests), "count"});
  }
  return out;
}

}  // namespace

RunOutput run_steady_fleet(const Args& args) {
  const Shape shape = steady_shape();
  const IdlePollers pollers;
  RunOutput out = run_live(shape, args, pollers);
  if (Spans::enabled()) {
    live_layer_probes(shape, args.seed, true, out.layers);
    replay_probes_for(shape, args.seed, out.layers);
  }
  return out;
}

RunOutput run_flap_shared(const Args& args) {
  const Shape shape = flap_shape();
  const IdlePollers pollers;
  RunOutput out = run_live(shape, args, pollers);
  if (Spans::enabled()) {
    live_layer_probes(shape, args.seed, true, out.layers);
    replay_probes_for(shape, args.seed, out.layers);
  }
  return out;
}

}  // namespace perfbench
