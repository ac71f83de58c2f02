// The benchmark's workloads and the pieces they share.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "common/time.hpp"
#include "config/qos_config.hpp"
#include "net/udp_socket.hpp"
#include "trace/heartbeat.hpp"

namespace perfbench {

/// Both halves of a run: end-to-end metrics (reported untraced) and
/// per-layer metrics (reported by the traced run).
struct RunOutput {
  Result result;
  std::vector<Metric> layers;
};

/// The shape of a live workload, also fed to the per-layer probes: how
/// many peers, the apps subscribed to each (one QoS tuple, and one TCP
/// client, per app), the heartbeat interval, and which peers go silent.
struct Shape {
  const char* name = "";
  std::size_t peers = 1;
  std::vector<double> td_s = {1.0};  ///< T_D^U of each app
  twfd::Tick interval = twfd::ticks_from_ms(100);
  enum class Silences { kNone, kCrash, kFlap } silences = Silences::kNone;
  std::int64_t silence_ns = 0;       ///< length of one silence
  double crash_per_s = 0;            ///< kCrash: silences begun per second
  std::int64_t flap_period_ns = 0;   ///< kFlap: silent + alive
  double churn_per_s = 0;            ///< churn samples per second by the last app
};

[[nodiscard]] RunOutput run_wan_replay(const Args& args);
[[nodiscard]] RunOutput run_steady_fleet(const Args& args);
[[nodiscard]] RunOutput run_flap_shared(const Args& args);

/// The per-layer probes: each times the benchmark's own calls into one
/// layer on a private instance fed the workload's shape.
void replay_probes(const twfd::trace::Trace& trace, double build_s,
                   std::vector<Metric>& out);
/// Replay-layer probes over a WAN trace holding the workload's heartbeats
/// for a 10 s window (peers x 10 s / interval), at its interval.
void replay_probes_for(const Shape& shape, std::uint64_t seed, std::vector<Metric>& out);

/// Per-layer probes of net/service/shard/api/config on private stacks
/// fed `shape`. The live-run metrics (hand-off share, client subscribe,
/// API delivery, generator lateness) come from the live run when it has
/// them; otherwise they are measured on the private stacks too.
void live_layer_probes(const Shape& shape, std::uint64_t seed, bool have_live_run,
                       std::vector<Metric>& out);

struct Silence;
/// Seeded silence schedule: per peer, offsets from the epoch, every one
/// starting in [0, horizon). `flapping` marks the peers that flap.
[[nodiscard]] std::vector<std::vector<Silence>> make_silences(const Shape& shape,
                                                              std::uint64_t seed,
                                                              std::int64_t horizon,
                                                              std::vector<bool>& flapping);

/// Rewrites seq and send_time of an encoded heartbeat in place.
void patch_heartbeat(std::byte* datagram, std::int64_t seq, twfd::Tick send_time);

/// The QoS tuple an app with detection bound `td_s` subscribes with.
[[nodiscard]] twfd::config::QosRequirements tuple_for(double td_s);

// ---------------------------------------------------------------------------
// Open-loop heartbeat generator.
//
// One thread and one UDP socket bound to 0.0.0.0 send every peer's
// heartbeats. Each peer has its own 127/8 source address (set per
// datagram with an IP_PKTINFO control message in sendmmsg) and its own
// sender_id. Peer i's k-th heartbeat is due at t0 + phase_i + k*interval
// and leaves on the first 1 ms send tick at or after that instant;
// lateness is measured from the due instant. Heartbeats due inside one
// of the peer's silences are not sent; seq keeps counting through a
// silence, as for heartbeats lost in the network.
// ---------------------------------------------------------------------------

struct Silence {
  std::int64_t start = 0;  ///< offset from the silence epoch, ns
  std::int64_t end = 0;
  // Filled by the generator thread; read after stop().
  std::int64_t last_send = 0;    ///< send time of the last heartbeat before it
  std::int64_t resume_send = 0;  ///< send time of the first heartbeat after it
};

class Generator {
 public:
  Generator(std::size_t peers, twfd::Tick interval, std::uint64_t seed,
            std::uint16_t service_port);
  ~Generator();
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  /// Per-peer silences (offsets from the epoch); set before start().
  void set_silences(std::vector<std::vector<Silence>> silences) {
    silences_ = std::move(silences);
  }
  void start();
  /// Silences count from `epoch` (steady-clock ns) on; until it is set,
  /// every peer sends.
  void set_epoch(std::int64_t epoch) { epoch_.store(epoch, std::memory_order_release); }
  void stop();

  [[nodiscard]] twfd::net::SocketAddress address(std::size_t peer) const;
  [[nodiscard]] std::uint64_t sender_id(std::size_t peer) const;
  [[nodiscard]] std::uint64_t sent() const { return sent_.load(std::memory_order_acquire); }
  [[nodiscard]] std::uint64_t interval_requests() const {
    return interval_requests_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::uint64_t send_failures() const { return send_failures_; }
  [[nodiscard]] pthread_t native_handle() { return thread_.native_handle(); }
  /// Lateness quantile (ms) over every heartbeat sent once the epoch was
  /// set (the measured part of a run); valid after stop().
  [[nodiscard]] double late_quantile_ms(double q) const;
  [[nodiscard]] double late_max_ms() const { return static_cast<double>(late_max_ns_) * 1e-6; }
  /// Heartbeats sent once the epoch was set that left more than `ms`
  /// late (to the 10 us bin); valid after stop().
  [[nodiscard]] std::uint64_t late_count_over_ms(double ms) const;
  /// Largest lateness before the epoch (set-up), ms.
  [[nodiscard]] double setup_late_max_ms() const {
    return static_cast<double>(setup_late_max_ns_) * 1e-6;
  }
  /// Silences as recorded (valid after stop()).
  [[nodiscard]] const std::vector<std::vector<Silence>>& silences() const {
    return silences_;
  }

 private:
  void main();
  void drain_incoming();

  std::size_t peers_;
  twfd::Tick interval_;
  std::uint16_t service_port_;
  std::uint16_t local_port_ = 0;
  int fd_ = -1;
  std::uint64_t id_base_ = 0;
  std::vector<std::int64_t> phase_;      ///< per peer, ns in [0, interval)
  std::vector<std::uint32_t> order_;     ///< peers sorted by phase
  std::vector<std::vector<Silence>> silences_;
  std::atomic<std::int64_t> epoch_{0};
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> sent_{0};
  std::atomic<std::uint64_t> interval_requests_{0};
  std::uint64_t send_failures_ = 0;
  std::vector<std::uint32_t> late_hist_;  ///< 10 us bins
  std::int64_t late_max_ns_ = 0;
  std::int64_t setup_late_max_ns_ = 0;
  std::thread thread_;
};

}  // namespace perfbench
