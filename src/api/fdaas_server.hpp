// FDaaS control plane: serves Suspect/Trust verdicts from a
// shard::ShardedMonitorService to remote TCP subscribers.
//
// One FdaasServer runs one API thread with a private net::EventLoop.
// That thread owns every session object and all server counters — the
// same shard-confinement discipline as the monitoring shards — and is,
// by construction, the sole caller of ShardedMonitorService::
// poll_events(): the service's event notifier wakes the API loop on the
// first transition after a drain, and the wake handler pushes the drained
// transitions as EVENT frames to the owning sessions. Toward the shards
// the API thread is an ordinary control-plane client (subscribe/
// unsubscribe marshal commands and block briefly on the owning shard); no
// shard thread ever blocks on the API thread, so event delivery can never
// stall detection. See docs/runtime.md "The FDaaS API thread".
//
// Sessions are defended in three ways (docs/protocol.md):
//   * bounded per-session send queues — a client that stops reading is
//     evicted the moment its backlog would exceed the cap, so one slow
//     subscriber cannot hold memory or delay the delivery loop;
//   * lease-based expiry — a half-open client (network gone, no FIN)
//     stops renewing and is reclaimed, subscriptions included;
//   * a poisoned stream (bad magic, hostile length prefix) drops the
//     session immediately; counters record every such exit.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <tuple>
#include <vector>

#include "api/control.hpp"
#include "api/federation_hooks.hpp"
#include "api/snapshot.hpp"
#include "common/mpsc_queue.hpp"
#include "net/event_loop.hpp"
#include "net/tcp.hpp"
#include "shard/sharded_monitor_service.hpp"

namespace twfd::obs {
class EventLoopExport;  // obs/exporters.hpp (header-only; including it
class FdaasExport;      // here would cycle back into this header)
}  // namespace twfd::obs

namespace twfd::api {

class FdaasServer {
 public:
  struct Params {
    std::uint16_t port = 0;  ///< TCP listen port (0 = ephemeral)
    /// Session lease; any well-formed inbound frame renews it. A session
    /// silent for a full lease is expired and its subscriptions released.
    Tick lease = ticks_from_sec(10);
    /// Per-session cap on unsent bytes; exceeding it evicts the session.
    std::size_t max_send_queue_bytes = 256 * 1024;
    std::size_t max_sessions = 1024;
    std::size_t max_subscriptions_per_session = 1024;
    /// Back-off before re-arming accept after descriptor exhaustion.
    Tick accept_retry_delay = ticks_from_ms(100);
    /// SO_SNDBUF per accepted connection (0 = kernel default; tests
    /// shrink it to provoke backpressure deterministically).
    int conn_sndbuf_bytes = 0;
    /// Optional obs registry: the server mirrors its Stats (and its
    /// private event loop's stats) into twfd_api_* / twfd_fed_* metrics
    /// after every event drain and lease tick, and records an
    /// event-delivery-latency histogram. Must outlive the server.
    obs::Registry* registry = nullptr;
    /// Crash persistence (empty = disabled). start() loads this snapshot
    /// file and re-seeds every persisted subscription — verdicts primed —
    /// as a server-owned *orphan*; a client that re-subscribes to the
    /// same (peer, sender_id, app) claims the warm detector and observes
    /// the net missed transition through the usual snapshot
    /// reconciliation, exactly like a TCP outage. The file is rewritten
    /// every snapshot_interval and once more on graceful stop().
    std::string snapshot_path;
    Tick snapshot_interval = ticks_from_sec(2);
    /// How long an orphan waits for its client before being dropped.
    Tick orphan_ttl = ticks_from_sec(60);
  };

  /// Server observability (API-thread counters; gauges are instantaneous).
  struct Stats {
    std::uint64_t sessions_accepted = 0;
    std::uint64_t sessions_active = 0;    ///< gauge
    std::uint64_t sessions_rejected = 0;  ///< over max_sessions
    std::uint64_t subscriptions_active = 0;  ///< gauge
    std::uint64_t subscriptions_total = 0;
    std::uint64_t frames_received = 0;
    std::uint64_t frames_malformed = 0;  ///< bad body / hostile prefix
    std::uint64_t events_pushed = 0;
    std::uint64_t events_unroutable = 0;  ///< no session owns the id
    std::uint64_t slow_evictions = 0;
    std::uint64_t lease_expiries = 0;
    std::uint64_t disconnects = 0;  ///< EOF / reset closes
    std::uint64_t accept_resource_failures = 0;
    std::uint64_t accept_aborted = 0;
    std::uint64_t conn_soft_errors = 0;
    std::uint64_t bytes_sent = 0;
    std::uint64_t bytes_received = 0;
    std::uint64_t health_broadcasts = 0;  ///< shard health events fanned out
    std::uint64_t post_retries = 0;  ///< control pushes that found the queue full
    std::uint64_t post_stalls = 0;   ///< posts abandoned: queue wedged
    // Federation tier (all zero unless attach_federation() was called):
    std::uint64_t digests_ingested = 0;       ///< child Digest frames accepted
    std::uint64_t digest_entries_applied = 0;
    std::uint64_t digest_entries_stale = 0;   ///< seq-dropped (replay/failover)
    std::uint64_t digest_entries_foreign = 0; ///< outside delegated ranges
    std::uint64_t digest_frames_flushed = 0;  ///< frames handed upstream
    std::uint64_t fed_subscriptions_active = 0;  ///< gauge
    std::uint64_t fed_events_pushed = 0;  ///< subtree transitions fanned out
    std::uint64_t delegates_sent = 0;
    // Crash persistence (all zero unless Params::snapshot_path is set):
    std::uint64_t snapshot_saves = 0;
    std::uint64_t snapshot_save_failures = 0;
    std::uint64_t snapshot_restored_subs = 0;  ///< orphans seeded at start()
    /// Claims whose verdict changed across the crash window — the net
    /// transitions the restore replayed to reconnecting clients.
    std::uint64_t snapshot_replayed_transitions = 0;
    std::uint64_t orphans_active = 0;   ///< gauge
    std::uint64_t orphans_claimed = 0;
    std::uint64_t orphans_expired = 0;
    std::uint64_t snapshot_age_ns = 0;  ///< gauge: since the last good save
    std::uint64_t snapshot_bytes = 0;   ///< gauge: size of the last good save
    std::uint64_t fed_children_restored = 0;  ///< restored children re-identified

    Stats& operator+=(const Stats& o);
  };

  /// Federated subscription ids live in their own half of the id space
  /// so they can never collide with ShardedMonitorService ids (which
  /// count up from 1) and are recognisable in Unsubscribe/Snapshot.
  static constexpr std::uint64_t kFedSubBit = 1ull << 63;

  /// The service must outlive the server; stop() the server BEFORE
  /// stopping the service (teardown releases client subscriptions).
  FdaasServer(shard::ShardedMonitorService& service, Params params);
  ~FdaasServer();

  FdaasServer(const FdaasServer&) = delete;
  FdaasServer& operator=(const FdaasServer&) = delete;

  /// Spawns the API thread. The listen socket exists (and port() is
  /// valid) from construction, so clients may connect immediately.
  void start();
  /// Stops the API thread, closes every session and releases their
  /// subscriptions (when the service is still running). Idempotent.
  void stop();
  [[nodiscard]] bool running() const noexcept { return running_; }

  [[nodiscard]] std::uint16_t port() const { return listener_.local_port(); }

  /// Race-free counters (marshalled onto the API thread while running).
  [[nodiscard]] Stats stats();

  /// Load-generation / test seam: delivers synthetic events through the
  /// exact push path (routing, send queues, eviction), marshalled onto
  /// the API thread and acknowledged before return.
  void inject_events(std::vector<shard::ShardedMonitorService::StatusEvent> events);

  // --- Federation tier (docs/runtime.md "Federation tier") ---

  /// Attaches the federated monitoring core. Must be called before
  /// start(); the adapter must outlive the server. From then on:
  ///   * child sessions may push Digest frames (ingested via the
  ///     adapter; the first Digest identifies the session's node id);
  ///   * clients may subscribe to FEDERATED peers — SubscribeRequest
  ///     with a zero peer address, sender_id = the 64-bit peer key —
  ///     and receive Event frames for transitions anywhere in the
  ///     subtree (ids carry kFedSubBit);
  ///   * a flush timer drains the adapter on its flush_interval() and
  ///     hands the wire-ready frames to `upstream_sink` (API thread;
  ///     null at the federation root).
  void attach_federation(FederationAdapter* adapter,
                         std::function<void(std::vector<DigestMsg>)> upstream_sink);

  /// Runs `fn` on the API thread and waits for it (direct call when the
  /// server is not running). The federated node uses this to touch
  /// adapter state — peer mappings, stats — under the thread contract.
  void run_on_api_thread(const std::function<void()>& fn);

  /// Pushes a Delegate frame to the child session that most recently
  /// identified itself as `child_node` (via a Digest). Marshalled onto
  /// the API thread; false when no such child session is connected.
  bool send_delegate(std::uint64_t child_node, DelegateMsg msg);

  // --- Crash persistence (Params::snapshot_path) ---

  /// Outcome of the start()-time snapshot load (kMissing before start()
  /// or with persistence disabled). kBadVersion / kCorrupt mean the
  /// server cold-started — rejected snapshots are never half-applied.
  [[nodiscard]] SnapshotLoadStatus snapshot_load_status() const noexcept {
    return snapshot_load_status_;
  }

  /// Forces a snapshot save (marshalled onto the API thread while
  /// running). False when persistence is disabled or the write failed.
  bool save_snapshot_now();

  /// Called (on the API thread) the first time a federation child node
  /// recorded in the loaded snapshot re-identifies itself via a Digest —
  /// the owner's cue to re-send that child its Delegate, restoring the
  /// delegation the crash wiped. Set before start().
  void set_child_reattach_hook(std::function<void(std::uint64_t node_id)> hook);

 private:
  using Command = std::function<void()>;

  struct Session {
    std::uint64_t id = 0;
    net::TcpConn conn;
    net::SocketAddress peer;
    FrameAssembler rx;
    std::vector<std::byte> tx;  // unsent frames; [tx_pos, size) pending
    std::size_t tx_pos = 0;
    bool want_write = false;
    Tick lease_deadline = 0;
    std::set<std::uint64_t> subs;      // global subscription ids
    std::set<std::uint64_t> fed_subs;  // federated ids (kFedSubBit set)
    /// Non-zero once the session pushed a Digest: it is the child node
    /// with this federation node id (Delegate frames route here).
    std::uint64_t fed_node_id = 0;
  };

  /// One federated subscription: session `sid` watches peer `key`.
  struct FedSub {
    std::uint64_t sid = 0;
    std::uint64_t key = 0;
  };

  void worker_main();
  void drain_commands();
  void post(Command cmd);
  /// Drains the shard event queues and delivers each transition.
  void drain_events();
  void on_accept();
  void on_session_io(std::uint64_t sid, unsigned events);
  void on_readable(std::uint64_t sid);
  /// True while the session still exists.
  bool handle_message(std::uint64_t sid, ControlMessage msg);
  void deliver(const shard::ShardedMonitorService::StatusEvent& event);
  /// Queues a frame and flushes opportunistically. False when the frame
  /// evicted the session (send-queue cap) or the connection died.
  bool send_frame(Session& s, const ControlMessage& msg);
  /// Writes pending bytes; false when the session was closed.
  bool flush(Session& s);
  void close_session(std::uint64_t sid);
  void expire_leases();
  void arm_lease_timer();
  void arm_fed_flush_timer();
  /// Fans one applied federated transition out to its subscribers (the
  /// adapter's transition sink lands here, on the API thread).
  void fed_fanout(const DigestEntry& entry);
  /// True when `sub` targets a federated peer (zero address, adapter on).
  [[nodiscard]] bool is_fed_subscribe(const SubscribeRequest& sub) const;
  bool handle_fed_subscribe(Session& s, const SubscribeRequest& sub);
  bool handle_digest(Session& s, const DigestMsg& digest);
  [[nodiscard]] Stats collect_stats();
  void init_obs();
  void refresh_obs();

  // --- crash persistence internals ---
  /// (ip, port, sender_id, app): the identity a reconnecting client's
  /// SubscribeRequest presents, and the key an orphan is claimed by.
  using OrphanKey = std::tuple<std::uint32_t, std::uint16_t, std::uint64_t, std::string>;
  struct Orphan {
    std::uint64_t gid = 0;  ///< server-owned ShardedMonitorService id
    shard::ShardedMonitorService::SubscriptionSeed seed;
    Tick expires = 0;
  };
  [[nodiscard]] bool persistence_enabled() const noexcept {
    return !params_.snapshot_path.empty();
  }
  /// start()-time restore (API thread not yet running; service is).
  void restore_from_snapshot();
  bool save_snapshot();
  void arm_snapshot_timer();
  void sweep_orphans();
  void drop_orphan(std::map<std::uint64_t, Orphan>::iterator it, bool unsubscribe);
  /// Claims a matching orphan for a client subscribe: re-creates the
  /// subscription under the client's QoS primed with the orphan's
  /// current view verdict, then retires the orphan. Returns the new
  /// subscription id, or 0 when no orphan matches (normal subscribe).
  std::uint64_t try_claim_orphan(const SubscribeRequest& sub);

  shard::ShardedMonitorService& service_;
  Params params_;
  net::TcpListener listener_;
  std::unique_ptr<net::EventLoop> loop_;
  MpscQueue<Command> commands_;
  std::thread thread_;
  std::atomic<bool> stop_requested_{false};
  std::atomic<std::uint64_t> post_retries_{0};
  std::atomic<std::uint64_t> post_stalls_{0};
  bool running_ = false;

  // --- API-thread-only state ---
  std::map<std::uint64_t, std::unique_ptr<Session>> sessions_;
  std::map<std::uint64_t, std::uint64_t> sub_owner_;  // sub id -> session id
  std::uint64_t next_session_id_ = 1;
  std::uint64_t seen_resource_failures_ = 0;
  bool accept_parked_ = false;
  TimerId lease_timer_ = kInvalidTimer;
  Stats stats_;

  // --- obs mirroring (API-thread-only; null unless Params::registry) ---
  std::unique_ptr<obs::FdaasExport> obs_export_;
  std::unique_ptr<obs::EventLoopExport> obs_loop_export_;
  obs::Histogram* obs_event_latency_ = nullptr;

  // --- Federation (API-thread-only; null/empty unless attached) ---
  FederationAdapter* adapter_ = nullptr;
  std::function<void(std::vector<DigestMsg>)> upstream_sink_;
  std::map<std::uint64_t, FedSub> fed_subs_;            // fed sub id -> sub
  std::map<std::uint64_t, std::set<std::uint64_t>> fed_subs_by_key_;
  std::map<std::uint64_t, std::uint64_t> child_sessions_;  // node id -> sid
  std::uint64_t next_fed_sub_ = 1;
  TimerId fed_flush_timer_ = kInvalidTimer;

  // --- Crash persistence (API-thread-only after start()) ---
  SnapshotLoadStatus snapshot_load_status_ = SnapshotLoadStatus::kMissing;
  bool restore_attempted_ = false;
  std::map<std::uint64_t, Orphan> orphans_;   // gid -> orphan
  std::map<OrphanKey, std::uint64_t> orphan_index_;
  std::set<std::uint64_t> restored_fed_children_;  // not yet re-identified
  std::function<void(std::uint64_t)> child_reattach_hook_;
  TimerId snapshot_timer_ = kInvalidTimer;
  std::int64_t last_save_wall_ns_ = 0;
  std::uint64_t last_save_bytes_ = 0;
};

}  // namespace twfd::api
