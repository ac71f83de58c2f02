// Shared pieces of the verdict-path benchmark: clocks, CPU and RSS
// probes, percentiles, the result record every workload fills, and the
// in-memory span recorder used by traced runs.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include <pthread.h>

namespace perfbench {

/// Command-line arguments shared by every workload.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string span_path;  ///< traced runs write their spans here
};

/// Steady-clock nanoseconds; the same domain as twfd::SteadyClock, so
/// stamps taken here compare directly with the library's event times.
[[nodiscard]] std::int64_t now_ns();
[[nodiscard]] double process_cpu_s();
[[nodiscard]] double thread_cpu_s(pthread_t thread);
[[nodiscard]] std::size_t rss_bytes();
void sleep_until_ns(std::int64_t t);
/// Host CPU time stolen by the hypervisor so far, summed over CPUs
/// (/proc/stat), and the number of CPUs it covers; a noisy host shows here.
[[nodiscard]] double host_steal_s();
[[nodiscard]] double host_cpus();

/// One SCHED_IDLE thread pinned to each CPU of the process's affinity
/// mask, spinning until destroyed: the guest-side equivalent of
/// idle=poll. On a VM, a vCPU that halts when the program's threads sleep
/// pays a hypervisor wake-up on the next datagram or request, charged as
/// steal and as long as milliseconds on a busy host. The pollers keep the
/// vCPUs from halting, so such a wake-up is an in-guest context switch:
/// the kernel preempts a SCHED_IDLE thread at once for any normal one.
class IdlePollers {
 public:
  IdlePollers();
  ~IdlePollers();
  IdlePollers(const IdlePollers&) = delete;
  IdlePollers& operator=(const IdlePollers&) = delete;
  /// CPU time the pollers have used so far, s.
  [[nodiscard]] double cpu_s() const;

 private:
  std::atomic<bool> stop_{false};
  std::vector<pthread_t> threads_;
};

/// Linear-interpolated quantile (q in [0,1]) of `v`; v is reordered.
[[nodiscard]] double quantile(std::vector<double>& v, double q);
[[nodiscard]] double median(std::vector<double> v);

/// splitmix64: the benchmark's only source of pseudo-randomness.
[[nodiscard]] std::uint64_t mix64(std::uint64_t x);

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() { return mix64(state_ += 0x9E3779B97F4A7C15ull); }
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one run reports. Failures are counted against attempts; a run
/// whose outputs are wrong, or whose load generator could not keep its
/// schedule, is not `correct`.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records `n` failed operations with a reason on stderr.
  void fail(std::uint64_t n, const std::string& why);
  /// Marks the run invalid (wrong outputs or broken measurement).
  void invalid(const std::string& why);
};

/// Prints a human-readable line on stdout (every line before the final
/// JSON one is for people, not for the parser).
void note(const std::string& line);
[[nodiscard]] std::string fmt(double v, int precision = 3);

// ---------------------------------------------------------------------------
// Span recorder (traced runs only).
//
// A span is one call the benchmark made into a layer: name, start, end,
// the span that caused it, and a request id tying the spans of one
// request together (peer+seq, or a subscription id). Each thread appends
// to its own buffer; nothing is written out until the run ends.
// ---------------------------------------------------------------------------

struct Span {
  const char* name = "";
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::uint32_t id = 0;      ///< unique within the run, 1-based
  std::uint32_t parent = 0;  ///< 0 = root
  std::uint64_t request = 0;
};

class Spans {
 public:
  /// Enables recording for this run (traced runs only).
  static void enable();
  [[nodiscard]] static bool enabled() noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Opens a span on the calling thread; returns its id (0 when disabled).
  static std::uint32_t begin(const char* name, std::uint64_t request = 0,
                             std::uint32_t parent = 0);
  static void end(std::uint32_t id);
  /// Records an already-measured interval as one span.
  static std::uint32_t record(const char* name, std::int64_t start, std::int64_t end,
                              std::uint64_t request = 0, std::uint32_t parent = 0);

  /// Writes every span as one JSON object per line; false on I/O error.
  static bool write(const std::string& path);
  /// Prints per-name count, total and self time (span minus the part of
  /// its interval that its children cover).
  static void print_self_times();

  struct Buffer;  ///< one thread's spans (defined in common.cpp)

 private:
  static Buffer& local();
  static std::atomic<bool> enabled_;
};

/// RAII span scope.
class Scope {
 public:
  explicit Scope(const char* name, std::uint64_t request = 0, std::uint32_t parent = 0)
      : id_(Spans::enabled() ? Spans::begin(name, request, parent) : 0) {}
  ~Scope() {
    if (id_ != 0) Spans::end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  [[nodiscard]] std::uint32_t id() const noexcept { return id_; }

 private:
  std::uint32_t id_;
};

// ---------------------------------------------------------------------------
// Allocation counting: the benchmark replaces global operator new and
// counts calls while a counting window is open.
// ---------------------------------------------------------------------------

void alloc_counting(bool on);
[[nodiscard]] std::uint64_t alloc_count();

}  // namespace perfbench
