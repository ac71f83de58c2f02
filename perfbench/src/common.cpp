#include "common.hpp"

#include <sched.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <new>
#include <sstream>

#include <unistd.h>

namespace perfbench {

std::int64_t now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double thread_cpu_s(pthread_t thread) {
  clockid_t cid{};
  if (pthread_getcpuclockid(thread, &cid) != 0) return 0;
  timespec ts{};
  clock_gettime(cid, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

IdlePollers::IdlePollers() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof mask, &mask) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &mask)) continue;
    pthread_t t{};
    const auto body = [](void* arg) -> void* {
      sched_param sp{};
      pthread_setschedparam(pthread_self(), SCHED_IDLE, &sp);
      const auto* stop = static_cast<const std::atomic<bool>*>(arg);
      while (!stop->load(std::memory_order_relaxed)) __builtin_ia32_pause();
      return nullptr;
    };
    if (pthread_create(&t, nullptr, body, &stop_) != 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pthread_setaffinity_np(t, sizeof one, &one);
    threads_.push_back(t);
  }
}

IdlePollers::~IdlePollers() {
  stop_.store(true, std::memory_order_relaxed);
  for (const pthread_t t : threads_) pthread_join(t, nullptr);
}

double IdlePollers::cpu_s() const {
  double s = 0;
  for (const pthread_t t : threads_) s += thread_cpu_s(t);
  return s;
}

std::size_t rss_bytes() {
  std::ifstream in("/proc/self/statm");
  std::size_t size = 0, resident = 0;
  in >> size >> resident;
  return resident * static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
}

double host_steal_s() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double f[8] = {};
  in >> cpu;
  for (double& x : f) in >> x;
  return f[7] / static_cast<double>(sysconf(_SC_CLK_TCK));  // the steal column
}

double host_cpus() { return static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)); }

void sleep_until_ns(std::int64_t t) {
  timespec ts{};
  ts.tv_sec = t / 1'000'000'000;
  ts.tv_nsec = t % 1'000'000'000;
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) != 0) {
  }
}

double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(std::vector<double> v) { return quantile(v, 0.5); }

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

void Result::fail(std::uint64_t n, const std::string& why) {
  if (n == 0) return;
  failed += n;
  std::cerr << "FAILED x" << n << ": " << why << '\n';
}

void Result::invalid(const std::string& why) {
  correct = false;
  std::cerr << "INVALID: " << why << '\n';
}

void note(const std::string& line) { std::cout << line << std::endl; }

std::string fmt(double v, int precision) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(precision);
  os << v;
  return os.str();
}

// --- spans ------------------------------------------------------------------

struct Spans::Buffer {
  std::vector<Span> spans;
  std::size_t thread = 0;
};

std::atomic<bool> Spans::enabled_{false};

namespace {
std::mutex g_span_mu;
std::vector<std::unique_ptr<Spans::Buffer>>& span_buffers() {
  static std::vector<std::unique_ptr<Spans::Buffer>> all;
  return all;
}
std::atomic<std::uint32_t> g_next_span{1};
}  // namespace

void Spans::enable() { enabled_.store(true, std::memory_order_relaxed); }

Spans::Buffer& Spans::local() {
  thread_local Buffer* buf = nullptr;
  if (buf == nullptr) {
    std::lock_guard lk(g_span_mu);
    auto& all = span_buffers();
    all.push_back(std::make_unique<Buffer>());
    buf = all.back().get();
    buf->thread = all.size() - 1;
    buf->spans.reserve(1 << 16);
  }
  return *buf;
}

std::uint32_t Spans::begin(const char* name, std::uint64_t request, std::uint32_t parent) {
  if (!enabled()) return 0;
  Span s;
  s.name = name;
  s.start = now_ns();
  s.id = g_next_span.fetch_add(1, std::memory_order_relaxed);
  s.parent = parent;
  s.request = request;
  local().spans.push_back(s);
  return s.id;
}

void Spans::end(std::uint32_t id) {
  if (id == 0) return;
  const std::int64_t t = now_ns();
  auto& spans = local().spans;
  for (auto it = spans.rbegin(); it != spans.rend(); ++it) {
    if (it->id == id) {
      it->end = t;
      return;
    }
  }
}

std::uint32_t Spans::record(const char* name, std::int64_t start, std::int64_t end,
                            std::uint64_t request, std::uint32_t parent) {
  if (!enabled()) return 0;
  Span s;
  s.name = name;
  s.start = start;
  s.end = end;
  s.id = g_next_span.fetch_add(1, std::memory_order_relaxed);
  s.parent = parent;
  s.request = request;
  local().spans.push_back(s);
  return s.id;
}

bool Spans::write(const std::string& path) {
  std::lock_guard lk(g_span_mu);
  std::ofstream out(path);
  if (!out) return false;
  for (const auto& buf : span_buffers()) {
    for (const Span& s : buf->spans) {
      out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start
          << ",\"end_ns\":" << s.end << ",\"id\":" << s.id << ",\"parent\":" << s.parent
          << ",\"request\":" << s.request << ",\"thread\":" << buf->thread << "}\n";
    }
  }
  out.flush();
  return static_cast<bool>(out);
}

void Spans::print_self_times() {
  std::lock_guard lk(g_span_mu);
  std::map<std::uint32_t, const Span*> by_id;
  std::map<std::uint32_t, std::vector<const Span*>> children;
  for (const auto& buf : span_buffers()) {
    for (const Span& s : buf->spans) {
      by_id[s.id] = &s;
      if (s.parent != 0) children[s.parent].push_back(&s);
    }
  }
  struct Agg {
    std::uint64_t count = 0;
    double total_ms = 0;
    double self_ms = 0;
  };
  std::map<std::string, Agg> agg;
  for (const auto& [id, s] : by_id) {
    const std::int64_t dur = std::max<std::int64_t>(0, s->end - s->start);
    // Union of the children's intervals clipped to this span.
    std::vector<std::pair<std::int64_t, std::int64_t>> iv;
    if (const auto it = children.find(id); it != children.end()) {
      for (const Span* c : it->second) {
        const std::int64_t a = std::max(c->start, s->start);
        const std::int64_t b = std::min(c->end, s->end);
        if (b > a) iv.emplace_back(a, b);
      }
    }
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0, cur_a = 0, cur_b = -1;
    for (const auto& [a, b] : iv) {
      if (a > cur_b) {
        if (cur_b > cur_a) covered += cur_b - cur_a;
        cur_a = a;
        cur_b = b;
      } else {
        cur_b = std::max(cur_b, b);
      }
    }
    if (cur_b > cur_a) covered += cur_b - cur_a;
    Agg& a = agg[s->name];
    ++a.count;
    a.total_ms += static_cast<double>(dur) * 1e-6;
    a.self_ms += static_cast<double>(dur - covered) * 1e-6;
  }
  note("spans: name count total_ms self_ms");
  for (const auto& [name, a] : agg) {
    note("  span " + name + " " + std::to_string(a.count) + " " + fmt(a.total_ms) + " " +
         fmt(a.self_ms));
  }
}

// --- allocation counting ------------------------------------------------------

namespace {
std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void alloc_counting(bool on) { g_counting.store(on, std::memory_order_relaxed); }
std::uint64_t alloc_count() { return g_allocs.load(std::memory_order_relaxed); }

}  // namespace perfbench

void* operator new(std::size_t n) {
  if (perfbench::g_counting.load(std::memory_order_relaxed)) {
    perfbench::g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

// The replacement operator new above allocates with malloc, so free is
// the matching release; GCC cannot see that pairing.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop
