// twfd_perfbench: one workload per invocation.
//
//   twfd_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--span-file PATH]
//
// Prints human-readable lines, then as its last stdout line one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics untraced, the per-layer metrics traced. Exits 1 when the run
// is invalid (a correctness gate failed or the load generator fell
// behind its schedule), 2 on bad arguments.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "workloads.hpp"

using namespace perfbench;

namespace {

[[noreturn]] void usage() {
  std::cerr << "usage: twfd_perfbench --workload wan_replay|steady_fleet|flap_shared "
               "--seed N --seconds S --trace 0|1 [--span-file PATH]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage();
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atoi(v.c_str());
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--span-file") {
      a.span_path = v;
    } else {
      usage();
    }
  }
  if (a.workload.empty() || a.seconds < 1) usage();
  return a;
}

void print_json(const Result& r, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              r.correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), v, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  note(std::string("build: ") + TWFD_PERFBENCH_BUILD_TYPE + ", compiler " + __VERSION__ +
       ", flags '" + TWFD_PERFBENCH_CXX_FLAGS + "'");
  if (args.trace) Spans::enable();
  RunOutput out;
  try {
    if (args.workload == "wan_replay") {
      out = run_wan_replay(args);
    } else if (args.workload == "steady_fleet") {
      out = run_steady_fleet(args);
    } else if (args.workload == "flap_shared") {
      out = run_flap_shared(args);
    } else {
      usage();
    }
  } catch (const std::exception& e) {
    std::cerr << "twfd_perfbench: " << e.what() << '\n';
    return 1;
  }
  Result& r = out.result;
  for (const Metric& m : r.metrics) {
    if (!std::isfinite(m.value)) r.invalid("metric " + m.name + " is not finite");
  }
  if (args.trace) {
    Spans::print_self_times();
    if (!args.span_path.empty()) {
      if (Spans::write(args.span_path)) {
        note("span file: " + args.span_path);
      } else {
        r.invalid("cannot write span file " + args.span_path);
      }
    }
    for (const Metric& m : r.metrics) note("e2e " + m.name + " " + fmt(m.value, 6) + " " + m.unit);
    for (const Metric& m : out.layers) note("layer " + m.name + " " + fmt(m.value, 6) + " " + m.unit);
    print_json(r, out.layers);
  } else {
    for (const Metric& m : r.metrics) note("e2e " + m.name + " " + fmt(m.value, 6) + " " + m.unit);
    print_json(r, r.metrics);
  }
  return r.correct ? 0 : 1;
}
