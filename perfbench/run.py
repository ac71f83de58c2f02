#!/usr/bin/env python3
"""Builds and runs the verdict-path benchmark for one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds
perfbench/ (which compiles the library from src/) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable
is unset; later runs rebuild incrementally. Every line printed before the
last is for people: the host and build stamp, the workload's notes, and
for traced runs the span self times and the tracing overhead. The last
line is one JSON object: {"correct", "attempted", "failed", "metrics"}.

Exits non-zero without a result when the build fails (for example when the
library sources are missing), when the run is invalid, or when the result
does not carry exactly the metrics BENCHMARK.json names.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TYPE = "RelWithDebInfo"  # the repository's default build type
DEADLINE_S = 170  # the runs of one invocation end within this, after the build


def log(line):
    print(line, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(bdir):
    """Configures (once) and builds twfd_perfbench; output goes to stderr."""
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(bdir, ignore_errors=True)
            sys.exit("perfbench: configure failed")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    cmd = ["cmake", "--build", bdir, "--target", "twfd_perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(bdir, "twfd_perfbench")


def cmake_cache(bdir):
    cache = {}
    with open(os.path.join(bdir, "CMakeCache.txt")) as f:
        for line in f:
            if "=" in line and ":" in line.split("=", 1)[0]:
                key, value = line.rstrip("\n").split("=", 1)
                cache[key.split(":", 1)[0]] = value
    return cache


def stamp(bdir):
    """Host and build facts every result is read against."""
    cpus = sorted(os.sched_getaffinity(0))
    mask = sum(1 << c for c in cpus)
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache = cmake_cache(bdir)
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    flags = " ".join(cache.get(k, "") for k in (
        "CMAKE_CXX_FLAGS", "CMAKE_CXX_FLAGS_" + build_type.upper()))
    compiler = cache.get("CMAKE_CXX_COMPILER", "?")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        env = dict(os.environ, GIT_DIR=os.path.join(ROOT, ".git"))
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                           env=env)
        if r.returncode == 0:
            commit = r.stdout.strip()
    log("host: nproc %d (os.cpu_count %s), affinity mask 0x%x, cpu '%s'"
        % (len(cpus), os.cpu_count(), mask, model))
    log("build: type %s, flags '%s', compiler %s, commit %s"
        % (build_type, flags.strip(), version, commit))
    if "-fsanitize" in flags:
        log("WARNING: sanitizer build; timings are not comparable")
    if build_type not in ("Release", "RelWithDebInfo"):
        log("WARNING: unoptimised build type '%s'; timings are not comparable" % build_type)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_binary(binary, args, trace, start, span_file=None):
    """Runs one workload; echoes its human lines, returns (code, result, e2e)."""
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "1" if trace else "0"]
    if span_file:
        cmd += ["--span-file", span_file]
    budget = DEADLINE_S - (time.monotonic() - start)
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=max(1, budget))
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: %s did not finish within %d s" % (args.workload, DEADLINE_S))
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    e2e = {}
    for line in lines[:-1]:
        log(line)
        parts = line.split()
        if len(parts) == 4 and parts[0] == "e2e":
            e2e[parts[1]] = float(parts[2])
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.exit("perfbench: %s printed no result (exit %d)" % (args.workload, proc.returncode))
    return proc.returncode, result, e2e


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["wan_replay", "steady_fleet", "flap_shared"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seconds < 1 or args.seed < 0:
        sys.exit("perfbench: --seconds must be >= 1 and --seed >= 0")

    bdir = build_dir()
    binary = build(bdir)
    start = time.monotonic()
    stamp(bdir)
    results = os.path.join(bdir, "results")
    os.makedirs(results, exist_ok=True)
    key = "%s-seed%d-%ds" % (args.workload, args.seed, args.seconds)
    untraced_path = os.path.join(results, key + ".json")

    if args.trace:
        # Tracing overhead = traced minus untraced end-to-end numbers of the
        # same workload: the untraced run of the same seed and length if one
        # is cached, else the latest cached one of this workload and length,
        # else an untraced run made now.
        base_path = untraced_path
        if not os.path.isfile(base_path):
            same = [os.path.join(results, f) for f in os.listdir(results)
                    if f.startswith(args.workload + "-seed")
                    and f.endswith("-%ds.json" % args.seconds)]
            if same:
                base_path = max(same, key=os.path.getmtime)
            else:
                log("-- untraced run, for the tracing-overhead comparison --")
                code, untraced, _ = run_binary(binary, args, False, start)
                with open(untraced_path, "w") as f:
                    json.dump(untraced, f)
        with open(base_path) as f:
            untraced = json.load(f)
        log("tracing overhead is measured against %s" % os.path.basename(base_path))
        span_file = os.path.join(results, key + ".spans.jsonl")
        log("-- traced run --")
        code, result, e2e = run_binary(binary, args, True, start, span_file)
        log("tracing overhead (traced vs untraced end-to-end, same seed):")
        for name, traced in e2e.items():
            base = untraced["metrics"].get(name, {}).get("value")
            if base:
                log("  %s traced %.6g untraced %.6g (%+.1f%%)"
                    % (name, traced, base, 100.0 * (traced - base) / base))
    else:
        code, result, _ = run_binary(binary, args, False, start)
        with open(untraced_path, "w") as f:
            json.dump(result, f)

    want = expected_metrics(bool(args.trace))
    got = list(result.get("metrics", {}))
    if sorted(want) != sorted(got):
        sys.exit("perfbench: metrics %s differ from BENCHMARK.json's %s" % (got, want))
    print(json.dumps(result), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
