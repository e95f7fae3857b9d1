#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the sinet reproduction.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call builds perfbench_workload and
the library sources under .bench_build/perfbench. Every workload run is a
fresh workload process, so peak RSS is that run's own high-water mark and
process-wide caches start cold, as they do for a user's CLI run.

--trace 0 measures the end-to-end metrics of BENCHMARK.json. --trace 1
makes one untraced and one traced run (plus a 1-thread run on dts_scale)
and prints the per-layer metrics. Each names the layer it belongs to:
see perfbench/README.md for the layer -> metric -> workload map.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOAD_BIN = os.path.join(BUILD, "perfbench_workload")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

BATCH = ("campaign", "active", "dts_scale")
WORKLOADS = BATCH + ("serve_zipf",)
MIN_BATCH_RUNS = 3  # a median needs at least three runs
SETUP_SAMPLES = 15
CHILD_TIMEOUT_S = 150.0
MIN_COVERAGE = 0.90  # named layers must explain this share of a batch run


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the workload binary; exits non-zero on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no program sources under src/; cannot build")
        sys.exit(2)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr, cwd=ROOT) != 0:
            log("perfbench: cmake configure failed")
            sys.exit(2)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", BUILD, "--target", "perfbench_workload", "-j", jobs]
    if subprocess.call(cmd, stdout=sys.stderr, cwd=ROOT) != 0:
        log("perfbench: build failed")
        sys.exit(2)


class Child:
    """One finished workload process: its JSON result (None if it crashed,
    timed out or printed garbage), peak RSS and wall time seen from here."""

    def __init__(self, args):
        t0 = time.perf_counter()
        proc = subprocess.Popen([WORKLOAD_BIN] + args, stdout=subprocess.PIPE, cwd=ROOT)
        deadline = t0 + CHILD_TIMEOUT_S
        chunks = []
        killed = False
        while True:
            left = deadline - time.perf_counter()
            if left <= 0 and not killed:
                os.kill(proc.pid, signal.SIGKILL)  # not reaped yet: pid is ours
                killed = True
            ready, _, _ = select.select([proc.stdout], [], [], max(left, 0.1))
            if ready:
                data = os.read(proc.stdout.fileno(), 65536)
                if not data:
                    break
                chunks.append(data)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        self.seconds = time.perf_counter() - t0
        self.peak_rss_mb = usage.ru_maxrss / 1024.0  # Linux reports KiB
        self.result = None
        self.error = None
        if killed:
            self.error = "timed out after %.0f s" % CHILD_TIMEOUT_S
        elif proc.returncode != 0:
            self.error = "exit code %d" % proc.returncode
        else:
            try:
                self.result = json.loads(b"".join(chunks).decode().splitlines()[-1])
            except (ValueError, IndexError) as exc:
                self.error = "unreadable output: %s" % exc


class Tally:
    """Operations attempted and failed, with the reasons for failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, child, what):
        if child.result is None:
            self.attempted += 1
            self.failed += 1
            self.problems.append("%s: %s" % (what, child.error))
            return None
        r = child.result
        self.attempted += r["attempted"]
        self.failed += r["failed"]
        self.problems += ["%s: %s" % (what, p) for p in r["problems"]]
        return r

    def fail(self, reason):
        self.attempted += 1
        self.failed += 1
        self.problems.append(reason)


def run_args(workload, seed, seconds, trace_file=None, threads=None):
    args = ["run", workload, "--seed", str(seed), "--seconds", str(seconds)]
    if threads is not None:
        args += ["--threads", str(threads)]
    if trace_file:
        args += ["--trace", trace_file]
    return args


def end_to_end(workload, seed, seconds, tally):
    """Untraced runs; returns the end-to-end metric values."""
    if workload == "serve_zipf":
        child = Child(run_args(workload, seed, seconds))
        r = tally.add(child, workload)
        if r is None:
            return {}
        v = r["values"]
        print("serve_zipf: open loop %d samples, p99 %.3f ms; closed loop %d completions"
              % (v["open_loop_samples"], v["p99_ms"], v["closed_loop_samples"]))
        return {
            "wall_s": r["wall_s"],
            "setup_s": v["setup_s"],
            "p50_ms": v["p50_ms"],
            "capacity_rps": v["capacity_rps"],
            "peak_rss_mb": child.peak_rss_mb,
        }

    # Batch workloads: an operation is one whole run in a fresh process.
    setups = []
    for _ in range(SETUP_SAMPLES):
        child = Child(["setup", workload, "--seed", str(seed)])
        if child.result is None:
            tally.fail("%s setup: %s" % (workload, child.error))
        setups.append(child.seconds)
    walls, rss = [], []
    runs = 0
    t0 = time.perf_counter()
    while runs < MIN_BATCH_RUNS or time.perf_counter() - t0 < seconds:
        runs += 1
        child = Child(run_args(workload, seed, seconds))
        r = tally.add(child, workload)
        if r is not None:
            walls.append(r["wall_s"])
            rss.append(child.peak_rss_mb)
    if not walls:
        return {}
    log("%s: %d runs, wall %s s" % (workload, len(walls),
                                    " ".join("%.3f" % w for w in walls)))
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "p50_ms": 1e3 * statistics.median(walls),
        "capacity_rps": len(walls) / sum(walls),
        "peak_rss_mb": statistics.median(rss),
    }


def per_layer(workload, seed, seconds, tally):
    """One untraced and one traced run; returns the per-layer values."""
    trace_dir = os.path.join(ROOT, ".bench_build", "traces")
    os.makedirs(trace_dir, exist_ok=True)
    trace_file = os.path.join(trace_dir, "%s-seed%d.json" % (workload, seed))
    plain = tally.add(Child(run_args(workload, seed, seconds)), workload)
    traced = tally.add(Child(run_args(workload, seed, seconds, trace_file)),
                       workload + " traced")
    if plain is None or traced is None:
        return {}
    layers = dict(traced["layers"])
    layers["bench.trace_overhead_s"] = traced["wall_s"] - plain["wall_s"]
    log("%s: trace written to %s" % (workload, os.path.relpath(trace_file, ROOT)))
    if workload in BATCH and layers.get("bench.coverage", 0.0) < MIN_COVERAGE:
        tally.fail("%s: named layers cover %.1f%% of the run, below %.0f%%"
                   % (workload, 100 * layers.get("bench.coverage", 0.0),
                      100 * MIN_COVERAGE))
    if workload == "dts_scale":
        serial = tally.add(Child(run_args(workload, seed, seconds, threads=1)),
                           workload + " 1-thread")
        if serial is not None:
            layers["dts.speedup_vs_1t"] = serial["wall_s"] / plain["wall_s"]
            for other, what in ((plain, "all-thread"), (traced, "traced")):
                if other["aggregate"] != serial["aggregate"]:
                    tally.fail("dts_scale: %s aggregate lines differ from the "
                               "1-thread run" % what)
    return layers


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    with open(SPEC) as f:
        spec = json.load(f)
    build()

    tally = Tally()
    if args.trace:
        wanted = spec["per_layer"]
        values = per_layer(args.workload, args.seed, args.seconds, tally)
    else:
        wanted = spec["end_to_end"]
        values = end_to_end(args.workload, args.seed, args.seconds, tally)
        values["success_ratio"] = (
            (tally.attempted - tally.failed) / tally.attempted if tally.attempted else 0.0)
    metrics = {}
    for m in wanted:
        # A layer that does no work on this workload reports 0.
        value = values.get(m["name"], 0.0) if args.trace else values.get(m["name"])
        if value is None:
            tally.fail("metric %s was not measured" % m["name"])
            value = 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    for p in tally.problems:
        log("FAILED %s" % p)
    print("%s: %d operations, %d failed (error_rate %.6f)"
          % (args.workload, tally.attempted, tally.failed,
             tally.failed / max(1, tally.attempted)))
    for name, m in metrics.items():
        print("  %-34s %14.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": max(1, tally.attempted),
        "failed": tally.failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
