#!/usr/bin/env bash
# Run the bench binaries and collect their google-benchmark timings into
# BENCH_RESULTS.json so the perf trajectory is tracked across PRs.
#
# Usage:
#   tools/run_benchmarks.sh [build-dir] [bench-name ...]
#
#   build-dir   defaults to ./build
#   bench-name  zero or more bench binary names (e.g. bench_fig3a_presence);
#               default is every bench_* binary in <build-dir>/bench.
#
# Each binary prints its paper-vs-measured reproduction to stdout and
# writes its timings via --benchmark_out (JSON stays clean even though the
# reproduction text shares stdout). Per-binary JSON lands in
# bench-results/, the merged file in BENCH_RESULTS.json at the repo root.
#
# Alongside the timings the script records a structured run report
# (obs::MetricsRegistry via `sinet --metrics`): a short instrumented
# reference run whose event-queue / thread-pool / pass-cache / campaign
# counters land in bench-results/run_report.json and are merged into
# BENCH_RESULTS.json under "run_report", so workload shape (events
# executed, cache hit rate, pool utilization) is diffable across PRs next
# to the wall-times.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
shift $(( $# > 0 ? 1 : 0 ))

bench_dir="$build_dir/bench"
if [[ ! -d "$bench_dir" ]]; then
  echo "error: $bench_dir not found — build first (cmake -B build && cmake --build build)" >&2
  exit 1
fi

benches=("$@")
if [[ ${#benches[@]} -eq 0 ]]; then
  for b in "$bench_dir"/bench_*; do
    [[ -x "$b" ]] && benches+=("$(basename "$b")")
  done
fi
if [[ ${#benches[@]} -eq 0 ]]; then
  echo "error: no bench_* binaries in $bench_dir — build first" >&2
  exit 1
fi

out_dir="$repo_root/bench-results"
mkdir -p "$out_dir"

for name in "${benches[@]}"; do
  bin="$bench_dir/$name"
  if [[ ! -x "$bin" ]]; then
    echo "error: $name not built (expected $bin)" >&2
    exit 1
  fi
  echo "== $name"
  "$bin" --benchmark_out="$out_dir/$name.json" \
         --benchmark_out_format=json
done

# Instrumented reference run: one day of the active experiment with a
# metrics registry attached, so the report captures every layer (event
# queue, thread pool, pass cache, net.dts campaign counters). A second
# run under --propagation-mode fast records the same workload on the
# SoA/SIMD kernels (orbit.simd.* counters included when pass scans run).
sinet_cli="$build_dir/examples/sinet"
if [[ -x "$sinet_cli" ]]; then
  echo "== run report (sinet --metrics, active 1)"
  "$sinet_cli" --metrics "$out_dir/run_report.json" active 1 > /dev/null
  echo "== run report (sinet --metrics --propagation-mode fast, active 1)"
  "$sinet_cli" --metrics "$out_dir/run_report_fast.json" \
               --propagation-mode fast active 1 > /dev/null
else
  echo "note: $sinet_cli not built; skipping run report" >&2
fi

# Cross-simulator divergence scores (docs/VALIDATION.md): run the
# reference validation scenario and merge its scores next to the
# wall-times, so behavioural drift is tracked alongside performance.
if [[ -x "$sinet_cli" ]]; then
  echo "== validation report (sinet validate reference)"
  "$sinet_cli" validate reference "$out_dir/validation_report.json" \
               > /dev/null
fi

# Population-scale probe (docs/PERFORMANCE.md "Population scale"): a
# 100k-node aggregate-mode day-fraction through `sinet dts`, captured as
# key=value lines so throughput and peak RSS trend across PRs.
if [[ -x "$sinet_cli" ]]; then
  echo "== scale probe (sinet dts --nodes 100000 --sats 100)"
  "$sinet_cli" dts --nodes 100000 --sats 100 --sites 64 --days 0.05 \
               --threads "$(nproc 2>/dev/null || echo 1)" \
               | tee "$out_dir/scale_probe.txt"
fi

# Merge: { "<bench binary>": <google-benchmark JSON>, ...,
#          "run_report": <sinet.run_report.v1 JSON>,
#          "run_report_fast": <the same under PropagationMode::kFast>,
#          "ephemeris_ablation": <campaign-scan arm table incl. simd>,
#          "scale_ablation": <DtS engine arms + 100k-node probe>,
#          "svc_loadgen": <service SLOs: throughput, p50/p99, hit rate>,
#          "validation": <divergence scores/scalars from sinet validate> }
python3 - "$out_dir" "$repo_root/BENCH_RESULTS.json" <<'PY'
import json, pathlib, sys

out_dir, merged_path = pathlib.Path(sys.argv[1]), pathlib.Path(sys.argv[2])
merged = {}
for f in sorted(out_dir.glob("bench_*.json")):
    with open(f) as fh:
        merged[f.stem] = json.load(fh)
for key, name in (("run_report", "run_report.json"),
                  ("run_report_fast", "run_report_fast.json")):
    report = out_dir / name
    if report.exists():
        with open(report) as fh:
            merged[key] = json.load(fh)

# Divergence scores from the validation harness: keep only the compact
# scores/scalars (the full report carries every window and uplink).
validation = out_dir / "validation_report.json"
if validation.exists():
    with open(validation) as fh:
        report = json.load(fh)
    merged["validation"] = {
        "schema": report.get("schema"),
        "scenario": report.get("scenario"),
        "propagation_mode": report.get("propagation_mode"),
        "scores": {s["name"]: s["value"] for s in report.get("scores", [])},
        "scalars": {s["name"]: s["value"] for s in report.get("scalars", [])},
    }

# Distill the 30-day campaign-scan ablation (legacy / shared / culled /
# simd) into one flat column set so the perf trajectory diffs cleanly.
ablation = merged.get("bench_ablation_ephemeris", {})
arms = {}
for row in ablation.get("benchmarks", []):
    name = row.get("name", "")
    if name.startswith("BM_CampaignScan_"):
        arm = name[len("BM_CampaignScan_"):].split("/")[0]
        arms[arm] = row.get("real_time")
if arms:
    legacy = arms.get("Legacy")
    summary = {"wall_ms": arms}
    if legacy:
        summary["speedup_vs_legacy"] = {
            arm: round(legacy / ms, 2) for arm, ms in arms.items() if ms}
    merged["ephemeris_ablation"] = summary

# Distill the aggregate DtS engine's thread-scaling arms and the 100k-node
# CLI probe into one "scale_ablation" block.
scale = {}
for row in merged.get("bench_ablation_scale", {}).get("benchmarks", []):
    name = row.get("name", "")
    if name.startswith("BM_ScaleEngine_"):
        # "BM_ScaleEngine_Parallel/50000/4/iterations:1" -> "Parallel/50000/4T"
        parts = name[len("BM_ScaleEngine_"):].split("/")
        arm = "/".join(parts[:2]) + "/" + parts[2] + "T"
        scale.setdefault("wall_ms", {})[arm] = row.get("real_time")
wall = scale.get("wall_ms", {})
# Thread-scaling of the parallel engine: speedup of each Parallel arm
# over its own 1-thread reference at the same population.
parallel_speedup = {}
for arm, ms in wall.items():
    if arm.startswith("Parallel/") and ms:
        ref = wall.get("/".join(arm.split("/")[:2]) + "/1T")
        if ref:
            parallel_speedup[arm] = round(ref / ms, 2)
if parallel_speedup:
    scale["parallel_speedup_vs_1t"] = parallel_speedup
probe = out_dir / "scale_probe.txt"
if probe.exists():
    kv = {}
    for line in probe.read_text().splitlines():
        if "=" in line and line.startswith("dts."):
            k, _, v = line.partition("=")
            try:
                kv[k] = float(v)
            except ValueError:
                kv[k] = v
    if kv:
        scale["probe_100k"] = kv
if scale:
    merged["scale_ablation"] = scale

# Distill the service SLO bench (docs/SERVICE.md): per (requests,
# connections) arm, the closed-loop throughput, client/server latency
# quantiles and ContactWindowCache hit rate, so the `sinet serve` tail
# latency trends across PRs next to the kernel wall-times.
svc = {}
for row in merged.get("bench_svc_loadgen", {}).get("benchmarks", []):
    name = row.get("name", "")
    if name.startswith("BM_SvcLoadgen/"):
        # "BM_SvcLoadgen/2000/8/iterations:1" -> "2000/8"
        arm = "/".join(name[len("BM_SvcLoadgen/"):].split("/")[:2])
        svc[arm] = {k: row.get(k) for k in (
            "real_time", "throughput_rps", "client_p50_ms",
            "client_p99_ms", "server_p50_ms", "server_p99_ms",
            "cache_hit_rate", "ok", "shed", "errors") if k in row}
if svc:
    merged["svc_loadgen"] = svc

with open(merged_path, "w") as fh:
    json.dump(merged, fh, indent=1, sort_keys=True)
    fh.write("\n")
print(f"wrote {merged_path} ({len(merged)} entries)")
PY
