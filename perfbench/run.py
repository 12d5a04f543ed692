#!/usr/bin/env python3
"""AutoComp repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload cab_hybrid|control_loop|fleet_cold
        [--seed N] [--seconds S] [--trace 0|1] [--scale full|smoke]

Builds perfbench/ (the simulator sources plus perf_runner) on first use,
then runs the workload as a series of fresh perf_runner processes, one
replay each, so every replay's peak RSS (wait4 ru_maxrss) is its own.
The replays of one invocation cycle over a fixed set of sub-seeds
derived from --seed; the deterministic sim_* metrics are taken over
that set, the host-time metrics are medians over every replay.

Output checks: replays of the same sub-seed must produce the same
MetricsRecorder::ContentHash (every invocation repeats one), a fleet_cold
invocation also compares its sharded replay with a sequential one, and
a traced replay must hash-equal the untraced ones. Any non-OK status or
mismatch counts as failed and makes the command exit nonzero.

The last line of stdout is one JSON object: correct, attempted, failed
and metrics (every end-to-end metric with --trace 0, every per-layer
metric with --trace 1). See perfbench/README.md for what each means.
"""

import argparse
import fcntl
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

DEFAULT_SEED = 7
# Whole run budget: replays stop being started once this much has passed.
RUN_BUDGET_S = 150.0
CHILD_TIMEOUT_S = 120.0

WORKLOADS = ("cab_hybrid", "control_loop", "fleet_cold")
# Sub-seeds per invocation. The sim_* metrics are taken over exactly these,
# so they do not depend on how many replays fit into --seconds.
SUBSEEDS = 4
SMOKE_SUBSEEDS = 2

END_TO_END = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_files_end", "files"),
    ("sim_read_s_p95", "sim_s"),
]

PER_LAYER = [
    ("workload.gen_ms", "ms"),
    ("sim.advance_ms", "ms"),
    ("sim.advance_calls", "count"),
    ("engine.read_ms", "ms"),
    ("engine.read_calls", "count"),
    ("engine.write_ms", "ms"),
    ("engine.write_calls", "count"),
    ("storage.open_calls", "count"),
    ("storage.create_calls", "count"),
    ("storage.delete_calls", "count"),
    ("storage.timeouts", "count"),
    ("core.generate_ms", "ms"),
    ("core.observe_ms", "ms"),
    ("core.orient_ms", "ms"),
    ("core.decide_ms", "ms"),
    ("core.cycles", "count"),
    ("core.candidates", "count"),
    ("core.selected", "count"),
    ("core.index_hit_ratio", "ratio"),
    ("core.cycle_ms_p50", "ms"),
    ("core.cycle_ms_p90", "ms"),
    ("core.cycle_samples", "count"),
    ("engine.act_ms", "ms"),
    ("engine.compaction_commits", "count"),
    ("engine.compaction_abandoned", "count"),
    ("engine.commit_ratio", "ratio"),
    ("engine.compaction_gbhr", "GBHr"),
    ("lst.cluster_conflicts", "count"),
    ("lst.client_conflicts", "count"),
    ("sim.run_ms", "ms"),
    ("sim.events_per_s", "events/s"),
    ("sim.lanes_hydrated", "count"),
    ("sim.hydrated_ratio", "ratio"),
    ("sim.peak_resident_lanes", "count"),
    ("sim.lanes_evicted", "count"),
    ("sim.lanes_restored", "count"),
    ("sim.lanes_retired", "count"),
    ("sim.restore_ms", "ms"),
    ("sim.checkpoint_bytes", "bytes"),
    ("sim.read_s_p50", "sim_s"),
    ("sim.read_s_p99", "sim_s"),
    ("sim.failed_query_ratio", "ratio"),
    ("obs.trace_overhead_pct", "%"),
    ("obs.unattributed_pct", "%"),
]

# Per-layer host times: metric <- benchmark span names whose self time it sums.
SPAN_TIMES = {
    "workload.gen_ms": ["workload.setup", "workload.gen"],
    "sim.advance_ms": ["sim.advance"],
    "engine.read_ms": ["engine.read"],
    "engine.write_ms": ["engine.write"],
    "core.generate_ms": ["core.generate"],
    "core.observe_ms": ["core.observe"],
    "core.orient_ms": ["core.orient"],
    "core.decide_ms": ["core.decide"],
    "engine.act_ms": ["engine.act"],
    "sim.run_ms": ["sim.run"],
}


def fail(message, code=1):
    print(message, file=sys.stderr)
    sys.exit(code)


def build():
    """Configures and builds perfbench/ once per checkout; returns the
    runner path and the build type."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("perfbench: simulator sources (src/) not found next to "
             "perfbench/; run from a full checkout", 2)
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = Path.cwd() / build_dir
    build_dir = build_dir / "perfbench"
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(build_dir / ".lock", "w") as lock, open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (build_dir / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", str(build_dir), "-j", jobs,
                      "--target", "perf_runner"])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              timeout=870).returncode != 0:
                log.flush()
                tail = log_path.read_text(errors="replace")[-4000:]
                fail("perfbench: build failed:\n" + tail)
    build_type = "unknown"
    for line in (build_dir / "CMakeCache.txt").read_text().splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            build_type = line.split("=", 1)[1]
    return build_dir / "perf_runner", build_type


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_child(runner, argv):
    """Runs one perf_runner replay in a fresh process. Returns (report or
    None, wall seconds, peak RSS in MB as wait4 reports it)."""
    start = time.monotonic()
    proc = subprocess.Popen([str(runner)] + argv, stdout=subprocess.PIPE)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    reaped = False
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        reaped = True
    finally:
        timer.cancel()
        timer.join()
        proc.stdout.close()
        if not reaped:
            proc.kill()
            proc.wait()
    proc.returncode = os.waitstatus_to_exitcode(status)
    wall = time.monotonic() - start
    rss_mb = usage.ru_maxrss / 1024.0
    if proc.returncode != 0:
        print(f"perfbench: perf_runner {' '.join(argv)} exited "
              f"{proc.returncode}", file=sys.stderr)
        return None, wall, rss_mb
    try:
        return json.loads(out.decode().strip().splitlines()[-1]), wall, rss_mb
    except (ValueError, IndexError):
        return None, wall, rss_mb


def subseed(seed, index):
    return (seed * 1000 + index) % (1 << 63)


def sane(workload, report):
    """Workload-specific output checks beyond the hash comparisons."""
    counts = report["counts"]
    if report["events"] <= 0 or report["files_end"] <= 0 or not report["read_s"]:
        return False
    if workload == "cab_hybrid":
        return (report["events"] == report["shape"]["events"]
                and counts["engine.compaction_commits"] > 0)
    if workload == "control_loop":
        return (counts["core.cycles"] == 24 * report["shape"]["days"]
                and counts["engine.compaction_commits"] > 0)
    # The residency budget must really evict and restore lanes.
    return counts["sim.lanes_evicted"] > 0 and counts["sim.lanes_restored"] > 0


def percentile(values, q):
    """Linear-interpolated q-th percentile (0 < q < 100)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    args = parser.parse_args()
    workload = args.workload

    runner, build_type = build()
    k = SMOKE_SUBSEEDS if args.scale == "smoke" else SUBSEEDS
    base = ["--workload", workload, "--scale", args.scale]
    started = time.monotonic()

    # Each entry: (sub-seed index, report, in-run role, wall s, rss MB).
    checked = []
    if workload == "fleet_cold":
        # One sequential reference per invocation: the sharded replays of
        # sub-seed 0 must hash-equal it.
        report, wall, rss = run_child(
            runner, base + ["--seed", str(subseed(args.seed, 0)), "--sequential"])
        checked.append((0, report, "sequential", wall, rss))
        min_replays = k
    else:
        # Sub-seed 0 runs twice, so every invocation compares a hash.
        min_replays = k + 1

    window_start = time.monotonic()
    timed = []
    while True:
        last = timed[-1][3] if timed else 0.0
        if len(timed) >= min_replays and (
                time.monotonic() - window_start + last > args.seconds
                or time.monotonic() - started + last > RUN_BUDGET_S):
            break
        index = len(timed) % k
        report, wall, rss = run_child(
            runner, base + ["--seed", str(subseed(args.seed, index))])
        timed.append((index, report, "timed", wall, rss))
    checked.extend(timed)

    traced = None
    if args.trace:
        out_dir = Path.cwd() / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        spans = out_dir / f"spans_{workload}_seed{args.seed}.json"
        report, wall, rss = run_child(
            runner, base + ["--seed", str(subseed(args.seed, 0)),
                            "--trace", "1", "--spans", str(spans)])
        traced = report
        checked.append((0, report, "traced", wall, rss))

    # Output checks and failure accounting: a replay that failed a check
    # counts all of its events and cycles as failed.
    attempted = failed = 0
    hashes = {}
    for index, report, role, _, _ in checked:
        ok = report is not None and report["failed_ops"] == 0 and sane(
            workload, report)
        if ok and hashes.setdefault(index, report["hash"]) != report["hash"]:
            print(f"perfbench: {role} replay of sub-seed {index} hashed "
                  f"{report['hash']}, expected {hashes[index]}",
                  file=sys.stderr)
            ok = False
        ops = report["attempted_ops"] + len(report["cycle_ms"]) if report else 1
        attempted += ops
        failed += report["failed_ops"] if ok else ops
    correct = failed == 0

    good = [(i, r, w, m) for i, r, _, w, m in timed if r is not None]
    firsts = {}
    for index, report, _, _ in good:
        firsts.setdefault(index, report)
    if len(firsts) < k or (args.trace and traced is None):
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": failed, "metrics": {}}))
        return 1
    subs = [firsts[i] for i in range(k)]
    reads = [s for r in subs for s in r["read_s"]]

    cycles = [ms for _, r, _, _ in good for ms in r["cycle_ms"]]
    events_per_s = statistics.median(
        r["events"] / r["replay_s"] for _, r, _, _ in good)
    values = {}
    samples = {}
    if not args.trace:
        values["setup_s"] = statistics.median(r["setup_s"] for _, r, _, _ in good)
        values["peak_rss_mb"] = statistics.median(m for _, _, _, m in good)
        values["sim_files_end"] = statistics.median(r["files_end"] for r in subs)
        values["sim_read_s_p95"] = percentile(reads, 95)
        for name in ("setup_s", "peak_rss_mb"):
            samples[name] = len(good)
        samples["sim_files_end"] = k
        samples["sim_read_s_p95"] = len(reads)
        units = dict(END_TO_END)
    else:
        self_times = traced["self_times"]
        for name, spans in SPAN_TIMES.items():
            values[name] = sum(self_times[s]["self_ms"] for s in spans
                               if s in self_times)
        values["sim.advance_calls"] = self_times.get(
            "sim.advance", {"spans": 0})["spans"]
        for name, _ in PER_LAYER:
            if name in traced["counts"]:
                values[name] = traced["counts"][name]
        values["core.cycle_ms_p50"] = percentile(cycles, 50)
        values["core.cycle_ms_p90"] = percentile(cycles, 90)
        values["core.cycle_samples"] = len(cycles)
        values["sim.events_per_s"] = events_per_s
        values["engine.compaction_gbhr"] = statistics.median(
            r["compaction_gbhr"] for r in subs)
        values["sim.read_s_p50"] = percentile(reads, 50)
        values["sim.read_s_p99"] = percentile(reads, 99)
        queries = sum(r["queries"] for r in subs)
        values["sim.failed_query_ratio"] = (
            sum(r["failed_queries"] for r in subs) / queries if queries else 0.0)
        untraced_wall = statistics.median(
            r["setup_s"] + r["replay_s"] for i, r, _, _ in good if i == 0)
        traced_wall = traced["setup_s"] + traced["replay_s"]
        values["obs.trace_overhead_pct"] = 100.0 * (
            traced_wall / untraced_wall - 1.0)
        values["obs.unattributed_pct"] = (
            100.0 * self_times["run"]["self_ms"] / (1e3 * traced_wall))
        units = dict(PER_LAYER)
        for name in units:
            values.setdefault(name, 0.0)

    env = {
        "workload": workload,
        "seed": args.seed,
        "subseeds": [subseed(args.seed, i) for i in range(k)],
        "scale": args.scale,
        "nproc": os.cpu_count(),
        "build_type": build_type,
        "git_sha": git_sha(),
        "replays": len(good),
        "measured_s": round(sum(w for _, _, w, _ in good), 3),
        "replay_events_per_s": [round(r["events"] / r["replay_s"], 1)
                                for _, r, _, _ in good],
        "shape": subs[0]["shape"],
    }
    print("# perfbench " + json.dumps(env, sort_keys=True))
    if traced is not None and traced["program_spans"]:
        print("# program spans " + json.dumps(traced["program_spans"],
                                              sort_keys=True))
    if not args.trace:
        print(f"# events_per_s {events_per_s:.1f} (median of {len(good)} "
              "replays; per-layer sim.events_per_s)")
        if cycles:
            print(f"# cycle_ms p50 {percentile(cycles, 50):.3f} "
                  f"p90 {percentile(cycles, 90):.3f} ({len(cycles)} cycles)")
    for name, unit in units.items():
        n = f" ({samples[name]} samples)" if name in samples else ""
        print(f"# {name:28s} {values[name]:>16.6g} {unit}{n}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
