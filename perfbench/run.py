#!/usr/bin/env python3
"""Build and run the rablock benchmark, one workload or all of them.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--seed N] [--trace 0|1]   # every workload, then a table
    python3 perfbench/run.py --write-manifest

Run from the repository root. The first call builds the benchmark package
(perfbench/Cargo.toml, release profile, offline) into $CARGO_TARGET_DIR, or
.bench_build when that is unset. The binary runs the workload; this script
prints the host facts, checks the binary's result against the metric tables
below, and prints as its last line one JSON object with exactly the keys
correct, attempted, failed and metrics. Without --workload it runs every
workload in turn and ends with a table of every metric. It exits non-zero,
printing no result, when the benchmark cannot be built or does not finish.

The tables below are the one definition of the benchmark; --write-manifest
writes them to BENCHMARK.json, and every run checks that file against them.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_SECONDS = 25
# Seconds one run may take once built (a run must end within 180).
RUN_TIMEOUT = 170
BUILD_TIMEOUT = 900

WORKLOADS = [
    {"name": "fig7-randwrite",
     "why": "DOP on the paper cluster, 16 conns x qd16 of 4 KiB random writes: "
            "the paper's headline cell, where OSD handler, COS and oplog run on "
            "the sequential engine path"},
    {"name": "scale-256osd",
     "why": "DOP on 32 nodes x 8 OSDs under 10 000 conns x qd2 on 2 worker shards: "
            "the only one with a large event queue, 33 engine domains, the "
            "parallel executor and costly set-up"},
    {"name": "ycsb-a-original",
     "why": "stock Ceph (thread-pool OSD, LSM store) running YCSB-A: the only one "
            "with WAL, memtable, compaction, reads beside writes and thread-pool "
            "context switches"},
    {"name": "recover-randrw",
     "why": "DOP 70/30 4 KiB writes/reads while OSD 1 crashes with a torn NVM tail "
            "and restarts: the only one with peering, log recovery, backfill, "
            "checksums and retries"},
]

END_TO_END = [
    {"name": "sim_ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.25},
    {"name": "sim_kiops", "unit": "kIOPS", "better": "higher", "bound": 0.10},
    {"name": "sim_write_p50_us", "unit": "us", "better": "lower", "bound": 0.15},
    {"name": "sim_write_p99_us", "unit": "us", "better": "lower", "bound": 0.25},
    {"name": "sim_write_p999_us", "unit": "us", "better": "lower", "bound": 0.25},
    {"name": "sim_cpu_us_per_op", "unit": "us", "better": "lower", "bound": 0.10},
    {"name": "waf", "unit": "ratio", "better": "lower", "bound": 0.10},
    {"name": "op_ok_ratio", "unit": "ratio", "better": "higher", "bound": 0.01},
]

PER_LAYER_UNITS = [
    ("setup.new_s", "s"),
    ("setup.prefill_s", "s"),
    ("sim.host_ns_per_event", "ns"),
    ("sim.events_per_op", "count"),
    ("sim.engine_ns_per_event", "ns"),
    ("sim.engine_par_speedup", "x"),
    ("sim.shard_speedup", "x"),
    ("sim.queue_high_water", "count"),
    ("cos.submit_ns", "ns"),
    ("cos.read_ns", "ns"),
    ("cos.submit_csum_ns", "ns"),
    ("cos.read_csum_ns", "ns"),
    ("oplog.append_ns", "ns"),
    ("oplog.drain_ns_per_record", "ns"),
    ("lsm.submit_ns", "ns"),
    ("lsm.read_ns", "ns"),
    ("lsm.maintenance_ns_per_submit", "ns"),
    ("sim.engine_est_share", "ratio"),
    ("cos.est_share", "ratio"),
    ("oplog.est_share", "ratio"),
    ("lsm.est_share", "ratio"),
    ("workload.gen_share", "ratio"),
    ("cluster.handler_rest_share", "ratio"),
    ("cluster.cpu_pct.MP", "%"),
    ("cluster.cpu_pct.RP", "%"),
    ("cluster.cpu_pct.TP", "%"),
    ("cluster.cpu_pct.OS", "%"),
    ("cluster.cpu_pct.MT", "%"),
    ("cluster.ctx_switches_per_op", "count"),
    ("cluster.nvm_full_stalls", "count"),
    ("cluster.recovery_pushes", "count"),
    ("cluster.backfill_bytes", "bytes"),
    ("cluster.degraded_objects_end", "count"),
    ("sim_read_p50_us", "us"),
    ("sim_read_p99_us", "us"),
    ("storage.wal_bytes_per_user_byte", "ratio"),
    ("storage.flush_bytes_per_user_byte", "ratio"),
    ("storage.compaction_bytes_per_user_byte", "ratio"),
    ("storage.data_bytes_per_user_byte", "ratio"),
    ("storage.metadata_bytes_per_user_byte", "ratio"),
    ("storage.device_writes_per_op", "count"),
    ("attr.share.queue", "ratio"),
    ("attr.share.service", "ratio"),
    ("attr.share.network", "ratio"),
    ("attr.share.nvm", "ratio"),
    ("attr.share.device", "ratio"),
    ("attr.share.retry", "ratio"),
    ("attr.share.other", "ratio"),
    ("trace.overhead_ratio", "ratio"),
]

# Which way each per-layer metric is better; the rest are lower-is-better.
HIGHER_IS_BETTER = {"sim.engine_par_speedup", "sim.shard_speedup"}
PER_LAYER = [
    {"name": n, "unit": u, "better": "higher" if n in HIGHER_IS_BETTER else "lower"}
    for n, u in PER_LAYER_UNITS
]


def manifest():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": END_TO_END,
        "per_layer": PER_LAYER,
    }


def manifest_path():
    return os.path.join(ROOT, "BENCHMARK.json")


def git_commit():
    """The checkout's commit, read from .git without leaving the checkout."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = os.path.join(ROOT, ".git", name)
        if os.path.exists(loose):
            with open(loose) as f:
                return f.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def build(env):
    """Builds the benchmark; returns the binary's path, or None."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml")]
    try:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env,
                           timeout=BUILD_TIMEOUT)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"build failed: {e}", file=sys.stderr)
        return None
    if r.returncode != 0:
        print(f"build failed with exit code {r.returncode}", file=sys.stderr)
        return None
    return os.path.join(env["CARGO_TARGET_DIR"], "release", "rablock-perfbench")


def run_binary(cmd, env):
    """Runs the benchmark binary in its own process group; returns its
    stdout, or None if it failed or overran (its whole group is killed)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, env=env,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"benchmark overran {RUN_TIMEOUT} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"benchmark exited with code {proc.returncode}", file=sys.stderr)
        return None
    return stdout


def run_workload(exe, env, workload, seed, seconds, trace, build_s):
    """Runs one workload; prints its lines and host facts, and returns the
    checked result (the dict of the last line), or None on a failure."""
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--out", os.path.join(BENCH_DIR, "out")]
    stdout = run_binary(cmd, env)
    if stdout is None:
        return None
    lines = stdout.strip().splitlines()
    if not lines:
        print("benchmark printed nothing", file=sys.stderr)
        return None
    for line in lines[:-1]:
        print(line)
    try:
        raw = json.loads(lines[-1])
    except json.JSONDecodeError:
        print("benchmark's last line is not JSON", file=sys.stderr)
        return None

    problems = list(raw.get("problems", []))
    declared = END_TO_END if trace == 0 else PER_LAYER
    got = raw.get("metrics", {})
    metrics = {}
    for m in declared:
        v = got.get(m["name"])
        if v is None:
            problems.append(f"metric {m['name']} missing")
            v = {"value": 0.0, "unit": m["unit"]}
        elif v["unit"] != m["unit"]:
            problems.append(f"metric {m['name']} has unit {v['unit']}, not {m['unit']}")
        elif trace == 0 and not v["value"] > 0:
            problems.append(f"end-to-end metric {m['name']} is {v['value']}")
        metrics[m["name"]] = {"value": v["value"], "unit": m["unit"]}
    for name in sorted(set(got) - set(metrics)):
        problems.append(f"undeclared metric {name}")
    try:
        with open(manifest_path()) as f:
            if json.load(f) != manifest():
                problems.append("BENCHMARK.json differs from perfbench/run.py "
                                "(regenerate it with --write-manifest)")
    except (OSError, json.JSONDecodeError) as e:
        problems.append(f"BENCHMARK.json unreadable: {e}")

    rustc = subprocess.run(["rustc", "-V"], capture_output=True, text=True, env=env)
    host = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": len(os.sched_getaffinity(0)),
        "rustc": rustc.stdout.strip() or "unknown",
        "profile": "release",
        "commit": git_commit(),
        "build_s": round(build_s, 3),
    }
    print("host: " + json.dumps(host))
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    correct = bool(raw.get("correct")) and not problems
    attempted = max(1, int(raw.get("attempted", 1)))
    failed = int(raw.get("failed", 0)) if correct else attempted
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[w["name"] for w in WORKLOADS],
                    help="the workload to run (default: every workload, then a table)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--write-manifest", action="store_true",
                    help="write BENCHMARK.json from the tables in this file and exit")
    args = ap.parse_args()
    if args.write_manifest:
        with open(manifest_path(), "w") as f:
            json.dump(manifest(), f, indent=2)
            f.write("\n")
        return 0

    env = dict(os.environ)
    env["CARGO_TARGET_DIR"] = env.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    t0 = time.monotonic()
    exe = build(env)
    if exe is None:
        return 1
    build_s = time.monotonic() - t0

    names = [args.workload] if args.workload else [w["name"] for w in WORKLOADS]
    results = {}
    for name in names:
        result = run_workload(exe, env, name, args.seed, args.seconds, args.trace, build_s)
        if result is None:
            return 1
        print(json.dumps(result))
        results[name] = result
    if len(names) > 1:
        declared = END_TO_END if args.trace == 0 else PER_LAYER
        print(f"{'metric':40s} {'unit':6s}" + "".join(f"{n:>18s}" for n in names))
        for m in declared:
            row = "".join(f"{results[n]['metrics'][m['name']]['value']:18.6g}" for n in names)
            print(f"{m['name']:40s} {m['unit']:6s}{row}")
        print(f"{'correct':47s}" + "".join(f"{str(results[n]['correct']):>18s}" for n in names))
    return 0


if __name__ == "__main__":
    sys.exit(main())
