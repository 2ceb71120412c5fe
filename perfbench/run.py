#!/usr/bin/env python3
"""Build and run the DataCell benchmark for one workload.

    python3 perfbench/run.py --workload bulk-text --seed 1 --seconds 15 --trace 0

Builds the `perfbench` binary (a package of its own next to this file) from
the engine sources in the same checkout, then splits the measured time into
rounds, each in a fresh process: per-process effects (thread placement,
allocator state) differ from one process to the next, so the medians over
several processes are steadier than any one of them.

A round whose timed region lost more than `STEAL_MAX` of the machine's CPU
time to the hypervisor (steal time in `/proc/stat`: a virtual CPU was ready
to run but the host ran a neighbour instead) measured the neighbour as much
as the engine. Such rounds still count for validation, but the figures are
the medians over the other rounds, or over the least-stolen half of the
rounds when fewer than half are clean.

The last line of standard output is one JSON object: `correct`,
`attempted`, `failed` and `metrics`. With `--trace 0` the metrics are the
end-to-end ones, each the median over the rounds kept. With `--trace 1`, traced
rounds alternate with untraced ones and the metrics are the per-layer ones
(medians over the traced rounds) plus `trace.overhead_frac`, the share of
throughput the tracing cost.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKLOADS = ["bulk-text", "paced-wire", "paced-embedded", "fanout-windows"]
END_TO_END = [
    "throughput_tps",
    "latency_p50_us",
    "latency_p90_us",
    "cpu_ns_per_tuple",
    "peak_rss_mb",
    "setup_s",
    "valid_frac",
]
ROUNDS = 20
STEAL_MAX = 0.02
# Whole run budget after the build: a run must end within 180 s.
RUN_BUDGET_S = 170.0


def build():
    """Build the benchmark binary; returns its path."""
    manifest = HERE / "Cargo.toml"
    engine = ROOT / "crates" / "datacell" / "Cargo.toml"
    if not engine.is_file():
        raise SystemExit(f"run.py: engine sources not found ({engine}); run from a full checkout")
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(manifest)]
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=850)
    if done.returncode != 0:
        raise SystemExit(f"run.py: build failed ({done.returncode})")
    return target / "release" / "perfbench"


def round_once(binary, args, index, seconds, traced, deadline):
    cmd = [
        str(binary),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(seconds),
        "--trace", "1" if traced else "0",
        "--round", str(index),
        "--spans", str(HERE / "out"),
    ]
    timeout = max(1.0, deadline - time.monotonic())
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout)
    if done.returncode != 0:
        raise SystemExit(f"run.py: round {index} failed ({done.returncode})")
    return json.loads(done.stdout.strip().splitlines()[-1])


def least_stolen(rounds):
    """The rounds the hypervisor took at most STEAL_MAX of, or, when fewer
    than half of them qualify, the least-stolen half."""
    steal = lambda r: r["metrics"]["host.steal_frac"]["value"]
    clean = [r for r in rounds if steal(r) <= STEAL_MAX]
    if 2 * len(clean) >= len(rounds):
        return clean
    stolen = len(rounds) - len(clean)
    print(f"run.py: {stolen} of {len(rounds)} rounds lost over {STEAL_MAX:.0%} of the CPU "
          "to the hypervisor; using the least-stolen half", file=sys.stderr)
    return sorted(rounds, key=steal)[: (len(rounds) + 1) // 2]


def medians(rounds, names):
    out = {}
    for name in names:
        values = [r["metrics"][name]["value"] for r in rounds]
        out[name] = {"value": statistics.median(values), "unit": rounds[0]["metrics"][name]["unit"]}
    return out


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()

    binary = build()
    deadline = time.monotonic() + RUN_BUDGET_S
    per_round = args.seconds / ROUNDS
    # Traced runs alternate untraced and traced rounds, untraced first.
    plan = [False] * ROUNDS if not args.trace else [False, True] * (ROUNDS // 2)
    results = [round_once(binary, args, i, per_round, t, deadline) for i, t in enumerate(plan)]
    plain = least_stolen([r for r, t in zip(results, plan) if not t])
    traced = least_stolen([r for r, t in zip(results, plan) if t])

    if args.trace:
        names = [n for n in traced[0]["metrics"] if n not in END_TO_END]
        metrics = medians(traced, names)
        tps = lambda rs: statistics.median(r["metrics"]["throughput_tps"]["value"] for r in rs)
        metrics["trace.overhead_frac"] = {"value": 1.0 - tps(traced) / tps(plain), "unit": "frac"}
    else:
        metrics = medians(plain, END_TO_END)

    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
