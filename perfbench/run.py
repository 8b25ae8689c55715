"""Benchmark entry point: one run of one workload, each part in a fresh interpreter.

    python3 perfbench/run.py --workload {sweep,semiprimes,classgroup} \
        --seed N --seconds S --trace {0,1}

--trace 0 sets up once uncounted, then SETUP_RUNS times before and SETUP_RUNS
times after the timed worker, which runs whole rounds for at least S seconds;
setup_s is the second slowest of those set-ups and the timed worker's own.
It prints the end-to-end metrics.
--trace 1 runs the untraced timed worker with S = 0 (the workload's fixed
number of rounds) and one traced round, and prints the per-layer metrics,
with the tracing overhead.  The last line of standard
output is always the JSON result; the lines before it describe the run.
Metric names and units come from BENCHMARK.json at the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_RUNS = 8
CHILD_TIMEOUT_S = 150


def child(workload: str, seed: int, mode: str, seconds: float) -> tuple[dict, float]:
    """Run the worker; return its JSON result and the monotonic clock at spawn."""
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(WORKER), workload, str(seed), mode, str(seconds)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {mode} for {workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), spawned


def tail_rank(n: int) -> int:
    """Index into n sorted samples of the highest percentile with ten samples beyond it."""
    return max(n - 11, 0)


def input_stats(per_input: list[float]) -> dict[str, float]:
    """Metrics over the inputs, each input timed by its slowest kept round.

    On a shared host the CPU runs in bursts of up to half again its sustained
    speed, lasting from one second to half a minute; the slowest of several
    rounds tracks the sustained speed, where a median or a minimum follows
    the bursts (see README.md, "Why the slowest round").
    """
    per_input = sorted(per_input)
    return {
        "ops_per_s": len(per_input) / sum(per_input),
        "p50_ms": statistics.median(per_input) * 1e3,
        "tail_ms": per_input[tail_rank(len(per_input))] * 1e3,
    }


def describe(result: dict, workload: str, seed: int) -> None:
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or sha
        except OSError:
            pass
    print(f"workload: {workload}  seed: {seed}")
    print(f"quadforms: {result['package']}")
    print(f"git: {sha}")
    print(f"python: {platform.python_version()}  nproc: {len(os.sched_getaffinity(0))}")


def setup_time(workload: str, seed: int, mode: str = "setup", seconds: float = 0) -> tuple[float, dict]:
    """Run the worker; return the time from its spawn to its first operation, and its result."""
    r, spawned = child(workload, seed, mode, seconds)
    return r["first_op"] - spawned, r


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    child(workload, seed, "setup", 0)  # fills the bytecode cache of a fresh checkout
    # set-ups on both sides of the timed run, so they sample the host over its length
    setups = [setup_time(workload, seed)[0] for _ in range(SETUP_RUNS)]
    timed_setup, r = setup_time(workload, seed, "timed", seconds)
    setups += [timed_setup] + [setup_time(workload, seed)[0] for _ in range(SETUP_RUNS)]
    describe(r, workload, seed)
    n = len(r["per_input"])
    print(
        f"rounds: {r['rounds']} of {n} operations, the last {len(r['round_s'])} timed;"
        f" tail_ms is p{100 * (n - 10) / n:g} of {n} per-input times"
        f" ({n - tail_rank(n) - 1} beyond it)"
    )
    values = input_stats(r["per_input"])
    # like the slowest round, a slow set-up tracks the host's sustained speed;
    # the second slowest leaves out a single stall
    values["setup_s"] = sorted(setups)[-2]
    values["peak_rss_mb"] = r["peak_rss_kb"] / 1024
    return values, r


def per_layer(workload: str, seed: int) -> tuple[dict, dict]:
    base, _ = child(workload, seed, "timed", 0)
    r, _ = child(workload, seed, "traced", 0)
    describe(r, workload, seed)
    for key in ("attempted", "failed", "wrong"):
        r[key] += base[key]
    r["errors"] += base["errors"]
    untraced, traced = statistics.median(base["round_s"]), r["round_s"][0]
    print(f"spans: {r['spans']} written to {r['span_file']}")
    print(
        f"untraced round: {untraced:.3f} s (median of {len(base['round_s'])})"
        f"  traced round: {traced:.3f} s"
    )
    values = {"trace.wall_s": traced, "trace.overhead_s": traced - untraced}
    for name in r["calls"]:
        values[f"{name}.calls"] = r["calls"][name]
        values[f"{name}.self_s"] = r["self_s"][name]
    c = r["counters"]
    values.update({k: v for k, v in c.items() if not k.startswith("factorizer.factor.")})
    values["numtheory.primes_upto.misses"] = r["primes_upto_misses"]
    reports, survivors = c["factorizer.factor.reports"], c["factorizer.factor.survivors"]
    values["factorizer.factor.residues"] = (
        c["factorizer.factor.residue_total"] / reports if reports else 0.0
    )
    values["factorizer.factor.survivor_yield"] = (
        c["factorizer.factor.dividing"] / survivors if survivors else 0.0
    )
    return values, r


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "quadforms" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"no quadforms source tree under {ROOT}; nothing to measure", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.trace:
        values, r = per_layer(args.workload, args.seed)
        wanted = spec["per_layer"]
    else:
        values, r = end_to_end(args.workload, args.seed, args.seconds)
        wanted = spec["end_to_end"]
    for error in r["errors"]:
        print(f"FAILED: {error}")
    metrics = {}
    for m in wanted:
        value = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']}: {value:.6g} {m['unit']}")
    print(
        json.dumps(
            {
                "correct": r["wrong"] == 0,
                "attempted": r["attempted"],
                "failed": r["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
