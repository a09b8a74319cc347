"""Alternating parent/change pairs of the benchmark, for a speed claim.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload W [--workload W2
        ...] --pairs N --seconds S [--seed K] [--setup-only]

PARENT and CHANGE are two checkouts of the repository. For each workload W
in turn, each pair runs `perfbench/run.py --workload W --seed K --seconds S`
once in each tree, in a fresh interpreter, the parent first in odd pairs
and the change first in even ones; every `__pycache__` of both trees is removed before every run,
so each run compiles the same way. With `--setup-only`, a run is instead
three `perfbench/child.py setup W` children, timed from spawn to their
`ready` reading as `run.py` times them, and its `setup_s` is their median.

Prints, per workload, each pair's end-to-end metrics, then one table with
per metric the medians, the change's median gain (in the metric's better direction, from the change's
BENCHMARK.json), the parent's interquartile range and the number of pairs
the change won. Uses the standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 3


def clear_pycache(tree: Path) -> None:
    for cache in list(tree.rglob("__pycache__")):
        if ".git" not in cache.parts:
            shutil.rmtree(cache, ignore_errors=True)


def run_bench(tree: Path, workload: str, args) -> dict:
    """End-to-end metric values of one benchmark run of workload in tree."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds)],
        cwd=tree, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"benchmark failed in {tree}:\n{proc.stderr[-4000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"benchmark in {tree} reports incorrect output")
    return {name: m["value"] for name, m in result["metrics"].items()}


def run_setup(tree: Path, workload: str, args) -> dict:
    """setup_s of one run of SETUP_SAMPLES setup children of workload in
    tree."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    env.update({var: "1" for var in THREAD_VARS})
    samples = []
    for _ in range(SETUP_SAMPLES):
        spawned = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(tree / "perfbench" / "child.py"), "setup",
             workload], cwd=tree, env=env, capture_output=True,
            text=True, timeout=120)
        if proc.returncode != 0:
            sys.exit(f"setup child failed in {tree}:\n{proc.stderr[-4000:]}")
        ready = json.loads(proc.stdout.strip().splitlines()[-1])["ready"]
        samples.append(ready - spawned)
    return {"setup_s": statistics.median(samples)}


def directions(tree: Path) -> dict:
    spec = json.loads((tree / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


def pairs(trees: dict, workload: str, run, better: dict, args) -> None:
    """Run and print args.pairs alternating pairs of workload, then the
    table of their medians, gains, parent IQRs and wins."""
    print(f"nproc {len(os.sched_getaffinity(0))}, workload {workload}, "
          f"{'setup only' if args.setup_only else f'{args.seconds} s runs'}")
    values = {"parent": [], "change": []}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            for tree in trees.values():
                clear_pycache(tree)
            values[side].append(run(trees[side], workload, args))
        parent, change = values["parent"][-1], values["change"][-1]
        print(f"pair {pair + 1} ({order[0]} first): " + ", ".join(
            f"{name} {parent[name]:.6g} -> {change[name]:.6g}"
            for name in parent), flush=True)

    print(f"{'metric':16s} {'parent':>10s} {'change':>10s} {'gain':>8s} "
          f"{'parent IQR':>10s} {'wins':>6s}")
    for name in values["parent"][0]:
        old = [v[name] for v in values["parent"]]
        new = [v[name] for v in values["change"]]
        sign = 1.0 if better.get(name, "higher") == "higher" else -1.0
        wins = sum(sign * (b - a) > 0 for a, b in zip(old, new))
        q1, _, q3 = statistics.quantiles(old, n=4, method="inclusive") \
            if len(old) > 1 else (old[0], None, old[0])
        gain = sign * (statistics.median(new) - statistics.median(old))
        print(f"{name:16s} {statistics.median(old):10.4g} "
              f"{statistics.median(new):10.4g} {gain:+8.3g} {q3 - q1:10.3g} "
              f"{wins:3d}/{len(old)}", flush=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", action="append", required=True,
                    help="a workload to pair; repeat for several")
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=6.0)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    run = run_setup if args.setup_only else run_bench
    better = directions(trees["change"])
    for workload in args.workload:
        pairs(trees, workload, run, better, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
