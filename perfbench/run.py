"""Benchmark of `tiltlab.experiments.run_experiment`; see README.md.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds nothing: the program runs from `src/` of the checkout. Each
measurement runs in a fresh interpreter (`child.py`) with one worker and
one BLAS thread. With `--trace 0` the last stdout line reports the
end-to-end metrics, with `--trace 1` the per-layer spans of a separate
traced pass. Exits 2 without a result when the checkout has no program.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3
# the whole run, children included, ends within this many seconds
DEADLINE_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class ChildFailed(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update({var: "1" for var in THREAD_VARS})
    return env


def _run_child(args, deadline: float) -> tuple:
    """Run child.py to completion; returns (spawn time, its JSON result)."""
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), *args],
        cwd=ROOT, env=_child_env(), capture_output=True, text=True,
        timeout=max(1.0, deadline - spawned),
    )
    if proc.returncode != 0:
        raise ChildFailed(f"child {args[0]} exited {proc.returncode}:\n"
                          f"{proc.stderr[-4000:]}")
    return spawned, json.loads(proc.stdout.strip().splitlines()[-1])


def _git_facts() -> dict:
    # the checkout the benchmark runs in may not be a git repository
    if not (ROOT / ".git").exists():
        return {"git_rev": None, "git_dirty": None}

    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, timeout=30).stdout.strip()

    return {"git_rev": git("rev-parse", "HEAD") or None,
            "git_dirty": bool(git("status", "--porcelain"))}


def _gate(measured: dict) -> list:
    """Reasons the run's outputs are not correct; empty when they are."""
    passes = measured["passes"]
    problems = []
    if any(p["exit_code"] != 0 or not p["invariants_ok"] for p in passes):
        problems.append("exit_code != 0 or invariants failed")
    if len({p["csv_sha256"] for p in passes}) != 1:
        problems.append("CSV bytes differ between passes at one seed")
    if not measured["replay_ok"]:
        problems.append("replay_row does not match")
    return problems


def _layer_medians(passes) -> dict:
    traced = [p["layers"] for p in passes if p["traced"]]
    return {name: statistics.median(layers[name] for layers in traced)
            for name in traced[0]}


def _units(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative (it is the master seed)")
    if not (ROOT / "src" / "tiltlab" / "experiments.py").is_file():
        print(f"no program: {ROOT / 'src' / 'tiltlab'} is missing",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    out_dir = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    try:
        _, measured = _run_child(
            ["measure", args.workload, str(args.seed), str(args.seconds),
             str(args.trace), str(out_dir / "pass")], deadline)
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES):
                spawned, ready = _run_child(["setup", args.workload], deadline)
                setups.append(ready["ready"] - spawned)
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    passes = measured["passes"]
    untraced = [p for p in passes if not p["traced"]]
    trials = measured["trials"]
    problems = _gate(measured)
    attempted = sum(p["rows"] for p in passes)
    failed = attempted if problems else sum(p["bad_rows"] for p in passes)
    untraced_wall = sum(p["wall"] for p in untraced)
    if args.trace:
        values = _layer_medians(passes)
        traced_wall = sum(p["wall"] for p in passes if p["traced"])
        values["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    else:
        values = {
            # total over the passes, not a per-pass median: the host's speed
            # drifts over seconds, and the total averages the drift best
            "trials_per_s": trials * len(untraced) / untraced_wall,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": measured["peak_rss_mb"],
            "ok_frac": 1.0 - failed / attempted,
        }
    units = _units(bool(args.trace))
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}

    host = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        **measured["host"],
        **_git_facts(),
        **{var: "1" for var in THREAD_VARS},
    }
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "trials_per_pass": trials, "host": host, "problems": problems,
        "failed_frac": failed / attempted, "setup_samples_s": setups,
        "passes": passes, "metrics": metrics,
    }
    (out_dir / "result.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)} trials/pass={trials} "
          f"failed={failed}/{attempted}")
    for problem in problems:
        print(f"  FAILED: {problem}")
    for target in sorted({t for p in passes for t in p["missing_targets"]}):
        print(f"  not traced (no such function): {target}")
    for name, metric in metrics.items():
        print(f"  {name:48s} {metric['value']:.6g} {metric['unit']}")
    print("host " + json.dumps(host, sort_keys=True))
    print(json.dumps({"correct": not problems and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
