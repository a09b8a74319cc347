"""One fresh interpreter of the benchmark; `run.py` starts it.

    python3 child.py setup <workload>
    python3 child.py measure <workload> <seed> <seconds> <trace> <out_dir>

Both modes import `tiltlab.experiments` and parse the workload config
first, and report `ready`, the `time.monotonic()` reading (a clock shared
by all processes of the host) at which that finished. `measure` then runs
passes of the workload through `run_experiment` until `seconds` are spent:
untraced passes with trace 0, pairs of an untraced and a traced pass with
trace 1. It prints one JSON object as its last line.
"""

import contextlib
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

from workloads import WORKLOADS


def _pass(run_experiment, cfg, seed, out_dir, tracer=None):
    with tracer or contextlib.nullcontext():
        start = time.perf_counter()
        res = run_experiment(cfg, seed, out_dir=out_dir, workers=1)
        wall = time.perf_counter() - start
    layers = None
    if tracer is not None:
        layers = {name: value for name, (value, _) in
                  tracer.metrics(wall).items()}
    return {
        "traced": tracer is not None,
        "wall": wall,
        "exit_code": res.exit_code,
        "invariants_ok": res.invariants_ok,
        "rows": len(res.rows),
        "bad_rows": sum(1 for row in res.rows if row["status"] != "ok"),
        "csv_sha256": hashlib.sha256(res.csv_path.read_bytes()).hexdigest(),
        "layers": layers,
        "missing_targets": tracer.missing if tracer is not None else [],
    }


def _host_facts() -> dict:
    import platform

    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
    }


def main(argv) -> int:
    mode, workload = argv[1], argv[2]
    from tiltlab.config import parse_config
    from tiltlab.experiments import replay_row, run_experiment
    cfg = parse_config(WORKLOADS[workload]["config"])
    ready = time.monotonic()
    if mode == "setup":
        print(json.dumps({"ready": ready}))
        return 0

    from spans import Tracer  # after `ready`, so set-up times only tiltlab
    seed, seconds, trace = int(argv[3]), float(argv[4]), argv[5] == "1"
    out_dir = Path(argv[6])
    start = time.perf_counter()
    passes = []
    while True:
        round_start = time.perf_counter()
        passes.append(_pass(run_experiment, cfg, seed, out_dir))
        if trace:
            passes.append(_pass(run_experiment, cfg, seed, out_dir, Tracer()))
        now = time.perf_counter()
        # at least two untraced passes, or one untraced/traced pair, so the
        # CSV bytes can be compared; then stop where the measured time ends
        # closest to `seconds`
        if (trace or len(passes) >= 2) and \
                now - start + (now - round_start) / 2 > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    _, _, replay_ok = replay_row(out_dir / f"{cfg.kind}.csv",
                                 seed % cfg.trials)
    print(json.dumps({
        "ready": ready,
        "trials": cfg.trials,
        "passes": passes,
        "peak_rss_mb": peak_rss_mb,
        "replay_ok": replay_ok,
        "host": _host_facts(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
