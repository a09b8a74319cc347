"""Command line entry point: run experiment suites and replay single rows.

    tiltlab run --config cfg.txt [--seed S] [--out DIR] [--workers N]
    tiltlab replay --csv runs/attack-hypercube/attack-hypercube.csv --row 3

TILTLAB_SEED and TILTLAB_OUT supply defaults for --seed and --out; explicit
flags win over the environment.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import ConfigError, parse_config
from .experiments import replay_row, run_experiment


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tiltlab",
        description="seeded tilt-attack and private-release experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment suite from a config")
    run_p.add_argument("--config", required=True, help="config file path")
    run_p.add_argument("--seed", type=int, default=None,
                       help="master seed (default: TILTLAB_SEED or 0)")
    run_p.add_argument("--out", default=None,
                       help="output directory (default: TILTLAB_OUT, the "
                            "config's out, or runs/<kind>)")
    run_p.add_argument("--workers", type=int, default=1,
                       help="worker processes (default 1)")

    replay_p = sub.add_parser("replay", help="recompute one CSV data row")
    replay_p.add_argument("--csv", required=True, help="CSV written by run")
    replay_p.add_argument("--row", type=int, required=True,
                          help="0-based data row index")
    return parser


def _cmd_run(args) -> int:
    try:
        with open(args.config, encoding="utf-8") as fh:
            cfg = parse_config(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    seed = args.seed
    if seed is None:
        raw = os.environ.get("TILTLAB_SEED") or "0"
        try:
            seed = int(raw, 0)
        except ValueError:
            print(f"TILTLAB_SEED must be an integer, got {raw!r}",
                  file=sys.stderr)
            return 2
    if seed < 0:
        print(f"master seed must be >= 0, got {seed}", file=sys.stderr)
        return 2
    if args.workers < 1:
        print(f"--workers must be >= 1, got {args.workers}", file=sys.stderr)
        return 2
    out = args.out or os.environ.get("TILTLAB_OUT") or None
    try:
        result = run_experiment(cfg, seed, out_dir=out, workers=args.workers)
    except OSError as exc:  # trials make rows of their own errors
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {result.csv_path} ({len(result.rows)} rows)")
    print(f"wrote {result.manifest_path}")
    for path in (result.log_path, result.errors_path):
        if path.exists():
            print(f"wrote {path}")
    for key, val in sorted(result.aggregate.items()):
        print(f"  {key} = {val}")
    print("invariants ok" if result.invariants_ok else "INVARIANTS FAILED")
    return result.exit_code


def _cmd_replay(args) -> int:
    try:
        stored, recomputed, match = replay_row(args.csv, args.row)
    except (OSError, IndexError, KeyError, ValueError) as exc:
        print(f"replay failed: {exc}", file=sys.stderr)
        return 2
    for col in stored:
        marker = "" if stored[col] == recomputed.get(col, "") else "   <- differs"
        print(f"{col}: stored={stored[col]!r} "
              f"replayed={recomputed.get(col, '')!r}{marker}")
    print("match" if match else "MISMATCH")
    return 0 if match else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    return _cmd_replay(args)


if __name__ == "__main__":
    sys.exit(main())
