"""Seeded experiment suites with deterministic CSV/manifest artifacts.

Trial i of a run with master seed s derives all of its randomness from
SeedSequence(entropy=s, spawn_key=(i,)), so outputs are identical across
reruns and worker counts.  Every value is formatted once, by the trial
worker, as a round-trippable string; the writer only arranges rows in trial
order.  Wall-clock never enters the CSV or the manifest.
"""

from __future__ import annotations

import csv
import json
import math
import multiprocessing
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .ada import run_ada_protocol
from .attack import run_attack_trial, run_shifted_attack_trial, \
    separation_of_totals, separation_statistic, ThetaSampler
from .config import ConfigError, ExperimentConfig, analyst_from_config, \
    check_ranges, mechanism_from_config
from .families import make_family
from .mechanisms import EmpiricalMean, HistogramVector, sparse_histogram
from .seeds import trial_seed_sequence
from .structure import ETA_PROBE_SCALE, check_column_sums, check_expanding, \
    check_regular
from .tilt import divergence_check

CSV_HEADERS = {
    "attack-hypercube": [
        "trial", "seed", "region", "mechanism", "n", "stat",
        "in_total", "in_mean", "fresh_mean", "fresh_se", "status",
    ],
    "attack-random": [
        "trial", "seed", "region", "mechanism", "n", "stat", "in_total",
        "fresh_second_moment", "moment_bound", "lambda_max", "status",
    ],
    "ada-run": [
        "trial", "seed", "analyst", "n", "tau", "gap", "gap_stderr",
        "dataset_mean", "population_mean", "max_compromised_frac",
        "max_pop_compromised_frac", "inaccurate_stages", "status",
    ],
    "mech-bench": [
        "trial", "seed", "support", "mass_in", "mass_out", "linf",
        "bound", "status",
    ],
    "verify-structure": [
        "trial", "seed", "d", "n_columns", "col_violations", "col_mean_sq",
        "col_expected_sq", "col_stderr_sq", "expanding_fail_frac",
        "regular_fail_frac", "status",
    ],
    "divergence-check": [
        "trial", "seed", "family", "dims", "n", "abs_err", "status",
    ],
}

STATUS_OK = "ok"
STATUS_INVARIANT = "invariant-failed"


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


# --------------------------------------------------------------------------
# per-kind trial workers: (config, master_seed, trial) -> (row, log_lines)


def _trial_attack_hypercube(cfg: ExperimentConfig, master_seed: int,
                            trial: int):
    rng = np.random.default_rng(trial_seed_sequence(master_seed, trial))
    family = make_family("hypercube", d=cfg.d)
    radius = cfg.radius if cfg.radius is not None else 5.0 * math.sqrt(cfg.d)
    sampler = ThetaSampler(cfg.region, family.dim, radius)
    report = run_attack_trial(family, sampler, mechanism_from_config(cfg),
                              cfg.n, cfg.fresh, rng)
    stat = separation_statistic(report)
    fresh_se = report.fresh_scores.std(ddof=1) / math.sqrt(cfg.fresh)
    fresh_mean = report.fresh_scores.mean()
    # fresh scores are exactly centered; 6 standard errors is a pure sanity
    # net for the harness itself
    ok = fresh_se == 0 or abs(fresh_mean) <= 6 * fresh_se
    row = {
        "region": cfg.region,
        "mechanism": report.mechanism,
        "n": cfg.n,
        "stat": stat,
        "in_total": report.in_scores.sum(),
        "in_mean": report.in_scores.mean(),
        "fresh_mean": fresh_mean,
        "fresh_se": fresh_se,
        "status": STATUS_OK if ok else STATUS_INVARIANT,
    }
    return row, []


def _trial_attack_random(cfg: ExperimentConfig, master_seed: int, trial: int):
    mat_seq, rng_seq = trial_seed_sequence(master_seed, trial).spawn(2)
    rng = np.random.default_rng(rng_seq)
    matrix_seed = int(mat_seq.generate_state(1, dtype=np.uint64)[0])
    family = make_family("matrix-columns", d=cfg.d, n_columns=cfg.n_columns,
                         seed=matrix_seed)
    radius = cfg.radius if cfg.radius is not None \
        else 2.0 * math.sqrt(math.log(cfg.n_columns))
    sampler = ThetaSampler(cfg.region, family.dim, radius)
    report = run_shifted_attack_trial(family, sampler,
                                      mechanism_from_config(cfg), cfg.n,
                                      rng, fresh_count=cfg.fresh)
    stat = separation_statistic(report)
    second = float((report.fresh_scores ** 2).mean())
    lam = report.diagnostics["lambda_max"]
    bound = lam * float(((report.answer - report.shift) ** 2).sum())
    in_total = report.in_scores.sum()
    ok = True
    if cfg.mechanism == "exact-mean":
        ok = in_total >= -1e-9
    if cfg.fresh >= 100_000:
        ok = ok and second <= 1.1 * bound
    row = {
        "region": cfg.region,
        "mechanism": report.mechanism,
        "n": cfg.n,
        "stat": stat,
        "in_total": in_total,
        "fresh_second_moment": second,
        "moment_bound": bound,
        "lambda_max": lam,
        "status": STATUS_OK if ok else STATUS_INVARIANT,
    }
    return row, []


# entropy tag of the ada-run theta stream, shared with the calibration
# script and the acceptance tests so they draw the same thetas
THETA_STREAM_TAG = 0xA11CE


def _ada_theta(cfg: ExperimentConfig, master_seed: int, trial: int,
               dim: int, k: int):
    # tagging the entropy keeps theta draws disjoint from every stream
    # spawned under the bare master seed (protocol branches included)
    radius = cfg.radius if cfg.radius is not None else dim / math.sqrt(k)
    if cfg.theta_mode == "frozen":
        seq = np.random.SeedSequence(entropy=(master_seed, THETA_STREAM_TAG))
    elif cfg.theta_mode == "sampled":
        seq = np.random.SeedSequence(entropy=(master_seed, THETA_STREAM_TAG),
                                     spawn_key=(trial,))
    else:
        raise ValueError(f"unknown theta_mode {cfg.theta_mode!r}")
    rng = np.random.default_rng(seq)
    return ThetaSampler("l1-surface", dim, radius).sample(rng)


def _trial_ada(cfg: ExperimentConfig, master_seed: int, trial: int):
    family = make_family("tensor", m=cfg.m, k=cfg.k, d=cfg.d)
    theta = _ada_theta(cfg, master_seed, trial, family.dim, cfg.k)
    transcript = run_ada_protocol(
        analyst_from_config(cfg),
        family,
        theta,
        n=cfg.n,
        tau=cfg.tau,
        W=cfg.W,
        seed=trial_seed_sequence(master_seed, trial),
        alpha=cfg.alpha,
        C=cfg.C,
        mc_accuracy=cfg.mc_accuracy,
        mc_gap=cfg.mc_gap,
    )
    max_comp = max(rec.compromised_count for rec in transcript.stages)
    max_pop = max(rec.pop_compromised_frac for rec in transcript.stages)
    row = {
        "analyst": transcript.analyst,
        "n": cfg.n,
        "tau": transcript.tau,
        "gap": transcript.final_gap.value,
        "gap_stderr": transcript.final_gap.stderr,
        "dataset_mean": transcript.final_gap.dataset_mean,
        "population_mean": transcript.final_gap.population_mean,
        "max_compromised_frac": max_comp / cfg.n,
        "max_pop_compromised_frac": max_pop,
        "inaccurate_stages": ";".join(str(s) for s in
                                      transcript.inaccurate_stages),
        "status": STATUS_OK,
    }
    logs = [f"trial={trial} {line}" for line in transcript.log_lines()]
    return row, logs


def _trial_mech_bench(cfg: ExperimentConfig, master_seed: int, trial: int):
    rng = np.random.default_rng(trial_seed_sequence(master_seed, trial))
    weights = rng.uniform(0.0, 2.0 * cfg.mass / cfg.support,
                          size=cfg.support)
    hist = HistogramVector(
        weights={f"u{i}": float(w) for i, w in enumerate(weights)},
        universe_size=cfg.universe,
    )
    released = sparse_histogram(hist, cfg.epsilon, cfg.delta, rng)
    bound = 10.0 * math.log(1.0 / cfg.delta) / cfg.epsilon
    mass_in = hist.total
    mass_out = released.total
    linf = hist.linf_distance(released)
    ok = (abs(mass_out - mass_in) <= 1e-9 * max(1.0, abs(mass_in))
          and linf <= bound)
    row = {
        "support": cfg.support,
        "mass_in": mass_in,
        "mass_out": mass_out,
        "linf": linf,
        "bound": bound,
        "status": STATUS_OK if ok else STATUS_INVARIANT,
    }
    return row, []


def _trial_verify_structure(cfg: ExperimentConfig, master_seed: int,
                            trial: int):
    mat_seq, rng_seq = trial_seed_sequence(master_seed, trial).spawn(2)
    matrix_seed = int(mat_seq.generate_state(1, dtype=np.uint64)[0])
    rng = np.random.default_rng(rng_seq)
    family = make_family("matrix-columns", d=cfg.d, n_columns=cfg.n_columns,
                         seed=matrix_seed)
    a = family.matrix
    radius = cfg.radius if cfg.radius is not None \
        else 0.3 * math.sqrt(math.log(cfg.n_columns))
    eta = cfg.eta_probe if cfg.eta_probe is not None \
        else ETA_PROBE_SCALE * math.log(cfg.n_columns)
    col = check_column_sums(a, cfg.k_subset, cfg.n_subsets, rng,
                            cap_scale=cfg.cap_scale)
    expanding = check_expanding(a, radius, eta, cfg.n_theta, rng)
    regular = check_regular(a, radius, cfg.n_theta, rng)
    mean_ok = (col.stderr_sq == 0
               or abs(col.mean_sq - col.expected_sq) <= 4 * col.stderr_sq)
    ok = (col.violations == 0 and mean_ok
          and expanding.fail_fraction <= 0.01
          and regular.fraction_above <= 0.01)
    row = {
        "d": cfg.d,
        "n_columns": cfg.n_columns,
        "col_violations": col.violations,
        "col_mean_sq": col.mean_sq,
        "col_expected_sq": col.expected_sq,
        "col_stderr_sq": col.stderr_sq,
        "expanding_fail_frac": expanding.fail_fraction,
        "regular_fail_frac": regular.fraction_above,
        "status": STATUS_OK if ok else STATUS_INVARIANT,
    }
    return row, []


# at least ten enumerable instances: single-type hypercubes and tensor
# families with one or several types, each at n = 1 and 2
_DIVERGENCE_CATALOG = (
    ("hypercube", {"d": 2}, 1),
    ("hypercube", {"d": 2}, 2),
    ("hypercube", {"d": 3}, 1),
    ("hypercube", {"d": 3}, 2),
    ("hypercube", {"d": 4}, 1),
    ("hypercube", {"d": 4}, 2),
    ("tensor", {"m": 1, "k": 2, "d": 2}, 1),
    ("tensor", {"m": 1, "k": 2, "d": 2}, 2),
    ("tensor", {"m": 2, "k": 1, "d": 2}, 1),
    ("tensor", {"m": 2, "k": 1, "d": 2}, 2),
    ("tensor", {"m": 2, "k": 2, "d": 2}, 1),
    ("tensor", {"m": 2, "k": 2, "d": 2}, 2),
)


def _trial_divergence(cfg: ExperimentConfig, master_seed: int, trial: int):
    rng = np.random.default_rng(trial_seed_sequence(master_seed, trial))
    kind, kwargs, n = _DIVERGENCE_CATALOG[trial % len(_DIVERGENCE_CATALOG)]
    family = make_family(kind, **kwargs)
    theta = rng.normal(scale=0.5, size=family.dim)
    report = divergence_check(family, theta, EmpiricalMean(), n)
    ok = report.abs_err <= 1e-6
    dims = ",".join(f"{key}={val}" for key, val in sorted(kwargs.items()))
    row = {
        "family": kind,
        "dims": dims,
        "n": n,
        "abs_err": report.abs_err,
        "status": STATUS_OK if ok else STATUS_INVARIANT,
    }
    return row, []


_TRIAL_FUNCS = {
    "attack-hypercube": _trial_attack_hypercube,
    "attack-random": _trial_attack_random,
    "ada-run": _trial_ada,
    "mech-bench": _trial_mech_bench,
    "verify-structure": _trial_verify_structure,
    "divergence-check": _trial_divergence,
}


def run_trial(cfg: ExperimentConfig, master_seed: int, trial: int):
    """Compute one trial's formatted CSV row (plus its log lines).

    Any module error becomes an error row rather than killing the suite.
    """
    header = CSV_HEADERS[cfg.kind]
    base = {"trial": str(trial), "seed": str(master_seed)}
    try:
        row, logs = _TRIAL_FUNCS[cfg.kind](cfg, master_seed, trial)
    except Exception as exc:  # noqa: BLE001 - error rows must flush
        row = {col: "" for col in header[2:-1]}
        row["status"] = f"error:{type(exc).__name__}:{exc}"
        return {**base, **row}, []
    return {**base, **{k: _fmt(v) for k, v in row.items()}}, logs


@dataclass
class RunResult:
    exit_code: int
    csv_path: Path
    manifest_path: Path
    log_path: Path
    rows: list
    invariants_ok: bool
    aggregate: dict


def _aggregate(kind: str, rows: list) -> dict:
    data = [r for r in rows if r["status"] == STATUS_OK]
    agg: dict = {
        "rows": len(rows),
        "ok_rows": len(data),
        "error_rows": sum(1 for r in rows if r["status"].startswith("error")),
    }
    if not data:
        return agg
    if kind in ("attack-hypercube", "attack-random") and len(data) >= 2:
        if kind == "attack-hypercube":
            agg["aggregate_separation"] = separation_of_totals(
                [float(r["in_total"]) for r in data],
                [float(r["fresh_mean"]) for r in data])
        else:
            ratios = [float(r["fresh_second_moment"]) /
                      float(r["moment_bound"]) for r in data
                      if float(r["moment_bound"]) > 0]
            if ratios:
                agg["max_moment_ratio"] = max(ratios)
    if kind == "ada-run":
        gaps = np.array([float(r["gap"]) for r in data])
        agg["mean_gap"] = float(gaps.mean())
        agg["max_gap"] = float(gaps.max())
        agg["max_pop_compromised_frac"] = max(
            float(r["max_pop_compromised_frac"]) for r in data)
    if kind == "mech-bench":
        agg["max_linf"] = max(float(r["linf"]) for r in data)
    if kind == "verify-structure":
        agg["ok_fraction"] = len(data) / len(rows)
    if kind == "divergence-check":
        agg["max_abs_err"] = max(float(r["abs_err"]) for r in data)
    return agg


def _invariants_ok(kind: str, rows: list, aggregate: dict) -> bool:
    if any(r["status"].startswith("error") for r in rows):
        return False
    bad = sum(1 for r in rows if r["status"] == STATUS_INVARIANT)
    if kind == "verify-structure" and len(rows) >= 20:
        # structural checks are allowed one bad matrix in twenty
        return bad <= len(rows) // 20
    return bad == 0


def run_experiment(cfg: ExperimentConfig, master_seed: int,
                   out_dir=None, workers: int = 1) -> RunResult:
    """Run all trials, then write <kind>.csv, <kind>.log, manifest.json."""
    if cfg.kind not in _TRIAL_FUNCS:
        raise ValueError(f"unknown experiment kind {cfg.kind!r}")
    out = Path(out_dir) if out_dir else Path(cfg.out or f"runs/{cfg.kind}")
    out.mkdir(parents=True, exist_ok=True)

    args = [(cfg, master_seed, t) for t in range(cfg.trials)]
    if workers > 1 and cfg.trials > 1:
        with multiprocessing.Pool(min(workers, cfg.trials)) as pool:
            results = pool.starmap(run_trial, args)
    else:
        results = [run_trial(*a) for a in args]

    header = CSV_HEADERS[cfg.kind]
    rows = [row for row, _ in results]
    log_lines = [line for _, lines in results for line in lines]

    csv_path = out / f"{cfg.kind}.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([row[col] for col in header])

    log_path = out / f"{cfg.kind}.log"
    if log_lines:
        log_path.write_text("\n".join(log_lines) + "\n")

    aggregate = _aggregate(cfg.kind, rows)
    ok = _invariants_ok(cfg.kind, rows, aggregate)
    manifest = {
        "kind": cfg.kind,
        "config": asdict(cfg),
        "master_seed": master_seed,
        "version": __version__,
        "csv": csv_path.name,
        "header": header,
        "rows": len(rows),
        "invariants_ok": ok,
        "aggregate": aggregate,
    }
    manifest_path = out / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True)
                             + "\n")
    return RunResult(
        exit_code=0 if ok else 1,
        csv_path=csv_path,
        manifest_path=manifest_path,
        log_path=log_path,
        rows=rows,
        invariants_ok=ok,
        aggregate=aggregate,
    )


def replay_row(csv_path, row_index: int):
    """Recompute one CSV data row from its recorded trial and seed.

    Returns (stored_row, recomputed_row, match); the config comes from the
    manifest.json written next to the CSV and must pass the same range
    checks as a parsed config.  A manifest written by another tiltlab
    version is refused, since its rows need not be reproducible here.
    """
    csv_path = Path(csv_path)
    manifest = json.loads((csv_path.parent / "manifest.json").read_text())
    version = manifest.get("version")
    if version != __version__:
        raise ValueError(f"manifest written by tiltlab {version!r}, "
                         f"this is tiltlab {__version__!r}")
    try:
        cfg = ExperimentConfig(**manifest["config"])
    except TypeError as exc:  # unknown or missing config keys
        raise ValueError(f"manifest config does not match: {exc}") from None
    try:
        check_ranges(cfg)
    except ConfigError as exc:
        raise ConfigError(f"manifest config out of range: {exc}") from None
    with open(csv_path, newline="") as fh:
        stored_rows = list(csv.DictReader(fh))
    if not 0 <= row_index < len(stored_rows):
        raise IndexError(
            f"row {row_index} out of range ({len(stored_rows)} data rows)")
    stored = dict(stored_rows[row_index])
    trial = int(stored["trial"])
    seed = int(stored["seed"])
    recomputed, _ = run_trial(cfg, seed, trial)
    return stored, recomputed, recomputed == stored
