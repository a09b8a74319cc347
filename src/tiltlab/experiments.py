"""Seeded experiment suites with deterministic CSV/manifest artifacts.

Trial i of a run with master seed s derives all of its randomness from
trial_seed_sequence(s, i) = SeedSequence(entropy=s, spawn_key=(i,)), with
sub-streams spawned at fixed branch indices, except an ada-run trial's
theta (see THETA_STREAM_TAG) and a mech-bench trial, which reads words
[2ki, 2k(i+1)) at support k of one stream per run (see MECH_STREAM_TAG).
So outputs are identical across reruns, worker counts and chunk sizes, and
replaying one row reproduces it bitwise.  Every value is formatted once, by
the trial worker, as a round-trippable string; the writer only arranges
rows in trial order.  Wall-clock never enters the CSV or the manifest.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass
from operator import itemgetter
from typing import Callable
from pathlib import Path

import numpy as np

from . import __version__
from .ada import run_ada_protocol
from .attack import run_attack_trial, separation, ThetaSampler
from .config import ConfigError, ExperimentConfig, analyst_from_config, \
    check_ranges, config_from_values, mechanism_from_config
from .families import make_family
from .mechanisms import EmpiricalMean, check_weights, noise_bound, \
    release_rows, row_fsums, trunc_laplace
from .structure import ETA_PROBE_SCALE, check_column_sums, check_expanding, \
    check_regular, tilted_column_cov
from .tilt import divergence_check

STATUS_OK = "ok"
STATUS_INVARIANT = "invariant-failed"


def trial_seed_sequence(master_seed: int,
                        trial: int) -> np.random.SeedSequence:
    if master_seed < 0 or trial < 0:
        raise ValueError("master_seed and trial must be nonnegative")
    return np.random.SeedSequence(entropy=master_seed, spawn_key=(trial,))


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


# --------------------------------------------------------------------------
# per-kind trial workers and manifest summaries (see ExperimentKind)


def _trial_attack_hypercube(cfg: ExperimentConfig, master_seed: int,
                            trial: int):
    rng = np.random.default_rng(trial_seed_sequence(master_seed, trial))
    family = make_family("hypercube", d=cfg.d)
    radius = cfg.radius if cfg.radius is not None else 5.0 * math.sqrt(cfg.d)
    sampler = ThetaSampler(cfg.region, family.dim, radius)
    report = run_attack_trial(family, sampler, mechanism_from_config(cfg),
                              cfg.n, cfg.fresh, rng)
    stat = separation(report.in_scores, report.fresh_scores)
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
    }
    return row, ok, []


def _separation_summary(data, rows):
    if len(data) < 2:
        return {}
    return {"aggregate_separation": separation(
        [float(r["in_total"]) for r in data],
        [float(r["fresh_mean"]) for r in data])}


def _matrix_trial(cfg: ExperimentConfig, master_seed: int, trial: int):
    mat_seq, rng_seq = trial_seed_sequence(master_seed, trial).spawn(2)
    matrix_seed = int(mat_seq.generate_state(1, dtype=np.uint64)[0])
    family = make_family("matrix-columns", d=cfg.d, n_columns=cfg.n_columns,
                         seed=matrix_seed)
    return family, np.random.default_rng(rng_seq)


def _trial_attack_random(cfg: ExperimentConfig, master_seed: int, trial: int):
    family, rng = _matrix_trial(cfg, master_seed, trial)
    radius = cfg.radius if cfg.radius is not None \
        else 2.0 * math.sqrt(math.log(cfg.n_columns))
    sampler = ThetaSampler(cfg.region, family.dim, radius)
    report = run_attack_trial(family, sampler, mechanism_from_config(cfg),
                              cfg.n, cfg.fresh, rng, recenter=True)
    stat = separation(report.in_scores, report.fresh_scores)
    second = float((report.fresh_scores ** 2).mean())
    dist = report.dist
    lam = float(np.linalg.eigvalsh(tilted_column_cov(
        family.matrix, dist.column_p, dist.column_mean))[-1])
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
    }
    return row, ok, []


def _moment_summary(data, rows):
    ratios = [float(r["fresh_second_moment"]) / float(r["moment_bound"])
              for r in data if float(r["moment_bound"]) > 0]
    return {"max_moment_ratio": max(ratios)} if len(data) >= 2 and ratios \
        else {}


# entropy tag of the ada-run theta stream, shared with the calibration
# script and the acceptance tests so they draw the same thetas
THETA_STREAM_TAG = 0xA11CE


def _ada_theta(cfg: ExperimentConfig, master_seed: int, trial: int,
               dim: int, k: int):
    # tagging the entropy keeps theta draws disjoint from every stream
    # spawned under the bare master seed (protocol branches included)
    radius = cfg.radius if cfg.radius is not None else dim / math.sqrt(k)
    if cfg.theta_mode not in ("sampled", "frozen"):
        raise ValueError(f"unknown theta_mode {cfg.theta_mode!r}")
    rng = np.random.default_rng(np.random.SeedSequence(
        entropy=(master_seed, THETA_STREAM_TAG),
        spawn_key=(trial,) if cfg.theta_mode == "sampled" else ()))
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
    }
    logs = [f"trial={trial} {line}" for line in transcript.log_lines()]
    return row, True, logs


def _gap_summary(data, rows):
    gaps = np.array([float(r["gap"]) for r in data])
    return {"mean_gap": float(gaps.mean()), "max_gap": float(gaps.max()),
            "max_pop_compromised_frac": max(
                float(r["max_pop_compromised_frac"]) for r in data)}


# values (trials x support) that one mech-bench chunk holds in each of its
# weight, noise and release blocks
CHUNK_VALUES = 2 ** 13
# entropy tag of the mech-bench run stream (not THETA_STREAM_TAG)
MECH_STREAM_TAG = 0x5EED


def _trials_mech_bench(cfg: ExperimentConfig, master_seed: int,
                       trials: range):
    # trial t reads words [2st, 2s(t+1)) of the run stream, a double a word:
    # its weights (as rng.uniform(0, high) draws them), then its noise's; a
    # chunk jumps to its first trial's words, and one trunc_laplace and one
    # release_rows call serve it whole
    s = cfg.support
    rng = np.random.default_rng((master_seed, MECH_STREAM_TAG))
    rng.bit_generator.advance(trials.start * 2 * s)
    u = rng.random((len(trials), 2 * s))
    weights = (2.0 * cfg.mass / s) * u[:, :s]
    check_weights(weights, cfg.universe)
    v = noise_bound(cfg.epsilon, cfg.delta)
    noise = trunc_laplace(u[:, s:], 1.0 / cfg.epsilon, v)
    mass_in = row_fsums(weights)
    extra = 0 if cfg.universe is None else cfg.universe - s
    block, background = release_rows(weights, mass_in, noise, extra)
    mass_out = row_fsums(block) + background * extra
    linf = np.maximum(np.abs(weights - block).max(axis=1, initial=0.0),
                      background)
    bound = 2.0 * v  # sparse_histogram's sup-norm bound
    ok = (np.abs(mass_out - mass_in)
          <= 1e-9 * np.maximum(1.0, np.abs(mass_in))) & (linf <= bound)
    # each column formatted once for the chunk, as _fmt formats its values
    support_txt, bound_txt = _fmt(s), _fmt(bound)
    return [({"support": support_txt, "mass_in": m_in, "mass_out": m_out,
              "linf": dist, "bound": bound_txt}, good, [])
            for m_in, m_out, dist, good in zip(
                map(repr, mass_in.tolist()), map(repr, mass_out.tolist()),
                map(repr, linf.tolist()), ok.tolist())]


def _trial_verify_structure(cfg: ExperimentConfig, master_seed: int,
                            trial: int):
    family, rng = _matrix_trial(cfg, master_seed, trial)
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
          and regular <= 0.01)
    row = {
        "d": cfg.d,
        "n_columns": cfg.n_columns,
        "col_violations": col.violations,
        "col_mean_sq": col.mean_sq,
        "col_expected_sq": col.expected_sq,
        "col_stderr_sq": col.stderr_sq,
        "expanding_fail_frac": expanding.fail_fraction,
        "regular_fail_frac": regular,
    }
    return row, ok, []


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
    }
    return row, ok, []


def _max_summary(column: str, key: str):
    return lambda data, rows: {key: max(map(float, map(itemgetter(column),
                                                       data)))}


def _each(trial: Callable) -> Callable:
    """The trials function of a kind whose trials run one at a time, each
    row's values formatted by _fmt."""
    return lambda cfg, master_seed, trials: [
        ({k: _fmt(v) for k, v in row.items()}, ok, logs)
        for row, ok, logs in (trial(cfg, master_seed, t) for t in trials)]


@dataclass(frozen=True)
class ExperimentKind:
    """One experiment kind.  ``columns`` are its own CSV columns, framed by
    trial and seed in front and status behind; ``trials`` maps (config,
    master seed, a range of trial indices) to one (row of CSV strings keyed
    by columns, ok, log lines) per index; ``chunk`` maps a config to the
    length of the range handed to one ``trials`` call; ``summary`` maps (ok
    rows, row count) to the kind's manifest aggregate entries;
    ``allowed_failures`` is how many invariant-failed rows per 20 rows a run
    tolerates."""

    columns: tuple
    trials: Callable
    summary: Callable
    allowed_failures: int = 0
    chunk: Callable = lambda cfg: 1

    @property
    def header(self) -> list:
        return ["trial", "seed", *self.columns, "status"]


EXPERIMENT_KINDS = {
    "attack-hypercube": ExperimentKind(
        ("region", "mechanism", "n", "stat", "in_total", "in_mean",
         "fresh_mean", "fresh_se"),
        _each(_trial_attack_hypercube), _separation_summary),
    "attack-random": ExperimentKind(
        ("region", "mechanism", "n", "stat", "in_total",
         "fresh_second_moment", "moment_bound", "lambda_max"),
        _each(_trial_attack_random), _moment_summary),
    "ada-run": ExperimentKind(
        ("analyst", "n", "tau", "gap", "gap_stderr", "dataset_mean",
         "population_mean", "max_compromised_frac",
         "max_pop_compromised_frac", "inaccurate_stages"),
        _each(_trial_ada), _gap_summary),
    "mech-bench": ExperimentKind(
        ("support", "mass_in", "mass_out", "linf", "bound"),
        _trials_mech_bench, _max_summary("linf", "max_linf"),
        chunk=lambda cfg: max(1, CHUNK_VALUES // max(cfg.support, 1))),
    "verify-structure": ExperimentKind(
        ("d", "n_columns", "col_violations", "col_mean_sq", "col_expected_sq",
         "col_stderr_sq", "expanding_fail_frac", "regular_fail_frac"),
        _each(_trial_verify_structure),
        lambda data, rows: {"ok_fraction": len(data) / rows},
        allowed_failures=1),  # one bad random matrix in twenty
    "divergence-check": ExperimentKind(
        ("family", "dims", "n", "abs_err"),
        _each(_trial_divergence), _max_summary("abs_err", "max_abs_err")),
}


def run_trials(cfg: ExperimentConfig, master_seed: int,
               trials: range) -> list:
    """One (formatted CSV row, log lines, traceback or None) per trial in
    the range trials, from one call of the kind's trials function.

    Any module error becomes an error row rather than killing the suite: if
    the call raises, each trial reruns alone, so a failing trial gets its
    own error row and traceback and every other trial its row.
    """
    kind = EXPERIMENT_KINDS[cfg.kind]
    try:
        results = kind.trials(cfg, master_seed, trials)
    except Exception as exc:  # noqa: BLE001 - error rows must flush
        if len(trials) == 1:
            import traceback  # only failed trials pay for its import

            row = {"trial": str(trials[0]), "seed": str(master_seed),
                   **dict.fromkeys(kind.columns, ""),
                   "status": f"error:{type(exc).__name__}:{exc}"}
            return [(row, [], traceback.format_exc())]
    else:
        seed = str(master_seed)
        return [({"trial": str(t), "seed": seed, **row,
                  "status": STATUS_OK if ok else STATUS_INVARIANT}, logs, None)
                for t, (row, ok, logs) in zip(trials, results, strict=True)]
    # out of the handler, so no rerun's traceback chains to the chunk's
    return [out for t in trials
            for out in run_trials(cfg, master_seed, range(t, t + 1))]


def run_trial(cfg: ExperimentConfig, master_seed: int, trial: int):
    """run_trials on the one trial: its formatted CSV row, its log lines
    and, for an error row, the formatted traceback (else None)."""
    return run_trials(cfg, master_seed, range(trial, trial + 1))[0]


@dataclass
class RunResult:
    exit_code: int
    csv_path: Path
    manifest_path: Path
    log_path: Path
    errors_path: Path
    rows: list
    invariants_ok: bool
    aggregate: dict


def run_experiment(cfg: ExperimentConfig, master_seed: int,
                   out_dir=None, workers: int = 1) -> RunResult:
    """Run all trials by run_trials, in contiguous chunks of the kind's
    chunk size (in a pool of processes when workers > 1 and there are two
    or more chunks), then write <kind>.csv, manifest.json, <kind>.log when
    a trial logged lines, and <kind>.errors.log with the traceback of each
    error row when there is one; a log or errors log this run does not
    write is removed."""
    if cfg.kind not in EXPERIMENT_KINDS:
        raise ValueError(f"unknown experiment kind {cfg.kind!r}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    kind = EXPERIMENT_KINDS[cfg.kind]
    out = Path(out_dir) if out_dir else Path(cfg.out or f"runs/{cfg.kind}")
    out.mkdir(parents=True, exist_ok=True)

    size = kind.chunk(cfg)
    args = [(cfg, master_seed, range(first, min(first + size, cfg.trials)))
            for first in range(0, cfg.trials, size)]
    if workers > 1 and len(args) > 1:
        import multiprocessing  # only multi-worker runs pay for its import
        with multiprocessing.Pool(min(workers, len(args))) as pool:
            chunks = pool.starmap(run_trials, args)
    else:
        chunks = [run_trials(*a) for a in args]
    results = [out for chunk in chunks for out in chunk]

    header = kind.header
    rows = [row for row, _, _ in results]
    log_lines = [line for _, lines, _ in results for line in lines]

    csv_path = out / f"{cfg.kind}.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(map(itemgetter(*header), rows))

    log_path = out / f"{cfg.kind}.log"
    if log_lines:
        log_path.write_text("\n".join(log_lines) + "\n")
    else:
        log_path.unlink(missing_ok=True)  # a stale one from an older run

    errors_path = out / f"{cfg.kind}.errors.log"
    failures = [f"trial={row['trial']} seed={row['seed']}\n{tb}"
                for row, _, tb in results if tb is not None]
    if failures:
        errors_path.write_text("".join(failures))
    else:
        errors_path.unlink(missing_ok=True)  # a stale one from an older run

    data = [r for r in rows if r["status"] == STATUS_OK]
    errors = len(failures)  # an error row is the one kind with a traceback
    aggregate = {"rows": len(rows), "ok_rows": len(data),
                 "error_rows": errors}
    if data:
        aggregate.update(kind.summary(data, len(rows)))
    bad = len(rows) - len(data) - errors
    ok = errors == 0 and bad <= kind.allowed_failures * (len(rows) // 20)
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
        errors_path=errors_path,
        rows=rows,
        invariants_ok=ok,
        aggregate=aggregate,
    )


def replay_row(csv_path, row_index: int):
    """Recompute one CSV data row from its recorded trial and seed.

    Returns (stored_row, recomputed_row, match); the config comes from the
    manifest.json written next to the CSV, must hold a known kind and values
    of each field's type, and must pass the same range checks as a parsed
    config.  A manifest written by another tiltlab version is refused,
    since its rows need not be reproducible here.
    """
    csv_path = Path(csv_path)
    manifest = json.loads((csv_path.parent / "manifest.json").read_text())
    if not isinstance(manifest, dict):
        raise ValueError(f"manifest.json must hold an object, got "
                         f"{type(manifest).__name__}")
    version = manifest.get("version")
    if version != __version__:
        raise ValueError(f"manifest written by tiltlab {version!r}, "
                         f"this is tiltlab {__version__!r}")
    try:
        cfg = config_from_values(manifest["config"])
    except ConfigError as exc:
        raise ConfigError(f"manifest config does not match: {exc}") from None
    try:
        check_ranges(cfg)
    except ConfigError as exc:
        raise ConfigError(f"manifest config out of range: {exc}") from None
    with open(csv_path, newline="") as fh:
        try:
            stored_rows = list(csv.DictReader(fh))
        except csv.Error as exc:  # not a ValueError
            raise ValueError(f"unreadable CSV: {exc}") from None
    if not 0 <= row_index < len(stored_rows):
        raise IndexError(
            f"row {row_index} out of range ({len(stored_rows)} data rows)")
    stored = stored_rows[row_index]
    # DictReader fills a short row with None, and keys a long row's extra
    # fields by None
    if None in stored or None in stored.values():
        raise ValueError(f"row {row_index} does not have the header's "
                         f"{len(stored) - (None in stored)} fields")
    trial = int(stored["trial"])
    seed = int(stored["seed"])
    recomputed = run_trial(cfg, seed, trial)[0]
    return stored, recomputed, recomputed == stored
