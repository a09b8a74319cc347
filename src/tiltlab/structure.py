"""Verifiers for the geometric facts behind the random-workload bounds.

Covers column-sum concentration of random +-1 matrices over uniform
k-subsets, and the expanding/regular properties of tilted column
distributions, whose weights are tilt.tilt_weights batched over thetas;
the regular check certifies its thetas in threads when the host has CPUs to
spare.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tilt import _BLAS_THREADS, _blas_control, _cpus_available, \
    _in_ranges, tilt_weights

ETA_PROBE_SCALE = 0.06
# theta threads start only when one theta's tilted covariance costs at least
# this many multiply-adds, d^2 N: with one BLAS thread on 2 vCPUs, two
# threads ran 0.4-0.9x the serial speed at d^2 N <= 2^20, about 1.0-1.6x at
# 2^21 and 1.14-1.9x from 2^22 on, for 10 to 160 thetas and d = 16 to 96
THETA_WORK = 2 ** 22


def _validate_pm1(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError("matrix must be 2-D (columns are points)")
    if not np.all(np.abs(a) == 1):
        raise ValueError("matrix entries must be +-1")
    return a


def column_sum_cap(d: int, n_columns: int, cap_scale: float) -> float:
    """Largest subset size k that ``check_column_sums`` accepts.

    k = 1 is always legal; the log-capacity cap cap_scale d / ln N only
    bites above that, and no subset is larger than the N columns.
    """
    return min(float(n_columns),
               max(1.0, cap_scale * d / math.log(n_columns)))


def sample_k_subsets(rng: np.random.Generator, n: int, k: int,
                     count: int) -> np.ndarray:
    """``count`` uniform k-subsets of range(n), one per row of the result.

    Floyd's algorithm (Bentley & Floyd, "A sample of brilliance", CACM
    30(9), 1987), vectorised across rows: for j = n-k, ..., n-1 draw t
    uniform in [0, j] and keep t, or j when t is already in the row.  O(k)
    draws per subset, whatever n is.
    """
    idx = np.empty((count, k), dtype=np.int64)
    for step, j in enumerate(range(n - k, n)):
        t = rng.integers(0, j + 1, size=count)
        taken = (idx[:, :step] == t[:, None]).any(axis=1)
        idx[:, step] = np.where(taken, j, t)
    return idx


@dataclass
class ColumnSumReport:
    k: int
    trials: int
    cap: float
    max_ratio: float
    violations: int
    mean_sq: float
    expected_sq: float
    stderr_sq: float


def check_column_sums(
    a: np.ndarray,
    k: int,
    subset_trials: int,
    rng: np.random.Generator,
    cap_scale: float = 0.1,
) -> ColumnSumReport:
    """Sample k-subsets of columns and test ||sum||_2 <= sqrt(2 k d).

    Also accumulates ||sum||_2^2, whose exact expectation over a random
    +-1 matrix and subset is k d.
    """
    a = _validate_pm1(a)
    d, n = a.shape
    if n < 2:
        raise ValueError("need at least 2 columns")
    cap = column_sum_cap(d, n, cap_scale)
    if not 1 <= k <= cap:
        raise ValueError(f"k must be in [1, {cap:.3f}] (cap_scale={cap_scale})")
    if subset_trials < 1:
        raise ValueError(f"subset_trials must be >= 1, got {subset_trials}")
    norms_sq = np.empty(subset_trials)
    # chunking bounds the (d, count, k) gather below
    chunk = 10_000
    a8 = a.astype(np.int8)
    for start in range(0, subset_trials, chunk):
        count = min(chunk, subset_trials - start)
        idx = sample_k_subsets(rng, n, k, count)
        # (d, count) integer sums, exact in float64; einsum squares and sums
        # them without (d, count) temporaries
        sums = a8[:, idx].sum(axis=2, dtype=float)
        norms_sq[start:start + count] = np.einsum("ij,ij->j", sums, sums)
    violations = int(np.sum(norms_sq > 2 * k * d))
    return ColumnSumReport(
        k=k,
        trials=subset_trials,
        cap=cap,
        max_ratio=float(np.sqrt(norms_sq.max() / (k * d))),
        violations=violations,
        mean_sq=float(norms_sq.mean()),
        expected_sq=float(k * d),
        stderr_sq=float(norms_sq.std(ddof=1) / math.sqrt(subset_trials))
        if subset_trials > 1 else 0.0,
    )


def _sphere_thetas(rng, trials, d, r):
    g = rng.normal(size=(trials, d))
    return g / np.linalg.norm(g, axis=1, keepdims=True) * r


@dataclass
class ExpandingReport:
    values: np.ndarray
    fail_fraction: float


def check_expanding(
    a: np.ndarray,
    r: float,
    eta_probe: float,
    trials: int,
    rng: np.random.Generator,
) -> ExpandingReport:
    """Per theta on the radius-r sphere, compute E_{v ~ D_theta(A)}[<v, theta>]
    exactly by enumerating the columns, and report the fraction below
    eta_probe."""
    a = _validate_pm1(a)
    d, _ = a.shape
    if r <= 0:
        raise ValueError("need r > 0 to draw boundary thetas")
    thetas = _sphere_thetas(rng, trials, d, r)
    _, mu = tilt_weights(a, thetas)
    values = (mu * thetas).sum(axis=1)
    return ExpandingReport(values=values,
                           fail_fraction=float(np.mean(values < eta_probe)))


def tilted_column_cov(a: np.ndarray, p: np.ndarray,
                      mu: np.ndarray) -> np.ndarray:
    """Exact covariance of the tilt with one row ``p, mu`` of tilt_weights."""
    # a product with its own transpose goes to BLAS syrk: half the flops
    b = a * np.sqrt(p)
    cov = b @ b.T
    cov -= np.outer(mu, mu)
    return cov


@dataclass
class RegularReport:
    threshold: float
    fraction_above: float


def check_regular(
    a: np.ndarray,
    r: float,
    trials: int,
    rng: np.random.Generator,
    threshold: float = 2.0,
) -> RegularReport:
    """Fraction of thetas in the radius-r ball whose exact column covariance
    C has lambda_max(C) >= threshold, up to rounding; no eigenvalue is taken,
    as threshold * I - C has a Cholesky factor iff lambda_max(C) < threshold.

    The thetas and all their tilt weights come first, in one block; then,
    when a theta costs THETA_WORK multiply-adds, contiguous theta ranges are
    certified at once by tilt._in_ranges (numpy's BLAS and Cholesky release
    the GIL): one per CPU when _in_ranges can hold BLAS at one thread, else
    one per CPU that the environment's BLAS thread count leaves free.  The
    count is the same whatever the thread count."""
    a = _validate_pm1(a)
    d, n = a.shape
    unit = _sphere_thetas(rng, trials, d, 1.0)
    radii = r * rng.random(trials) ** (1.0 / d)
    thetas = unit * radii[:, None]
    ceiling = threshold * np.eye(d)
    p, mu = tilt_weights(a, thetas)

    def count_above(first, last):
        above = 0
        for p_row, mu_row in zip(p[first:last], mu[first:last]):
            try:
                np.linalg.cholesky(ceiling - tilted_column_cov(a, p_row,
                                                               mu_row))
            except np.linalg.LinAlgError:
                above += 1
        return above

    threads = 1
    if d * d * n >= THETA_WORK:
        # python threads on top of BLAS threads run slower than one thread:
        # _in_ranges holds a BLAS it finds at one thread, else the
        # environment's count stands
        blas_threads = 1 if _blas_control() else _BLAS_THREADS
        threads = max(1, min(_cpus_available() // blas_threads, trials))
    above = sum(_in_ranges(trials, threads, count_above))
    return RegularReport(threshold=threshold, fraction_above=above / trials)
