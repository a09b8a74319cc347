"""Verifiers for the geometric facts behind the random-workload bounds.

Covers the L1/L2 K-functional and its soft-threshold solver, exact
Rademacher tails, column-sum concentration of random +-1 matrices, and the
expanding/regular properties of tilted column distributions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import CapacityError

EXACT_TAIL_CAP = 22
ETA_PROBE_SCALE = 0.06
K12_SEARCH_TOL = 1e-9


# --------------------------------------------------------------------------
# K-functional


def _golden_min(f, lo: float, hi: float, tol: float) -> float:
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return min(fc, fd)


def k12(a: np.ndarray, t: float) -> float:
    """K_{1,2}(a, t) = inf{||a'||_1 + t ||a''||_2 : a' + a'' = a}.

    The optimal a'' clips a at some magnitude level c, so the infimum is a
    one-dimensional minimization of
        g(c) = sum_{|a_i| > c}(|a_i| - c) + t sqrt(sum min(|a_i|, c)^2)
    over c >= 0; g is convex between consecutive sorted magnitudes, so each
    segment is searched to 1e-9 and the best value returned.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    mags = np.sort(np.abs(np.asarray(a, dtype=float)))
    if t == 0 or mags.sum() == 0:
        return 0.0

    def g(c):
        above = mags[mags > c]
        clipped = np.minimum(mags, c)
        return float(above.sum()) - c * len(above) + t * math.sqrt(
            float((clipped ** 2).sum())
        )

    edges = np.concatenate([[0.0], mags])
    best = g(mags[-1])
    for i in range(len(edges) - 1):
        lo, hi = float(edges[i]), float(edges[i + 1])
        if hi - lo <= K12_SEARCH_TOL:
            best = min(best, g(lo))
            continue
        best = min(best, g(lo), _golden_min(g, lo, hi, K12_SEARCH_TOL))
    return best


def is_good_vector(a: np.ndarray) -> bool:
    """At least d/2 coordinates reach ||a||_2 / (5 sqrt(d))."""
    a = np.asarray(a, dtype=float)
    d = len(a)
    level = np.linalg.norm(a) / (5 * math.sqrt(d))
    return int(np.sum(np.abs(a) >= level)) >= d / 2


def k12_sandwich_constant(a: np.ndarray, t_grid=None) -> float:
    """Largest c with c t ||a||_2 <= k12(a, t) for all grid t <= c sqrt(d).

    The upper side k12 <= t ||a||_2 holds unconditionally (take a' = 0);
    the returned constant quantifies the lower side on the grid.
    """
    a = np.asarray(a, dtype=float)
    d = len(a)
    l2 = np.linalg.norm(a)
    if l2 == 0:
        return 0.0
    if t_grid is None:
        t_grid = np.linspace(0.05, math.sqrt(d), 40)
    t_grid = np.asarray(t_grid, dtype=float)
    vals = np.array([k12(a, t) for t in t_grid])

    def ok(c):
        active = t_grid <= c * math.sqrt(d)
        return bool(np.all(vals[active] >= c * t_grid[active] * l2))

    lo, hi = 0.0, 1.0
    if ok(hi):
        return hi
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return lo


# --------------------------------------------------------------------------
# Rademacher tails


def _all_sign_sums(a: np.ndarray) -> np.ndarray:
    sums = np.zeros(1)
    for v in a:
        sums = np.concatenate([sums + v, sums - v])
    return sums


def exact_sign_tail(a: np.ndarray, thresholds) -> np.ndarray:
    """Pr[<a, x> >= T] over uniform signs x, exactly, via half-enumeration."""
    a = np.asarray(a, dtype=float)
    d = len(a)
    if d > EXACT_TAIL_CAP:
        raise CapacityError(f"exact tails need d <= {EXACT_TAIL_CAP}")
    half = d // 2
    left = _all_sign_sums(a[:half])
    right = np.sort(_all_sign_sums(a[half:]))
    out = []
    for t in np.atleast_1d(np.asarray(thresholds, dtype=float)):
        idx = np.searchsorted(right, t - left, side="left")
        out.append(float(np.sum(len(right) - idx)) / 2 ** d)
    return np.array(out)


@dataclass
class TailReport:
    t_values: np.ndarray
    probabilities: np.ndarray
    hoeffding_bound: np.ndarray
    hoeffding_ok: list
    good_vector: bool
    lower_checked: bool
    fitted_c: np.ndarray
    notice: str = ""


def rademacher_tail(a: np.ndarray, t_values) -> TailReport:
    """Exact tails Pr[<a, x> >= t ||a||_2] over uniform signs x (d <= 22),
    with the exp(-t^2/2) upper bound checked and the lower-bound constant
    fitted when the vector is good."""
    a = np.asarray(a, dtype=float)
    t_values = np.asarray(np.atleast_1d(t_values), dtype=float)
    probs = exact_sign_tail(a, t_values * np.linalg.norm(a))
    bound = np.exp(-(t_values ** 2) / 2)
    hoeffding_ok = [bool(p <= b + 1e-15) for p, b in zip(probs, bound)]
    good = is_good_vector(a)
    with np.errstate(divide="ignore"):
        fitted = np.where(
            t_values > 0,
            -np.log(np.maximum(probs, 1e-300)) / np.maximum(t_values, 1e-300) ** 2,
            np.nan,
        )
    notice = "" if good else "not a good vector; lower-bound fit skipped"
    return TailReport(
        t_values=t_values,
        probabilities=probs,
        hoeffding_bound=bound,
        hoeffding_ok=hoeffding_ok,
        good_vector=good,
        lower_checked=good,
        fitted_c=fitted,
        notice=notice,
    )


# --------------------------------------------------------------------------
# random-matrix checks


def _validate_pm1(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a)
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
        sums = a8[:, idx].sum(axis=2)  # (d, count)
        norms_sq[start:start + count] = (sums.astype(float) ** 2).sum(axis=0)
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
    r: float
    eta_probe: float
    trials: int
    values: np.ndarray
    fail_fraction: float


def check_expanding(
    a: np.ndarray,
    r: float,
    eta_probe: float,
    trials: int,
    rng: np.random.Generator,
    thetas: Optional[np.ndarray] = None,
) -> ExpandingReport:
    """Per theta on the radius-r sphere, compute E_{v ~ D_theta(A)}[<v, theta>]
    exactly by enumerating the columns, and report the fraction below
    eta_probe.  ``thetas`` overrides the draw (one row per trial)."""
    a = _validate_pm1(a).astype(float)
    d, _ = a.shape
    if thetas is None:
        if r <= 0:
            raise ValueError("need r > 0 to draw boundary thetas")
        thetas = _sphere_thetas(rng, trials, d, r)
    else:
        thetas = np.asarray(thetas, dtype=float)
        if thetas.ndim != 2 or thetas.shape[1] != d:
            raise ValueError("thetas must be (trials, d)")
        trials = len(thetas)
    _, mu = tilt_weights(a, thetas)
    values = (mu * thetas).sum(axis=1)
    return ExpandingReport(
        r=r,
        eta_probe=eta_probe,
        trials=trials,
        values=values,
        fail_fraction=float(np.mean(values < eta_probe)),
    )


def tilt_weights(a: np.ndarray, thetas: np.ndarray) -> tuple:
    """Tilt weights over the columns of ``a`` and tilt means, one row each per
    row of ``thetas``: two GEMMs per block; one theta is a 1-row block."""
    a = np.asarray(a, dtype=float)
    p = thetas @ a  # (trials, N) inner products with columns
    p -= p.max(axis=1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=1, keepdims=True)
    return p, p @ a.T


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
    as threshold * I - C has a Cholesky factor iff lambda_max(C) < threshold."""
    a = _validate_pm1(a).astype(float)
    d, _ = a.shape
    if r == 0:
        thetas = np.zeros((trials, d))
    else:
        unit = _sphere_thetas(rng, trials, d, 1.0)
        radii = r * rng.random(trials) ** (1.0 / d)
        thetas = unit * radii[:, None]
    ceiling = threshold * np.eye(d)
    above = 0
    for p, mu in zip(*tilt_weights(a, thetas)):
        try:
            np.linalg.cholesky(ceiling - tilted_column_cov(a, p, mu))
        except np.linalg.LinAlgError:
            above += 1
    return RegularReport(threshold=threshold, fraction_above=above / trials)
