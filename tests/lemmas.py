"""Lemma-level facts that the tests check and no experiment runs: the
K_{1,2} functional and its sandwich constant, exact Rademacher tails, the
group-privacy and padding reductions, the (epsilon, delta) frequency
audit, and repeated sparse histogram releases for it.  Shared by
tests/test_structure.py, tests/test_mechanisms.py and
tests/test_acceptance.py."""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betaincinv

from tiltlab.errors import CapacityError
from tiltlab.mechanisms import noise_bound, release_rows, trunc_laplace

EXACT_TAIL_CAP = 22
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


def grid_k12(a, t, levels=4, res=41):
    """Refined-grid oracle over the componentwise split, d <= 3."""
    a = np.abs(np.asarray(a, dtype=float))
    d = len(a)
    lo, hi = np.zeros(d), a.copy()
    best = math.inf
    for _ in range(levels):
        axes = [np.linspace(lo[i], hi[i], res) for i in range(d)]
        grids = np.meshgrid(*axes, indexing="ij")
        part = np.stack([g.ravel() for g in grids], axis=1)
        obj = part.sum(axis=1) + t * np.sqrt(
            ((a[None, :] - part) ** 2).sum(axis=1)
        )
        j = int(np.argmin(obj))
        best = min(best, float(obj[j]))
        span = (hi - lo) / (res - 1)
        lo = np.maximum(0, part[j] - 2 * span)
        hi = np.minimum(a, part[j] + 2 * span)
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
# black-box reductions


def privacy(mech) -> tuple:
    """(epsilon, delta) of a mechanism; one without them is non-private."""
    return getattr(mech, "epsilon", math.inf), getattr(mech, "delta", 0.0)


class GroupPrivacyWrapped:
    """Replicates each point p times before calling the base mechanism.

    A replace-one change in the small dataset moves p points of the big
    one, so an (eps, delta) base guarantee becomes
    (p eps, delta (e^{p eps} - 1) / (e^eps - 1)); the delta factor tends
    to p as eps tends to zero.
    """

    def __init__(self, mech, p: int):
        if not isinstance(p, int) or p < 1:
            raise ValueError("group size p must be a positive integer")
        self.mech = mech
        self.p = p
        eps, delta = privacy(mech)
        if p == 1 or math.isinf(eps):
            self.epsilon, self.delta = eps, delta
        elif eps == 0:
            self.epsilon, self.delta = 0.0, p * delta
        else:
            self.epsilon = p * eps
            self.delta = delta * math.expm1(p * eps) / math.expm1(eps)

    @property
    def name(self) -> str:
        return f"group-{self.p}x-{self.mech.name}"

    def __call__(self, points: np.ndarray, rng=None) -> np.ndarray:
        return self.mech(np.repeat(points, self.p, axis=0), rng)


class PaddedMechanism:
    """Pads a dataset with copies of an anchor point before answering.

    On m real points, runs the base mechanism on n = k m points (the extra
    n - m are the anchor z) and returns (n/m) (q - ((n-m)/n) z), which
    undoes the padding exactly for mean answers.  Its (epsilon, delta) are
    the base mechanism's.
    """

    def __init__(self, mech, k: int, anchor: np.ndarray):
        if not isinstance(k, int) or k < 1:
            raise ValueError("pad factor k must be a positive integer")
        self.anchor = np.asarray(anchor, dtype=np.float64)
        if self.anchor.ndim != 1:
            raise ValueError("the anchor must be one dense (dim,) point")
        self.mech = mech
        self.k = k
        self.epsilon, self.delta = privacy(mech)

    @property
    def name(self) -> str:
        return f"pad-{self.k}x-{self.mech.name}"

    def __call__(self, points: np.ndarray, rng=None) -> np.ndarray:
        m = len(points)
        n = self.k * m
        pad = np.tile(self.anchor, (n - m, 1))
        q = self.mech(np.vstack([points, pad]), rng)
        return (n / m) * (q - ((n - m) / n) * self.anchor)


# --------------------------------------------------------------------------
# frequency audit


def release_many(hist, epsilon: float, delta: float,
                 rng: np.random.Generator, runs: int) -> tuple:
    """(block, background) of runs sparse histogram releases of hist by
    mechanisms.release_rows, their noise drawn from one run-major array of
    uniforms: row r is the release of the r-th of runs sparse_histogram
    calls on rng, and rng ends where those calls leave it."""
    s = len(hist.weights)
    noise = trunc_laplace(rng.random((runs, s)), 1.0 / epsilon,
                          noise_bound(epsilon, delta))
    extra = 0 if hist.universe_size is None else hist.universe_size - s
    return release_rows(hist.weights, hist.total, noise, extra)


@dataclass
class AuditReport:
    rejected: bool
    runs: int
    epsilon: float
    delta: float
    significance: float
    worst_margin: float
    n_cells: int


def audit_frequency_ratio(mech_a, mech_b, *, epsilon: float, delta: float,
                          runs: int, bin_edges: np.ndarray,
                          significance: float = 1e-3,
                          rng: np.random.Generator) -> AuditReport:
    """Frequency test of the (epsilon, delta) bound on two output samplers.

    Each sampler maps (rng, runs) to a (runs,) array of scalar outputs;
    side a draws first, then side b.  Bins both samples (with underflow
    and overflow cells) and rejects when a Clopper-Pearson lower bound on
    one cell mass exceeds e^eps times the upper bound on the other plus
    delta, in either direction, Bonferroni-corrected so a mechanism that
    honestly satisfies the bound is rejected with probability at most
    ``significance``.
    """
    edges = np.asarray(bin_edges, dtype=float)
    a = np.asarray(mech_a(rng, runs), dtype=float)
    b = np.asarray(mech_b(rng, runs), dtype=float)
    if a.shape != (runs,) or b.shape != (runs,):
        raise ValueError(f"samplers must return ({runs},) arrays, got "
                         f"{a.shape} and {b.shape}")
    n_cells = len(edges) + 1
    counts_a = np.bincount(np.searchsorted(edges, a, side="right"),
                           minlength=n_cells)
    counts_b = np.bincount(np.searchsorted(edges, b, side="right"),
                           minlength=n_cells)
    alpha_each = significance / (2 * n_cells)

    def lcb(k):
        return np.where(k > 0, betaincinv(k, runs - k + 1, alpha_each), 0.0)

    def ucb(k):
        return np.where(k < runs, betaincinv(k + 1, np.maximum(runs - k, 1),
                                             1 - alpha_each), 1.0)

    grow = math.exp(epsilon)
    margin_ab = lcb(counts_a) - (grow * ucb(counts_b) + delta)
    margin_ba = lcb(counts_b) - (grow * ucb(counts_a) + delta)
    worst = float(max(margin_ab.max(), margin_ba.max()))
    return AuditReport(
        rejected=worst > 0,
        runs=runs,
        epsilon=epsilon,
        delta=delta,
        significance=significance,
        worst_margin=worst,
        n_cells=n_cells,
    )
