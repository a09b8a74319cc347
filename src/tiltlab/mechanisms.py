"""Mean-release mechanisms and private histogram release.

Dataset mechanisms consume a Dataset (a PointBatch plus its dense matrix)
and return a MechanismAnswer carrying the estimate and privacy metadata.
Histogram mechanisms operate on HistogramVector (nonnegative weights with a
fixed total mass) under L1 adjacency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.special import betaincinv

from .errors import CapacityError
from .families import PointBatch, PointFamily, predicate_matrix


@dataclass
class Dataset:
    """Ordered dataset with dense resolved points; replace-one adjacency."""

    batch: PointBatch
    points: np.ndarray  # (n, dim)

    @classmethod
    def from_refs(cls, batch: PointBatch) -> "Dataset":
        """Dataset of a PointBatch, densified once (the name is kept for the
        perfbench span that times it)."""
        return cls(batch=batch, points=batch.densify())

    @property
    def n(self) -> int:
        return len(self.batch)


@dataclass
class MechanismAnswer:
    estimate: np.ndarray
    epsilon: float
    delta: float
    adjacency: str
    diagnostics: dict = field(default_factory=dict)


class EmpiricalMean:
    """Exact dataset mean; no privacy."""

    name = "exact-mean"

    def __call__(self, ds: Dataset, rng=None) -> MechanismAnswer:
        return MechanismAnswer(
            estimate=ds.points.mean(axis=0),
            epsilon=math.inf,
            delta=0.0,
            adjacency="replace-one",
        )


class ClampedMean:
    """Dataset mean with each coordinate clamped to [-bound, bound]."""

    name = "clamped-mean"

    def __init__(self, bound: float = 0.5):
        if bound <= 0:
            raise ValueError("bound must be positive")
        self.bound = bound

    def __call__(self, ds: Dataset, rng=None) -> MechanismAnswer:
        est = np.clip(ds.points.mean(axis=0), -self.bound, self.bound)
        return MechanismAnswer(
            estimate=est,
            epsilon=math.inf,
            delta=0.0,
            adjacency="replace-one",
            diagnostics={"bound": self.bound},
        )


class GaussianMechanism:
    """Gaussian-noised mean calibrated for replace-one adjacency on points
    with entries in [-1, 1]: sigma = (2 sqrt(dim) / n) sqrt(2 ln(1.25/delta)) / eps."""

    name = "gaussian"

    def __init__(self, epsilon: float, delta: float, clamp: bool = False):
        if epsilon <= 0 or not 0 < delta < 1:
            raise ValueError("need epsilon > 0 and delta in (0, 1)")
        self.epsilon = epsilon
        self.delta = delta
        self.clamp = clamp

    def sigma(self, n: int, dim: int) -> float:
        sensitivity = 2.0 * math.sqrt(dim) / n
        return sensitivity * math.sqrt(2.0 * math.log(1.25 / self.delta)) / self.epsilon

    def __call__(self, ds: Dataset, rng: Optional[np.random.Generator] = None):
        if rng is None:
            raise ValueError("gaussian mechanism needs an rng")
        sigma = self.sigma(ds.n, ds.points.shape[1])
        est = ds.points.mean(axis=0) + rng.normal(scale=sigma, size=ds.points.shape[1])
        clamped = 0
        if self.clamp:
            clamped = int(np.sum(np.abs(est) > 1.0))
            est = np.clip(est, -1.0, 1.0)
        return MechanismAnswer(
            estimate=est,
            epsilon=self.epsilon,
            delta=self.delta,
            adjacency="replace-one",
            diagnostics={"sigma": sigma, "clamped_coords": clamped},
        )


# --------------------------------------------------------------------------
# private sparse histograms


def trunc_laplace(rng: np.random.Generator, scale: float, bound: float,
                  size: int) -> np.ndarray:
    """``size`` draws of Laplace(0, scale) conditioned on [-bound, bound].

    Rejection in array form: draw as many as are still missing and keep
    those inside the bound, until ``size`` are kept.  Every draw of the last
    round is kept, so the generator ends where ``size`` one-at-a-time
    rejection loops end, with the same values in the same order.
    """
    if scale <= 0 or bound <= 0:
        raise ValueError("need scale > 0 and bound > 0")
    x = rng.laplace(0.0, scale, size=size)
    x = x[np.abs(x) <= bound]
    while len(x) < size:
        more = rng.laplace(0.0, scale, size=size - len(x))
        x = np.concatenate([x, more[np.abs(more) <= bound]])
    return x


@dataclass
class HistogramVector:
    """Nonnegative weights over a universe, with an optional flat background.

    ``weights`` holds the explicitly represented elements.  Every element of
    the universe not listed there carries ``background`` mass; a positive
    background therefore requires a finite ``universe_size``.  ``total`` is
    the full mass including the background part.
    """

    weights: dict
    universe_size: Optional[int] = None
    background: float = 0.0

    def __post_init__(self):
        for u, w in self.weights.items():
            if w < 0:
                raise ValueError(f"negative weight for element {u!r}")
        if self.background < 0:
            raise ValueError("background must be nonnegative")
        if self.universe_size is None:
            if self.background > 0:
                raise ValueError("positive background needs a finite universe")
        elif self.universe_size < len(self.weights):
            raise ValueError("universe smaller than the explicit support")

    @property
    def total(self) -> float:
        base = math.fsum(self.weights.values())
        if self.universe_size is not None:
            base += self.background * (self.universe_size - len(self.weights))
        return base

    def value(self, u) -> float:
        return self.weights.get(u, self.background)

    def linf_distance(self, other: "HistogramVector") -> float:
        keys = set(self.weights) | set(other.weights)
        d = max((abs(self.value(u) - other.value(u)) for u in keys), default=0.0)
        size = self.universe_size
        if size is None or size > len(keys):
            d = max(d, abs(self.background - other.background))
        return d


def _row_fsums(block: np.ndarray) -> np.ndarray:
    """Exactly rounded sum of each row of a 2-D block."""
    return np.fromiter((math.fsum(row.tolist()) for row in block),
                       dtype=float, count=len(block))


def _water_fill_surplus(values: np.ndarray, target: float) -> np.ndarray:
    """Lower each row uniformly (flooring at zero) until it sums to target.

    The level is the threshold of the Euclidean projection onto the simplex
    {x >= 0, sum(x) = target} (Held, Wolfe & Crowder 1974; Duchi et al.
    2008): with u the row sorted in descending order and
    levels_j = (u_1 + ... + u_j - target) / j, it is levels_rho for the last
    rho with u_rho >= levels_rho.  The largest entry of each row is then set
    to the target minus the fsum of the others, so the output mass is
    fsum-exact even when the target is far below the rounding of the level.
    """
    rows, s = values.shape
    u = np.sort(values, axis=1)[:, ::-1]
    levels = (np.cumsum(u, axis=1) - target) / np.arange(1, s + 1)
    rho = s - 1 - np.argmax((u >= levels)[:, ::-1], axis=1)
    pick = np.arange(rows)
    level = np.maximum(levels[pick, rho], 0.0)
    out = np.maximum(values - level[:, None], 0.0)
    top = np.argmax(out, axis=1)
    out[pick, top] = 0.0
    patch = target - _row_fsums(out)
    if (patch < 0).any():
        raise AssertionError("water-fill residual patch went negative")
    out[pick, top] = patch
    return out


def _release_rows(hist: HistogramVector, epsilon: float, delta: float,
                  rng: np.random.Generator, runs: int) -> tuple:
    """The releases behind sparse_histogram_many.

    Returns (items, block, level): the (element, weight) pairs in canonical
    order, the (runs, support) released weights, and the (runs,) deficit
    level each row spread over the universe (zero where there was none).
    """
    if epsilon <= 0 or not 0 < delta < 1:
        raise ValueError("need epsilon > 0 and delta in (0, 1)")
    if hist.background != 0:
        raise ValueError("input histogram must have zero background")
    v = 5.0 * math.log(1.0 / delta) / epsilon
    # canonical element order, independent of dict construction history
    items = sorted(hist.weights.items(), key=lambda kv: repr(kv[0]))
    s = len(items)
    target = hist.total
    w = np.array([x for _, x in items], dtype=float)
    noise = trunc_laplace(rng, 1.0 / epsilon, v, runs * s).reshape(runs, s)
    block = np.maximum(w + noise, 0.0)
    current = _row_fsums(block)
    surplus = current > target
    if surplus.any():
        block[surplus] = _water_fill_surplus(block[surplus], target)
    level = np.zeros(runs)
    deficit = current < target
    if deficit.any():
        extra = 0 if hist.universe_size is None else hist.universe_size - s
        level[deficit] = (target - current[deficit]) / (s + extra)
        block[deficit] += level[deficit, None]
    return items, block, level


def sparse_histogram_many(
    hist: HistogramVector,
    epsilon: float,
    delta: float,
    rng: np.random.Generator,
    runs: int,
) -> np.ndarray:
    """``runs`` independent sparse_histogram releases of hist.

    Returns a (runs, support) float64 block whose columns follow the
    canonical element order (sorted by repr).  The noise for all runs is one
    array draw, run-major, so row r equals the r-th of ``runs`` sequential
    sparse_histogram calls on rng (zeros included, for dropped elements),
    and rng ends in the same state.
    """
    return _release_rows(hist, epsilon, delta, rng, runs)[1]


def sparse_histogram(
    hist: HistogramVector,
    epsilon: float,
    delta: float,
    rng: np.random.Generator,
) -> HistogramVector:
    """Release a histogram privately while preserving its exact total mass.

    Each explicitly represented element gets truncated-Laplace noise with
    scale 1/epsilon and truncation v = 5 ln(1/delta) / epsilon, is floored
    at zero, and the result is projected back to the input mass by water
    filling.  Elements outside the support never receive noise; a mass
    deficit is spread uniformly (over the whole universe when it is finite,
    via the background field).  With probability one the released vector
    satisfies ||out - hist||_inf <= 2v: per-element noise is at most v, the
    surplus water level c solves phi(c) = total with phi(v) <= total, and a
    deficit spreads at most (support * v) / support <= v per element.
    """
    items, block, level = _release_rows(hist, epsilon, delta, rng, 1)
    spread = hist.universe_size is not None \
        and hist.universe_size > len(items)
    return HistogramVector(
        weights={u: x for (u, _), x in zip(items, block[0].tolist()) if x > 0},
        universe_size=hist.universe_size,
        background=float(level[0]) if spread else 0.0,
    )


@dataclass
class AuditReport:
    rejected: bool
    runs: int
    epsilon: float
    delta: float
    significance: float
    worst_margin: float
    n_cells: int


def audit_frequency_ratio(
    mech_a: Callable[[np.random.Generator, int], np.ndarray],
    mech_b: Callable[[np.random.Generator, int], np.ndarray],
    *,
    epsilon: float,
    delta: float,
    runs: int,
    bin_edges: np.ndarray,
    significance: float = 1e-3,
    rng: np.random.Generator,
) -> AuditReport:
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


# --------------------------------------------------------------------------
# slice reconstruction and subspace projection

RECONSTRUCT_CAP = 12


def reconstruct_slices_batch(
    answers: np.ndarray,
    alpha: float,
    m: int,
    iters: int = 800,
) -> np.ndarray:
    """Recover mean slices in [-1/m, 1/m]^m from noisy predicate answers.

    ``answers`` has one row of 2^m predicate answers per slice.  For each
    row, finds mu minimizing max_h |<mu, h> - answers_h| over the box, by
    projected subgradient descent from the least-squares warm start
    (predicate rows are orthogonal as columns, so the warm start is the
    unconstrained optimum of the squared residual).  All rows run at once;
    a row stops moving once its worst violation is at most alpha, and
    otherwise ends at its best iterate.
    """
    if m > RECONSTRUCT_CAP:
        raise CapacityError(
            f"reconstruct_slices_batch supports m <= {RECONSTRUCT_CAP}")
    h = predicate_matrix(m).astype(float)
    answers = np.asarray(answers, dtype=float)
    if answers.ndim != 2 or answers.shape[1] != 2 ** m:
        raise ValueError(f"expected (slices, {2 ** m}) answers")
    box = 1.0 / m
    mu = np.clip(answers @ h / 2 ** m, -box, box)
    best_mu = mu.copy()
    best_f = np.max(np.abs(mu @ h.T - answers), axis=1)
    for t in range(1, iters + 1):
        live = best_f > alpha
        if not live.any():
            break
        resid = mu @ h.T - answers
        idx = np.argmax(np.abs(resid), axis=1)
        rows = np.arange(len(mu))
        f = np.abs(resid[rows, idx])
        improved = f < best_f
        best_f = np.where(improved, f, best_f)
        best_mu[improved] = mu[improved]
        target = np.maximum(alpha, best_f - 0.5 * box / math.sqrt(t))
        step = np.where(live, np.maximum(f - target, 0.0) / m, 0.0)
        g = np.sign(resid[rows, idx])[:, None] * h[idx]
        mu = np.clip(mu - step[:, None] * g, -box, box)
    return best_mu


def project_to_H(
    w: np.ndarray,
    basis: np.ndarray,
    box_scale: float,
    mode: str = "fast",
) -> tuple:
    """Project w onto {(s/k) sum_j lam_j u^j : lam in [-1,1]^k}.

    ``basis`` rows are the orthogonal +-1 vectors u^j.  Fast mode clips the
    exact basis coefficients, which is the exact L2 projection and is within
    sqrt(k) of the optimal L1 movement; exact mode solves the L1-minimizing
    projection as a linear program.  Returns (projection, lam).
    """
    basis = np.asarray(basis, dtype=float)
    k = basis.shape[0]
    if basis.shape != (k, k):
        raise ValueError("basis must be square with rows u^j")
    if box_scale <= 0:
        raise ValueError("box_scale must be positive")
    w = np.asarray(w, dtype=float)
    if w.shape != (k,):
        raise ValueError("w must match the basis dimension")
    if mode == "fast":
        lam = np.clip(basis @ w / box_scale, -1.0, 1.0)
        return (box_scale / k) * (basis.T @ lam), lam
    if mode != "exact":
        raise ValueError(f"unknown mode {mode!r}")
    from scipy.optimize import linprog  # only exact mode needs the LP solver

    point_of_lam = (box_scale / k) * basis.T  # columns scale each lambda
    eye = np.eye(k)
    a_ub = np.block([[point_of_lam, -eye], [-point_of_lam, -eye]])
    b_ub = np.concatenate([w, -w])
    cost = np.concatenate([np.zeros(k), np.ones(k)])
    bounds = [(-1.0, 1.0)] * k + [(0.0, None)] * k
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if not res.success:
        raise RuntimeError(f"projection LP failed: {res.message}")
    lam = res.x[:k]
    return point_of_lam @ lam, lam


# --------------------------------------------------------------------------
# histogram query release

QUERY_RELEASE_CPRIME = 24.0


def required_mass(
    epsilon: float,
    delta: float,
    alpha: float,
    cprime: float = QUERY_RELEASE_CPRIME,
) -> float:
    """Histogram mass needed for query release at the given accuracy."""
    return cprime * math.log(1.0 / delta) / (epsilon * alpha ** 2)


def histogram_query_release(
    family: PointFamily,
    hist: HistogramVector,
    *,
    epsilon: float,
    delta: float,
    alpha: float,
    rng: np.random.Generator,
    cprime: float = QUERY_RELEASE_CPRIME,
) -> tuple:
    """Answer every row query of a matrix-columns family on a histogram.

    Scales the histogram to the required mass n, releases it with
    sparse_histogram at (epsilon/2, delta/2), and returns the normalized
    query answers A x_hat / ||x_hat||_1 together with the released
    histogram.  Histogram elements index columns of the family matrix.
    """
    if family.kind != "matrix-columns":
        raise ValueError("query release needs a matrix-columns family")
    n_req = required_mass(epsilon, delta, alpha, cprime)
    if hist.total < n_req - 1e-9:
        raise ValueError(
            f"query release at epsilon={epsilon}, delta={delta}, "
            f"alpha={alpha} requires total mass >= {n_req:.6g}; "
            f"got {hist.total:.6g}"
        )
    n_cols = family.n_columns
    for u in hist.weights:
        if not isinstance(u, (int, np.integer)) or not 0 <= u < n_cols:
            raise ValueError(f"element {u!r} is not a column index")
    scale = n_req / hist.total
    scaled = HistogramVector(
        weights={u: w * scale for u, w in hist.weights.items()},
        universe_size=n_cols,
    )
    released = sparse_histogram(scaled, epsilon / 2, delta / 2, rng)
    dense = np.full(n_cols, released.background, dtype=float)
    for u, w in released.weights.items():
        dense[u] = w
    yhat = family.matrix.astype(float) @ dense / released.total
    return yhat, released


# --------------------------------------------------------------------------
# black-box reductions


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

    @property
    def name(self) -> str:
        return f"group-{self.p}x-{self.mech.name}"

    def __call__(self, ds: Dataset, rng=None) -> MechanismAnswer:
        p = self.p
        big = Dataset(
            batch=ds.batch.take(np.repeat(np.arange(ds.n), p)),
            points=np.repeat(ds.points, p, axis=0),
        )
        ans = self.mech(big, rng)
        eps, delta = ans.epsilon, ans.delta
        if p == 1 or math.isinf(eps):
            new_eps, new_delta = eps, delta
        elif eps == 0:
            new_eps, new_delta = 0.0, p * delta
        else:
            new_eps = p * eps
            new_delta = delta * math.expm1(p * eps) / math.expm1(eps)
        diags = dict(ans.diagnostics)
        diags["group_size"] = p
        return MechanismAnswer(
            estimate=ans.estimate,
            epsilon=new_eps,
            delta=new_delta,
            adjacency=ans.adjacency,
            diagnostics=diags,
        )


def group_shrink(ds: Dataset, p: int) -> Dataset:
    """Keep one representative per block of p points; remainder discarded."""
    if not isinstance(p, int) or p < 1:
        raise ValueError("group size p must be a positive integer")
    q = ds.n // p
    if q == 0:
        raise ValueError("dataset smaller than the group size")
    keep = slice(0, q * p, p)
    return Dataset(batch=ds.batch.take(keep), points=ds.points[keep].copy())


class PaddedMechanism:
    """Pads a dataset with copies of an anchor point before answering.

    On m real points, runs the base mechanism on n = k m points (the extra
    n - m are the anchor z) and returns (n/m) (q - ((n-m)/n) z), which
    undoes the padding exactly for mean answers.
    """

    def __init__(self, mech, k: int, anchor: PointBatch):
        if not isinstance(k, int) or k < 1:
            raise ValueError("pad factor k must be a positive integer")
        if len(anchor) != 1:
            raise ValueError("the anchor must be a one-point batch")
        self.mech = mech
        self.k = k
        self.anchor = anchor
        self._z = anchor.densify()[0]

    @property
    def name(self) -> str:
        return f"pad-{self.k}x-{self.mech.name}"

    def __call__(self, ds: Dataset, rng=None) -> MechanismAnswer:
        m = ds.n
        n = self.k * m
        pad = np.tile(self._z, (n - m, 1))
        big = Dataset(
            batch=ds.batch.concat(self.anchor.take(np.zeros(n - m, int))),
            points=np.vstack([ds.points, pad]) if n > m else ds.points.copy(),
        )
        ans = self.mech(big, rng)
        est = (n / m) * (ans.estimate - ((n - m) / n) * self._z)
        diags = dict(ans.diagnostics)
        diags["pad_factor"] = self.k
        return MechanismAnswer(
            estimate=est,
            epsilon=ans.epsilon,
            delta=ans.delta,
            adjacency=ans.adjacency,
            diagnostics=diags,
        )
