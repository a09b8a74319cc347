"""Mean-release mechanisms and private histogram release.

Dataset mechanisms take the (n, dim) float64 array of a dataset's points
and return their (dim,) estimate.
Histogram mechanisms operate on HistogramVector (nonnegative weights on
integer elements, with a fixed total mass) under L1 adjacency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import CapacityError
from .families import PointFamily, predicate_matrix


class EmpiricalMean:
    """Exact dataset mean; no privacy."""

    name = "exact-mean"

    def __call__(self, points: np.ndarray, rng=None) -> np.ndarray:
        return points.mean(axis=0)


class ClampedMean:
    """Dataset mean with each coordinate clamped to [-bound, bound]."""

    name = "clamped-mean"

    def __init__(self, bound: float = 0.5):
        if bound <= 0:
            raise ValueError("bound must be positive")
        self.bound = bound

    def __call__(self, points: np.ndarray, rng=None) -> np.ndarray:
        return np.clip(points.mean(axis=0), -self.bound, self.bound)


class GaussianMechanism:
    """Gaussian-noised mean calibrated for replace-one adjacency on points
    with entries in [-1, 1]: sigma = (2 sqrt(dim) / n) sqrt(2 ln(1.25/delta)) / eps."""

    name = "gaussian"

    def __init__(self, epsilon: float, delta: float):
        if epsilon <= 0 or not 0 < delta < 1:
            raise ValueError("need epsilon > 0 and delta in (0, 1)")
        self.epsilon = epsilon
        self.delta = delta

    def sigma(self, n: int, dim: int) -> float:
        sensitivity = 2.0 * math.sqrt(dim) / n
        return sensitivity * math.sqrt(2.0 * math.log(1.25 / self.delta)) / self.epsilon

    def __call__(self, points: np.ndarray,
                 rng: Optional[np.random.Generator] = None) -> np.ndarray:
        if rng is None:
            raise ValueError("gaussian mechanism needs an rng")
        n, dim = points.shape
        return points.mean(axis=0) + rng.normal(scale=self.sigma(n, dim),
                                                size=dim)


# --------------------------------------------------------------------------
# private sparse histograms


def trunc_laplace(u: np.ndarray, scale: float, bound: float) -> np.ndarray:
    """Laplace(0, scale) conditioned on [-bound, bound], by inverse CDF
    (Devroye 1986, II.2): one value per uniform in [0, 1) of ``u``, any shape.

    The sign is negative where u < 1/2; the fold w = 2u - [u >= 1/2], exact
    in float64, gives the magnitude -scale log1p(w expm1(-bound / scale)),
    capped at bound so that |x| <= bound holds whatever the rounding.
    """
    if scale <= 0 or bound <= 0:
        raise ValueError("need scale > 0 and bound > 0")
    upper = u >= 0.5
    w = 2.0 * u - upper
    mag = np.minimum(-scale * np.log1p(w * math.expm1(-bound / scale)), bound)
    return np.where(upper, mag, -mag)


@dataclass
class HistogramVector:
    """Nonnegative weights on distinct integer elements, plus a flat
    background on the rest of the universe.

    ``elements`` (s,) int64 ids and ``weights`` (s,) float64 stay in the
    caller's order, which is the order a release pairs them with its noise.
    A positive ``background`` needs a finite ``universe_size``; ``total``
    includes the background part.
    """

    elements: np.ndarray
    weights: np.ndarray
    universe_size: Optional[int] = None
    background: float = 0.0

    def __post_init__(self):
        ids = np.asarray(self.elements)
        self.weights = np.asarray(self.weights, dtype=float)
        if ids.ndim != 1 or self.weights.shape != ids.shape:
            raise ValueError("elements and weights must be 1-D of one length")
        if ids.dtype.kind not in "iu":
            raise ValueError("elements must be integer ids")
        self.elements = ids.astype(np.int64, copy=False)
        if len(set(ids.tolist())) < len(ids):
            raise ValueError("elements must be distinct")
        check_weights(self.weights, self.universe_size, self.background)

    @property
    def total(self) -> float:
        base = row_fsums(self.weights[None]).item()
        if self.universe_size is not None:
            base += self.background * (self.universe_size - len(self.weights))
        return base

    def linf_distance(self, other: "HistogramVector") -> float:
        """Sup-norm distance to a histogram over the same elements."""
        if not np.array_equal(self.elements, other.elements):
            raise ValueError("linf_distance needs equal elements")
        d = float(np.abs(self.weights - other.weights).max(initial=0.0))
        size = self.universe_size
        if size is None or size > len(self.elements):
            d = max(d, abs(self.background - other.background))
        return d


def check_weights(weights: np.ndarray, universe_size: Optional[int],
                  background: float = 0.0) -> None:
    """Raise ValueError unless weights (one histogram's, or one per row of
    a block) and the background make a valid HistogramVector in a universe
    of universe_size elements."""
    if not (weights >= 0).all():
        raise ValueError("weights must be nonnegative")
    if background < 0:
        raise ValueError("background must be nonnegative")
    if universe_size is None:
        if background > 0:
            raise ValueError("positive background needs a finite universe")
    elif universe_size < weights.shape[-1]:
        raise ValueError("universe smaller than the explicit support")


def noise_bound(epsilon: float, delta: float) -> float:
    """The truncation v = 5 ln(1/delta) / epsilon of a release's noise."""
    if epsilon <= 0 or not 0 < delta < 1:
        raise ValueError("need epsilon > 0 and delta in (0, 1)")
    return 5.0 * math.log(1.0 / delta) / epsilon


def row_fsums(block: np.ndarray) -> np.ndarray:
    """Exactly rounded sum of each row of a 2-D block: math.fsum's bits,
    exceptions included.

    A row x of n values splits exactly as x = q + r (ExtractVector; Rump,
    Ogita & Oishi 2008, SIAM J. Sci. Comput. 31(1), Lemma 3.3).  With u =
    2^-53, 2^b the least power of two >= max(n, 2), and sigma = 2^k >=
    2^b max|x|, q = (sigma + x) - sigma is a multiple of u sigma with
    |q| <= sigma / n, so every partial sum of q is a double and sum(q) is
    exact in any order.  |r| <= u sigma and every r is a multiple of g =
    ulp(least nonzero |x|), so sum(r) is exact in any order too when
    2^b u sigma <= 2^53 g.  The row's sum is then sum(q) + sum(r) exactly,
    and one IEEE addition rounds it to nearest, ties to even, as fsum does:
    the certified error bound is zero.  math.fsum sums the rows this does
    not settle: non-finite rows, rows with max|x| outside
    [2^-901, 2^(1019 - b)), and rows spanning more than about 2^53 / n^2
    in magnitude.
    """
    x = np.asarray(block, dtype=float)
    bits = max(x.shape[1] - 1, 1).bit_length()
    cols = np.ascontiguousarray(x.T)  # a row's values down a column
    # a nonnegative double's bits, read as an integer, order as its value
    mag = np.abs(cols).view(np.uint64)
    top = mag.max(axis=0, initial=0).view(float)
    least = ((mag - 1).min(axis=0, initial=np.iinfo(np.uint64).max)
             + 1).view(float)  # 0 - 1 wraps to the largest integer
    _, exp = np.frexp(top)  # top < 2^exp
    with np.errstate(over="ignore", invalid="ignore"):
        sigma = np.ldexp(1.0, exp + bits)
        q = (cols + sigma) - sigma
        out = q.sum(axis=0) + (cols - q).sum(axis=0)
    exact = np.isfinite(top) & (exp >= -900) & (exp + bits <= 1019) \
        & (np.ldexp(sigma, bits - 106) <= np.spacing(least))
    for i in np.flatnonzero(~exact).tolist():
        out[i] = math.fsum(x[i].tolist())
    return out


def _water_fill_surplus(values: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Lower each row uniformly (flooring at zero) until it sums to its
    entry of target.

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
    levels = (np.cumsum(u, axis=1) - target[:, None]) / np.arange(1, s + 1)
    rho = s - 1 - np.argmax((u >= levels)[:, ::-1], axis=1)
    pick = np.arange(rows)
    level = np.maximum(levels[pick, rho], 0.0)
    out = np.maximum(values - level[:, None], 0.0)
    top = np.argmax(out, axis=1)
    out[pick, top] = 0.0
    patch = target - row_fsums(out)
    if (patch < 0).any():
        raise AssertionError("water-fill residual patch went negative")
    out[pick, top] = patch
    return out


def release_rows(weights: np.ndarray, target, noise: np.ndarray,
                 extra: int) -> tuple:
    """Sparse histogram releases of the rows of weights, one per row of
    noise: the one engine behind sparse_histogram and batched releases.

    ``weights`` is (rows, s), or (s,) for one histogram released ``rows``
    times; ``target`` is each row's input mass (its fsum), as a (rows,)
    array or one float; ``noise`` is (rows, s) truncated-Laplace noise;
    ``extra`` counts the universe elements outside the support (0 for an
    unbounded universe).  Returns (block, background): the (rows, s)
    released weights, and each row's deficit level where extra > 0 (else
    zero), the background it spread over the extra elements.  Every row
    equals the release of its own weights under its own noise alone.
    """
    s = noise.shape[1]
    block = np.maximum(weights + noise, 0.0)
    current = row_fsums(block)
    target = np.broadcast_to(target, current.shape)
    surplus = current > target
    if surplus.any():
        block[surplus] = _water_fill_surplus(block[surplus], target[surplus])
    background = np.zeros(len(block))
    deficit = current < target
    if deficit.any():
        level = (target[deficit] - current[deficit]) / (s + extra)
        block[deficit] += level[:, None]
        background[deficit] = level if extra > 0 else 0.0
    return block, background


def sparse_histogram(
    hist: HistogramVector,
    epsilon: float,
    delta: float,
    rng: np.random.Generator,
) -> HistogramVector:
    """Release a histogram privately while preserving its exact total mass.

    Each explicitly represented element gets truncated-Laplace noise with
    scale 1/epsilon and truncation v = 5 ln(1/delta) / epsilon (trunc_laplace
    of one rng.random(support) call), is floored at zero, and the result
    is projected back to the input mass by water filling (release_rows).
    Elements outside the support never receive noise; a mass deficit is
    spread uniformly (over the whole universe when it is finite, via the
    background field).  With probability one the released vector satisfies
    ||out - hist||_inf <= 2v: per-element noise is at most v, the surplus
    water level c solves phi(c) = total with phi(v) <= total, and a deficit
    spreads at most (support * v) / support <= v per element.  The release
    lists hist's elements in hist's order, zeros included.
    """
    v = noise_bound(epsilon, delta)
    if hist.background != 0:
        raise ValueError("input histogram must have zero background")
    s = len(hist.weights)
    size = hist.universe_size
    noise = trunc_laplace(rng.random(s), 1.0 / epsilon, v)
    block, background = release_rows(hist.weights, hist.total, noise[None],
                                     0 if size is None else size - s)
    return HistogramVector(hist.elements, block[0], size, float(background[0]))


# --------------------------------------------------------------------------
# slice reconstruction and subspace projection

RECONSTRUCT_CAP = 12
RECONSTRUCT_ITERS = 400  # subgradient steps per slice reconstruction
# slack of the certified stop, in ulps of each row's largest |answer|
RECONSTRUCT_STOP_ULPS = 18


def complement_floor(answers: np.ndarray) -> np.ndarray:
    """Per-row lower bound max_j |a_j + a_{2^m-1-j}| / 2 on the Chebyshev fit.

    Rows j and 2^m-1-j of predicate_matrix(m) are complements, h and -h, so
    for every mu, |<mu,h> - a_h| + |<mu,-h> - a_{-h}| >= |a_h + a_{-h}|
    and max_h |<mu,h> - a_h| is at least half of the largest such sum.
    """
    return np.max(np.abs(answers + answers[:, ::-1]), axis=1) / 2


def reconstruct_slices_batch(
    answers: np.ndarray,
    alpha: float,
    m: int,
) -> np.ndarray:
    """Recover mean slices in [-1/m, 1/m]^m from noisy predicate answers.

    ``answers`` has one row of 2^m predicate answers per slice.  For each
    row, finds mu minimizing max_h |<mu, h> - answers_h| over the box, by
    projected subgradient descent from the least-squares warm start
    (predicate rows are orthogonal as columns, so the warm start is the
    unconstrained optimum of the squared residual).  All rows run at once
    and each ends at its best iterate.  A row stops moving once its worst
    violation is at most alpha, or once it is certified optimal: its best
    value is within tol of complement_floor, the weak-duality bound from
    the complement pairs (h, -h), where tol is RECONSTRUCT_STOP_ULPS ulps
    of the row's largest |answer|.  Answers affine in h, which is what
    compromised points give an exact analyst, stop at the warm start.
    """
    if m > RECONSTRUCT_CAP:
        raise CapacityError(
            f"reconstruct_slices_batch supports m <= {RECONSTRUCT_CAP}")
    h = predicate_matrix(m)
    answers = np.asarray(answers, dtype=float)
    if answers.ndim != 2 or answers.shape[1] != 2 ** m:
        raise ValueError(f"expected (slices, {2 ** m}) answers")
    box = 1.0 / m
    # np.clip's result, NaN included, without its wrapper's cost
    mu = np.minimum(np.maximum(answers @ h / 2 ** m, -box), box)
    best_f = np.max(np.abs(mu @ h.T - answers), axis=1)
    if not (best_f > alpha).any():
        return mu
    best_mu = mu.copy()
    tol = RECONSTRUCT_STOP_ULPS * np.finfo(float).eps \
        * np.max(np.abs(answers), axis=1)
    stop = np.maximum(alpha, complement_floor(answers) + tol)
    rows = np.arange(len(mu))
    for t in range(1, RECONSTRUCT_ITERS + 1):
        live = best_f > stop
        if not live.any():
            break
        resid = mu @ h.T - answers
        idx = np.argmax(np.abs(resid), axis=1)
        f = np.abs(resid[rows, idx])
        improved = f < best_f
        best_f = np.where(improved, f, best_f)
        best_mu[improved] = mu[improved]
        target = np.maximum(alpha, best_f - 0.5 * box / math.sqrt(t))
        step = np.where(live, np.maximum(f - target, 0.0) / m, 0.0)
        g = np.sign(resid[rows, idx])[:, None] * h[idx]
        mu = np.clip(mu - step[:, None] * g, -box, box)
    return best_mu


def project_to_H(w: np.ndarray, basis: np.ndarray, box_scale: float) -> tuple:
    """Project w onto {(s/k) sum_j lam_j u^j : lam in [-1,1]^k}.

    ``basis`` rows are the orthogonal +-1 vectors u^j.  Clipping the exact
    basis coefficients to [-1, 1] gives the exact L2 projection, which is
    within sqrt(k) of the optimal L1 movement.  ``w`` is one (k,) vector or
    a (k, cols) stack of them as columns; returns (projection, lam) of the
    same shape.
    """
    basis = np.asarray(basis, dtype=float)
    k = basis.shape[0]
    if basis.shape != (k, k):
        raise ValueError("basis must be square with rows u^j")
    if box_scale <= 0:
        raise ValueError("box_scale must be positive")
    w = np.asarray(w, dtype=float)
    if w.ndim not in (1, 2) or w.shape[0] != k:
        raise ValueError("w must be (k,) or (k, cols) for a (k, k) basis")
    lam = np.clip(basis @ w / box_scale, -1.0, 1.0)
    return (box_scale / k) * (basis.T @ lam), lam


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
    if ((hist.elements < 0) | (hist.elements >= n_cols)).any():
        raise ValueError(f"histogram elements must be column indices in "
                         f"[0, {n_cols})")
    scaled = HistogramVector(hist.elements, hist.weights * (n_req / hist.total),
                             universe_size=n_cols)
    released = sparse_histogram(scaled, epsilon / 2, delta / 2, rng)
    dense = np.full(n_cols, released.background)
    dense[released.elements] = released.weights
    yhat = family.matrix @ dense / released.total
    return yhat, released

