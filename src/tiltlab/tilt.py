"""Exponential tilts of point families and the score/divergence toolkit.

A tilt D_theta reweights a family by Pr[x] proportional to exp(<theta, x>).
On the tensor family the tilt is type-conditioned: the type (i, j) is
uniform and only the v-bits are tilted.  Within a type the v-bits are
independent with Pr[v_c = +1] = e^{t_c} / (e^{t_c} + e^{-t_c}) where t is
the type's tilt block, so exact means are tanh(t) laws and never require
enumeration.  Matrix-columns tilts are one softmax over the columns.

score(x; q) = <x - mu_ref, q> measures the correlation between a point and a
mechanism answer; under a fresh draw its mean is exactly zero. The divergence
identity ties the sum of in-sample scores to the divergence of the mechanism's
expectation g(theta) = E[A(x^1..x^n)], and divergence_check verifies it
numerically with central finite differences against exact enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.special import expit

from .errors import CapacityError
from .families import ENUMERATION_CAP, PointBatch, PointFamily, \
    support_batch, support_matrix
from .mechanisms import Dataset

DATASET_PRODUCT_CAP = 10 ** 6


@dataclass
class TiltedDistribution:
    family: PointFamily
    theta: np.ndarray
    # per-type coordinate tilts: (n_types, d) for product families, else None
    type_tilts: Optional[np.ndarray] = None
    # log partition per type (product families) or None
    type_logz: Optional[np.ndarray] = None
    # log probability of each type
    type_logp: Optional[np.ndarray] = None
    # matrix-columns: softmax log-probabilities per column
    column_logp: Optional[np.ndarray] = None


def _log2cosh(t: np.ndarray) -> np.ndarray:
    return np.logaddexp(t, -t)


def tilt(family: PointFamily, theta) -> TiltedDistribution:
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (family.dim,):
        raise ValueError(f"theta must have shape ({family.dim},)")

    if family.kind == "matrix-columns":
        logits = family.matrix.T.astype(np.float64) @ theta
        logp = logits - _logsumexp(logits)
        return TiltedDistribution(family, theta, column_logp=logp)

    if family.kind == "hypercube":
        tilts = theta[None, :]
    else:
        # theta viewed as (m, k, d); the (i, j) type tilts the v-bits with
        # t_c = sum_b theta[i, b, c] * u_j[b]
        th = theta.reshape(family.m, family.k, family.d)
        tilts = np.einsum("ibc,jb->ijc", th, family.basis).reshape(-1, family.d)

    logz = _log2cosh(tilts).sum(axis=1)
    logp = np.full(len(logz), -np.log(len(logz)))
    return TiltedDistribution(
        family, theta, type_tilts=tilts, type_logz=logz, type_logp=logp
    )


def _logsumexp(x: np.ndarray) -> float:
    m = np.max(x)
    return float(m + np.log(np.exp(x - m).sum()))


def tilt_sample_many(dist: TiltedDistribution, rng: np.random.Generator,
                     count: int) -> PointBatch:
    """Draw count points; consumes rng as (types, then bits) for replay."""
    fam = dist.family
    if fam.kind == "matrix-columns":
        cols = rng.choice(fam.n_columns, size=count, p=np.exp(dist.column_logp))
        return PointBatch(fam, np.zeros(count, dtype=np.int64), cols=cols)
    # Pr[v_c = +1] per (type, coordinate); indexing the table gives the
    # same values as an expit over the indexed tilts
    table = expit(2.0 * dist.type_tilts)
    if len(table) == 1:
        types = np.zeros(count, dtype=np.int64)
        p_plus = table[0]
    else:
        types = rng.choice(len(table), size=count, p=np.exp(dist.type_logp))
        p_plus = table[types]
    v = sign_bits(rng.random((count, fam.d)) < p_plus)
    return PointBatch(fam, types, v=v)


def sign_bits(plus: np.ndarray) -> np.ndarray:
    """int8 +1 where ``plus`` is True, else -1: 2*b - 1 on the bool bytes,
    which numpy runs far faster than np.where with int8 scalars."""
    v = plus.view(np.int8) * np.int8(2)
    v -= 1
    return v


def tilt_mean(dist: TiltedDistribution) -> np.ndarray:
    """Exact mean of D_theta in closed form (tanh laws / softmax)."""
    fam = dist.family
    if fam.kind == "matrix-columns":
        return np.exp(dist.column_logp) @ fam.matrix.T.astype(np.float64)
    tanh = np.tanh(dist.type_tilts)
    p = np.exp(dist.type_logp)
    if fam.kind == "hypercube":
        return tanh[0]
    t3 = tanh.reshape(fam.m, fam.k, fam.d)
    p2 = p.reshape(fam.m, fam.k)
    mu = np.einsum("ij,jp,ijr->ipr", p2, fam.basis.astype(np.float64), t3)
    return mu.reshape(fam.dim)


def tilt_mean_typed(dist: TiltedDistribution, type_id: int) -> np.ndarray:
    """Dense conditional mean E[x | type]; for single-type families this is
    the mean itself."""
    fam = dist.family
    if fam.kind == "matrix-columns":
        return tilt_mean(dist)
    tanh = np.tanh(dist.type_tilts[type_id])
    if fam.kind == "hypercube":
        return tanh
    i, j = divmod(type_id, fam.k)
    out = np.zeros((fam.m, fam.k, fam.d))
    out[i] = np.outer(fam.basis[j], tanh)
    return out.reshape(fam.dim)


def tilt_cov(dist: TiltedDistribution) -> np.ndarray:
    """Exact covariance of D_theta; beyond the hypercube this enumerates
    the family, so it raises CapacityError past ENUMERATION_CAP points."""
    fam = dist.family
    if fam.kind == "hypercube":
        return np.diag(1.0 - np.tanh(dist.type_tilts[0]) ** 2)
    w = np.exp(log_weights(dist))
    mat = support_matrix(fam)
    mu = w @ mat
    centered = mat - mu
    return centered.T @ (centered * w[:, None])


def log_weights(dist: TiltedDistribution) -> np.ndarray:
    """Log-probability of every point in canonical enumeration order."""
    fam = dist.family
    if fam.size > ENUMERATION_CAP:
        raise CapacityError("log_weights requires an enumerable family")
    if fam.kind == "matrix-columns":
        return dist.column_logp.copy()
    n_types = dist.type_tilts.shape[0]
    bits = (np.arange(2 ** fam.d)[:, None] >> np.arange(fam.d)) & 1
    signs = (1 - 2 * bits).astype(np.float64)
    out = np.empty(fam.size)
    block = 2 ** fam.d
    for t in range(n_types):
        scores = signs @ dist.type_tilts[t]
        out[t * block : (t + 1) * block] = (
            dist.type_logp[t] - dist.type_logz[t] + scores
        )
    return out


def score(x: np.ndarray, q: np.ndarray, mu: np.ndarray) -> float:
    """<x - mu, q>."""
    return float((x - mu) @ q)


@dataclass
class DivergenceReport:
    lhs: float
    rhs: float
    abs_err: float
    n_datasets: int
    dim: int


def divergence_check(
    family: PointFamily,
    theta,
    mechanism: Callable,
    n: int,
    h: float = 1e-4,
) -> DivergenceReport:
    """Verify div g(theta) = E[sum_j score(x^j; A(x))] by exact enumeration.

    g(theta) = E_{x ~ D_theta^n}[A(x)]; the left side sums central finite
    differences of g_i in theta_i at step h, the right side is the exact
    expectation of the summed scores. The mechanism must be deterministic
    (pass an exactly averaged version of a randomized mechanism).
    """
    theta = np.asarray(theta, dtype=np.float64)
    if n < 1:
        raise ValueError("n must be positive")
    size = family.size
    if size ** n > DATASET_PRODUCT_CAP:
        raise CapacityError(
            f"|K|^n = {size ** n} exceeds the {DATASET_PRODUCT_CAP} dataset cap"
        )
    support = support_batch(family)
    mat = support.densify()
    dist0 = tilt(family, theta)

    tuples = np.indices((size,) * n).reshape(n, -1).T  # (size^n, n)
    outputs = np.empty((len(tuples), family.dim))
    for t, row in enumerate(tuples):
        result = mechanism(Dataset(batch=support.take(row), points=mat[row]))
        outputs[t] = result.estimate if hasattr(result, "estimate") else result

    def dataset_weights(dist):
        lw = log_weights(dist)
        return np.exp(lw[tuples].sum(axis=1))

    lhs = 0.0
    for i in range(family.dim):
        bump = np.zeros(family.dim)
        bump[i] = h
        w_hi = dataset_weights(tilt(family, theta + bump))
        w_lo = dataset_weights(tilt(family, theta - bump))
        lhs += float((w_hi - w_lo) @ outputs[:, i]) / (2.0 * h)

    typed_means = np.stack([tilt_mean_typed(dist0, t)
                            for t in range(family.n_types)])
    centered = mat - typed_means[support.types]
    summed = centered[tuples].sum(axis=1)  # (size^n, dim)
    w0 = dataset_weights(dist0)
    rhs = float(np.einsum("t,td,td->", w0, summed, outputs))

    return DivergenceReport(
        lhs=lhs, rhs=rhs, abs_err=abs(lhs - rhs), n_datasets=len(tuples), dim=family.dim
    )
