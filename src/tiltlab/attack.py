"""Score attacks against mean-release mechanisms.

A trial ties together a theta sampler, a tilted distribution, and a
mechanism: the harness draws theta, samples a dataset from the tilt, asks
the mechanism for its answer, and compares in-sample scores against scores
of fresh draws.  Fresh scores always have mean zero, so a positive
separation certifies that the answer leaks its inputs.

RNG order within a trial is fixed (theta, dataset, mechanism, fresh draws)
so a trial is replayable from its seed.  Fresh points are drawn and scored
tilt.SAMPLE_BLOCK rows at a time by tilt.tilt_map_blocks, on the stream of
one tilt_sample_many call, so memory does not grow with the fresh count;
past tilt.LANE_DRAWS uniforms the blocks are scored in lanes on every CPU,
with the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .families import PointFamily
from .mechanisms import Dataset
from .structure import tilt_weights, tilted_column_cov
from .tilt import SAMPLE_BLOCK, tilt, tilt_map_blocks, tilt_mean, \
    tilt_mean_typed, tilt_sample_many

_REGIONS = ("l2-sphere", "l2-ball", "l1-surface", "l1-ball")


@dataclass(frozen=True)
class ThetaSampler:
    """Uniform sampler over a norm sphere or ball of the given radius."""

    region: str
    dimension: int
    radius: float

    def __post_init__(self):
        if self.region not in _REGIONS:
            raise ValueError(f"region must be one of {_REGIONS}")
        if self.dimension < 1:
            raise ValueError("dimension must be at least 1")
        if self.radius <= 0:
            raise ValueError("radius must be positive")

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        dim, r = self.dimension, self.radius
        if self.region.startswith("l2"):
            g = rng.normal(size=dim)
            theta = g / np.linalg.norm(g) * r
        else:
            e = rng.exponential(size=dim)
            signs = np.where(rng.random(dim) < 0.5, 1.0, -1.0)
            theta = signs * e / e.sum() * r
        if self.region.endswith("ball"):
            theta = theta * rng.random() ** (1.0 / dim)
        return theta


@dataclass
class ScoreReport:
    region: str
    n: int
    mechanism: str
    theta: np.ndarray
    answer: np.ndarray
    in_scores: np.ndarray
    fresh_scores: np.ndarray
    epsilon: float
    delta: float
    shift: Optional[np.ndarray] = None
    diagnostics: dict = field(default_factory=dict)


def _type_shift(dist, types: np.ndarray, target: np.ndarray) -> np.ndarray:
    """<mu_t, target> at each point, mu_t the mean of its type t, computed
    once for each type that occurs."""
    shift = np.zeros(dist.family.n_types)
    for t in np.flatnonzero(np.bincount(types, minlength=len(shift))):
        shift[t] = tilt_mean_typed(dist, int(t)) @ target
    return shift[types]


def _fresh_scores(dist, rng, count: int, target: np.ndarray,
                  center=None) -> np.ndarray:
    """<x - c, target> over count fresh points, drawn and scored
    SAMPLE_BLOCK rows at a time; c is the center or, when it is None, the
    mean of the point's type."""
    def score(batch):
        x = batch.densify()
        return batch.types, (x if center is None else x - center) @ target

    types, scores = zip(*tilt_map_blocks(dist, rng, count, SAMPLE_BLOCK,
                                         score))
    scores = np.concatenate(scores)
    if center is None:
        scores -= _type_shift(dist, np.concatenate(types), target)
    return scores


def run_attack_trial(
    family: PointFamily,
    sampler: ThetaSampler,
    mechanism,
    n: int,
    fresh_count: int,
    rng: np.random.Generator,
) -> ScoreReport:
    """One score-attack trial: theta, dataset, answer, in/fresh scores."""
    if sampler.dimension != family.dim:
        raise ValueError("sampler dimension must match the family dimension")
    if n < 1:
        raise ValueError("need n >= 1")
    theta = sampler.sample(rng)
    dist = tilt(family, theta)
    batch = tilt_sample_many(dist, rng, n)
    ds = Dataset.from_refs(batch)
    ans = mechanism(ds, rng)
    answer = np.asarray(ans.estimate, dtype=float).reshape(-1)
    in_scores = ds.points @ answer - _type_shift(dist, batch.types, answer)
    fresh_scores = _fresh_scores(dist, rng, fresh_count, answer)
    return ScoreReport(
        region=sampler.region,
        n=n,
        mechanism=getattr(mechanism, "name", type(mechanism).__name__),
        theta=theta,
        answer=answer,
        in_scores=in_scores,
        fresh_scores=fresh_scores,
        epsilon=ans.epsilon,
        delta=ans.delta,
        diagnostics=dict(ans.diagnostics),
    )


def run_shifted_attack_trial(
    family: PointFamily,
    sampler: ThetaSampler,
    mechanism,
    n: int,
    rng: np.random.Generator,
    fresh_count: int = 1000,
) -> ScoreReport:
    """Score-attack trial with both sides recentered at the tilt mean.

    Scores are <x - mu_theta, A(x) - mu_theta>; the report also carries the
    top covariance eigenvalue so the fresh second moment can be checked
    against lambda_max ||A - mu_theta||^2.
    """
    if family.kind != "matrix-columns":
        raise ValueError("shifted attack needs a matrix-columns family")
    if sampler.dimension != family.dim:
        raise ValueError("sampler dimension must match the family dimension")
    if n < 1:
        raise ValueError("need n >= 1")
    theta = sampler.sample(rng)
    dist = tilt(family, theta)
    mu = tilt_mean(dist)
    ds = Dataset.from_refs(tilt_sample_many(dist, rng, n))
    ans = mechanism(ds, rng)
    answer = np.asarray(ans.estimate, dtype=float).reshape(-1)
    target = answer - mu
    in_scores = (ds.points - mu) @ target
    fresh_scores = _fresh_scores(dist, rng, fresh_count, target, mu)
    (weights,), (col_mean,) = tilt_weights(family.matrix, theta[None])
    cov = tilted_column_cov(family.matrix, weights, col_mean)
    lam = float(np.linalg.eigvalsh(cov)[-1])
    return ScoreReport(
        region=sampler.region,
        n=n,
        mechanism=getattr(mechanism, "name", type(mechanism).__name__),
        theta=theta,
        answer=answer,
        in_scores=in_scores,
        fresh_scores=fresh_scores,
        epsilon=ans.epsilon,
        delta=ans.delta,
        shift=mu,
        diagnostics={"lambda_max": lam, **ans.diagnostics},
    )


def separation(in_values, fresh_values) -> float:
    """Welch two-sample statistic (mean in - mean fresh) / stderr: per-trial
    scores of one report, or per-trial totals against fresh means across
    reports.  One in-sample value adds no variance term; +inf when the
    stderr is 0."""
    ins = np.asarray(in_values, dtype=float)
    fresh = np.asarray(fresh_values, dtype=float)
    if len(fresh) < 2:
        raise ValueError("need at least 2 fresh values")
    se2 = fresh.var(ddof=1) / len(fresh)
    if len(ins) >= 2:
        se2 += ins.var(ddof=1) / len(ins)
    if se2 == 0:
        return math.inf
    return float((ins.mean() - fresh.mean()) / math.sqrt(se2))
