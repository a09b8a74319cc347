"""Score attacks against mean-release mechanisms.

A trial ties together a theta sampler, a tilted distribution, and a
mechanism: the harness draws theta, samples a dataset from the tilt, asks
the mechanism for its answer, and compares in-sample scores against scores
of fresh draws.  Fresh scores always have mean zero, so a positive
separation certifies that the answer leaks its inputs.

RNG order within a trial is fixed (theta, dataset, mechanism, fresh draws)
so a trial is replayable from its seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .families import PointFamily
from .mechanisms import Dataset
from .tilt import tilt, tilt_cov, tilt_mean, tilt_mean_typed, tilt_sample_many

_REGIONS = ("l2-sphere", "l2-ball", "l1-surface", "l1-ball")
_SURFACES = ("l2-sphere", "l1-surface")


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

    def normal(self, theta: np.ndarray) -> np.ndarray:
        """Outward unit normal of the surface at theta."""
        if self.region not in _SURFACES:
            raise ValueError("normals are defined only on surface regions")
        theta = np.asarray(theta, dtype=float)
        if self.region == "l2-sphere":
            return theta / np.linalg.norm(theta)
        return np.sign(theta) / math.sqrt(self.dimension)


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


def _scores_against(dist, ds: Dataset, target: np.ndarray) -> np.ndarray:
    """Per-point <x - mu_ref, target>, mu_ref the mean of the point's type,
    as <x, target> - <mu_ref, target> so no centered copy is built."""
    types = ds.batch.types
    shift_score = np.zeros(dist.family.n_types)
    for t in np.unique(types):
        shift_score[t] = tilt_mean_typed(dist, int(t)) @ target
    return ds.points @ target - shift_score[types]


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
    ds = Dataset.from_refs(tilt_sample_many(dist, rng, n))
    ans = mechanism(ds, rng)
    answer = np.asarray(ans.estimate, dtype=float).reshape(-1)
    in_scores = _scores_against(dist, ds, answer)
    fresh = Dataset.from_refs(tilt_sample_many(dist, rng, fresh_count))
    fresh_scores = _scores_against(dist, fresh, answer)
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
    fresh = Dataset.from_refs(tilt_sample_many(dist, rng, fresh_count))
    fresh_scores = (fresh.points - mu) @ target
    lam = float(np.linalg.eigvalsh(tilt_cov(dist))[-1])
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


def separation_statistic(report: ScoreReport) -> float:
    """(mean in-sample - mean fresh) / pooled stderr; +inf when degenerate."""
    fresh = report.fresh_scores
    ins = report.in_scores
    if len(fresh) < 2:
        raise ValueError("need at least 2 fresh scores")
    se2 = fresh.var(ddof=1) / len(fresh)
    if len(ins) >= 2:
        se2 += ins.var(ddof=1) / len(ins)
    if se2 == 0:
        return math.inf
    return float((ins.mean() - fresh.mean()) / math.sqrt(se2))


def aggregate_separation(reports) -> float:
    """Two-sample statistic of per-trial total in-sample score against
    per-trial mean fresh score; +inf when both sides are constant."""
    return separation_of_totals([r.in_scores.sum() for r in reports],
                                [r.fresh_scores.mean() for r in reports])


def separation_of_totals(totals, fresh_means) -> float:
    """aggregate_separation from the per-trial in-sample totals and fresh
    score means, as the attack-hypercube CSV rows record them."""
    totals = np.asarray(totals, dtype=float)
    fresh = np.asarray(fresh_means, dtype=float)
    if len(totals) < 2:
        raise ValueError("need at least 2 reports")
    se2 = totals.var(ddof=1) / len(totals) + fresh.var(ddof=1) / len(fresh)
    if se2 == 0:
        return math.inf
    return float((totals.mean() - fresh.mean()) / math.sqrt(se2))
