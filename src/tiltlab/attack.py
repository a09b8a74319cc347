"""Score attacks against mean-release mechanisms.

A trial draws theta, samples a dataset from the tilt D_theta, asks the
mechanism for its answer A, and scores the in-sample points and fresh
draws with one statistic, the correlation <x - ref, A - ref'>.  The plain
attack takes ref = mu_t, the mean of the point's type t, and ref' = 0; the
recentered attack takes ref = ref' = mu_theta, the tilt mean.  Either way
fresh scores have mean zero, so a positive separation certifies that the
answer leaks its inputs.

RNG order within a trial is fixed (theta, dataset, mechanism, fresh draws)
so a trial is replayable from its seed.  Fresh points are drawn and scored
tilt.SAMPLE_BLOCK rows at a time by tilt.tilt_map_blocks, so memory does
not grow with the fresh count, and in lanes on every CPU past
tilt.LANE_DRAWS v-bits, with the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .families import PointFamily
from .tilt import SAMPLE_BLOCK, TiltedDistribution, tilt, tilt_map_blocks, \
    tilt_mean, tilt_sample_many, typed_means

REGIONS = ("l2-sphere", "l2-ball", "l1-surface", "l1-ball")
# scores this many ulps apart or closer are equal for separation: GEMV bits
# held in blocks of 64 to 4,096 rows, tails included, not in 1, 7 or 511
EQUAL_ULPS = 4


@dataclass(frozen=True)
class ThetaSampler:
    """Uniform sampler over a norm sphere or ball of the given radius."""

    region: str
    dimension: int
    radius: float

    def __post_init__(self):
        if self.region not in REGIONS:
            raise ValueError(f"region must be one of {REGIONS}")
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
    mechanism: str
    dist: TiltedDistribution  # the trial's tilt, theta included
    answer: np.ndarray
    in_scores: np.ndarray
    fresh_scores: np.ndarray
    # the tilt mean mu_theta when the trial is recentered, else None
    shift: Optional[np.ndarray] = None


def run_attack_trial(
    family: PointFamily,
    sampler: ThetaSampler,
    mechanism,
    n: int,
    fresh_count: int,
    rng: np.random.Generator,
    *,
    recenter: bool = False,
) -> ScoreReport:
    """One score-attack trial: theta, dataset, answer, in/fresh scores.

    A point x of type t scores <x, A> - <mu_t, A>; with recenter, it scores
    <x - mu_theta, A - mu_theta>.
    """
    if sampler.dimension != family.dim:
        raise ValueError("sampler dimension must match the family dimension")
    if n < 1:
        raise ValueError("need n >= 1")
    theta = sampler.sample(rng)
    dist = tilt(family, theta)
    batch = tilt_sample_many(dist, rng, n)
    points = batch.densify()
    answer = np.asarray(mechanism(points, rng), dtype=float).reshape(-1)
    mu = None
    if recenter:
        mu = tilt_mean(dist)
        target = answer - mu

        def score(x, types):
            return (x - mu) @ target
    else:
        shift = typed_means(dist) @ answer

        def score(x, types):
            return x @ answer - shift[types]

    fresh = tilt_map_blocks(dist, rng, fresh_count, SAMPLE_BLOCK,
                            lambda b: score(b.densify(), b.types))
    return ScoreReport(
        mechanism=getattr(mechanism, "name", type(mechanism).__name__),
        dist=dist,
        answer=answer,
        in_scores=score(points, batch.types),
        fresh_scores=np.concatenate(fresh),
        shift=mu,
    )


def separation(in_values, fresh_values) -> float:
    """Welch two-sample statistic (mean in - mean fresh) / stderr: per-trial
    scores of one report, or per-trial totals against fresh means across
    reports.  One in-sample value adds no variance term.

    Scores that differ only by rounding carry no signal: when the largest
    and smallest of all in-sample and fresh values are at most EQUAL_ULPS
    units in the last place (of the largest magnitude) apart, the answer
    is 0.0, whatever ulps the stderr and the difference of means hold.
    Otherwise a zero stderr gives inf with the sign of the difference."""
    ins = np.asarray(in_values, dtype=float)
    fresh = np.asarray(fresh_values, dtype=float)
    if len(fresh) < 2:
        raise ValueError("need at least 2 fresh values")
    lo, hi = min(ins.min(), fresh.min()), max(ins.max(), fresh.max())
    if hi - lo <= EQUAL_ULPS * np.spacing(max(-lo, hi)):
        return 0.0
    se2 = fresh.var(ddof=1) / len(fresh)
    if len(ins) >= 2:
        se2 += ins.var(ddof=1) / len(ins)
    diff = ins.mean() - fresh.mean()
    if se2 == 0:
        return math.copysign(math.inf, diff)
    return float(diff / math.sqrt(se2))
