"""Theta-space samplers and the score-attack harness.

Oracles:
    - Sampler laws: chi-square angle uniformity, KS on the ball radius law,
      exact norm constraints.
    - Constant mechanisms give identically zero scores.
    - Exact-mean separations are pre-registered two-sample statistics.
    - Trial scores against a per-point <x - typed_means[t], answer> loop.
    - Fresh scores streamed in blocks against one dense tilt_sample_many
      path, bitwise, rng state included; the peak memory of a large trial.
    - Recentered trials: exact-shift zeros, the lambda_max bound on the
      fresh second moment, fresh scores centered on any family.
"""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from tiltlab.attack import ThetaSampler, run_attack_trial, separation
from tiltlab.families import make_family
from tiltlab.mechanisms import EmpiricalMean, GaussianMechanism
from tiltlab.structure import tilt_weights, tilted_column_cov
from tiltlab.tilt import (
    SAMPLE_BLOCK,
    tilt,
    tilt_mean,
    tilt_sample_many,
    typed_means,
)

from tilt_enumeration import brute_cov


class ConstantAnswer:
    """Data-independent answer; scores against it are pure noise."""

    name = "constant"

    def __init__(self, value):
        self.value = np.asarray(value, dtype=float)

    def __call__(self, points, rng=None):
        return self.value.copy()


class ClippedGaussian:
    """GaussianMechanism with its estimate clipped to the point box [-1, 1]."""

    def __init__(self, epsilon, delta):
        self.inner = GaussianMechanism(epsilon=epsilon, delta=delta)

    def __call__(self, points, rng=None):
        return np.clip(self.inner(points, rng), -1.0, 1.0)


class TestThetaSampler:
    def test_norm_constraints(self):
        rng = np.random.default_rng(0)
        for region, check in [
            ("l2-sphere", lambda t: abs(np.linalg.norm(t) - 2.5) <= 1e-9),
            ("l2-ball", lambda t: np.linalg.norm(t) <= 2.5 + 1e-9),
            ("l1-surface", lambda t: abs(np.abs(t).sum() - 2.5) <= 1e-9),
            ("l1-ball", lambda t: np.abs(t).sum() <= 2.5 + 1e-9),
        ]:
            sampler = ThetaSampler(region=region, dimension=7, radius=2.5)
            for _ in range(200):
                assert check(sampler.sample(rng)), region

    def test_sphere_angle_uniform(self):
        rng = np.random.default_rng(1)
        sampler = ThetaSampler(region="l2-sphere", dimension=2, radius=1.0)
        draws = np.array([sampler.sample(rng) for _ in range(100_000)])
        angles = np.arctan2(draws[:, 1], draws[:, 0])
        counts, _ = np.histogram(angles, bins=16, range=(-math.pi, math.pi))
        _, pvalue = stats.chisquare(counts)
        assert pvalue > 1e-3

    def test_ball_radius_law(self):
        # ||theta|| / R should follow U^(1/dim)
        rng = np.random.default_rng(2)
        dim, radius = 5, 2.0
        sampler = ThetaSampler(region="l2-ball", dimension=dim, radius=radius)
        radii = np.array(
            [np.linalg.norm(sampler.sample(rng)) for _ in range(20_000)]
        )
        u = (radii / radius) ** dim
        assert stats.kstest(u, "uniform").pvalue > 1e-3

    def test_dim_one_sphere_sign_flip(self):
        rng = np.random.default_rng(3)
        sampler = ThetaSampler(region="l2-sphere", dimension=1, radius=3.0)
        draws = np.array([sampler.sample(rng)[0] for _ in range(4000)])
        assert set(np.unique(draws)) == {-3.0, 3.0}
        assert abs((draws > 0).mean() - 0.5) < 0.05

    def test_rejects_bad_region(self):
        with pytest.raises(ValueError):
            ThetaSampler(region="l3-sphere", dimension=2, radius=1.0)
        with pytest.raises(ValueError):
            ThetaSampler(region="l2-sphere", dimension=0, radius=1.0)


class TestRunAttackTrial:
    def test_constant_zero_mechanism_gives_zero_scores(self):
        fam = make_family("hypercube", d=8)
        sampler = ThetaSampler(region="l2-sphere", dimension=8, radius=3.0)
        report = run_attack_trial(
            fam, sampler, ConstantAnswer(np.zeros(8)), n=5, fresh_count=5,
            rng=np.random.default_rng(5),
        )
        assert np.all(report.in_scores == 0)
        assert np.all(report.fresh_scores == 0)

    def test_fresh_scores_center_on_zero(self):
        fam = make_family("hypercube", d=16)
        sampler = ThetaSampler(region="l2-sphere", dimension=16, radius=4.0)
        rng = np.random.default_rng(6)
        pool = []
        for _ in range(50):
            report = run_attack_trial(fam, sampler, EmpiricalMean(), n=8,
                                      fresh_count=40, rng=rng)
            pool.extend(report.fresh_scores)
        pool = np.array(pool)
        se = pool.std(ddof=1) / math.sqrt(len(pool))
        assert abs(pool.mean()) <= 4 * se

    def test_exact_mean_hypercube_separates(self):
        d = 64
        fam = make_family("hypercube", d=d)
        sampler = ThetaSampler(region="l2-sphere", dimension=d,
                               radius=5 * math.sqrt(d))
        rng = np.random.default_rng(7)
        reports = [
            run_attack_trial(fam, sampler, EmpiricalMean(), n=4,
                             fresh_count=16, rng=rng)
            for _ in range(200)
        ]
        assert separation(
            [r.in_scores.sum() for r in reports],
            [r.fresh_scores.mean() for r in reports]) > 5

    def test_gaussian_noise_shrinks_separation(self):
        d = 16
        fam = make_family("hypercube", d=d)
        sampler = ThetaSampler(region="l2-sphere", dimension=d,
                               radius=2 * math.sqrt(d))
        rng = np.random.default_rng(8)
        diffs = []
        ses = []
        for eps in [4.0, 1.0, 0.25]:  # sigma grows as eps falls
            mech = ClippedGaussian(epsilon=eps, delta=1e-6)
            gaps = []
            for _ in range(150):
                rep = run_attack_trial(fam, sampler, mech, n=16,
                                       fresh_count=16, rng=rng)
                gaps.append(rep.in_scores.mean() - rep.fresh_scores.mean())
            gaps = np.array(gaps)
            diffs.append(gaps.mean())
            ses.append(gaps.std(ddof=1) / math.sqrt(len(gaps)))
        assert diffs[0] > diffs[1] - 2 * (ses[0] + ses[1])
        assert diffs[1] > diffs[2] - 2 * (ses[1] + ses[2])

    def test_small_epsilon_indistinguishability_bound(self):
        # per-point mean in-sample score stays within the
        # (e^eps - 1) E|fresh| + delta B corridor of the fresh mean
        d = 16
        fam = make_family("hypercube", d=d)
        sampler = ThetaSampler(region="l2-sphere", dimension=d,
                               radius=2 * math.sqrt(d))
        eps, delta = 0.1, 1e-6
        mech = ClippedGaussian(epsilon=eps, delta=delta)
        rng = np.random.default_rng(9)
        ins, fresh = [], []
        for _ in range(200):
            rep = run_attack_trial(fam, sampler, mech, n=32, fresh_count=32,
                                   rng=rng)
            ins.extend(rep.in_scores)
            fresh.extend(rep.fresh_scores)
        ins, fresh = np.array(ins), np.array(fresh)
        slack = (math.expm1(eps) * np.abs(fresh).mean()
                 + delta * 2 * d)
        pooled_se = math.sqrt(ins.var(ddof=1) / len(ins)
                              + fresh.var(ddof=1) / len(fresh))
        assert ins.mean() <= fresh.mean() + slack + 4 * pooled_se


    @pytest.mark.parametrize("kind,shape,fresh", [
        pytest.param("hypercube", dict(d=16), 3000, id="hypercube-shape0"),
        pytest.param("tensor", dict(m=2, k=4, d=5), 3000, id="tensor-shape1"),
        pytest.param("tensor", dict(m=2, k=4, d=5), 2 * SAMPLE_BLOCK + 5,
                     id="tensor-multiblock"),
    ])
    def test_scores_match_per_point_oracle(self, kind, shape, fresh):
        fam = make_family(kind, **shape)
        sampler = ThetaSampler("l2-sphere", fam.dim, 3.0)
        n = 6
        report = run_attack_trial(fam, sampler, EmpiricalMean(), n, fresh,
                                  np.random.default_rng(70))
        # replay the trial's rng order: theta, dataset, (mechanism), fresh
        rng = np.random.default_rng(70)
        dist = tilt(fam, sampler.sample(rng))
        in_pts = tilt_sample_many(dist, rng, n)
        fresh_pts = tilt_sample_many(dist, rng, fresh)

        def resolve(points, idx):
            # one dense point, built from the family definition
            i, j = divmod(int(points.types[idx]), fam.k)
            x = np.zeros((fam.m, fam.k, fam.d))
            x[i] = np.outer(fam.basis[j], points.v[idx])
            return x.reshape(fam.dim)

        def oracle(points):
            out = []
            for idx in range(len(points)):
                mu = typed_means(dist)[int(points.types[idx])]
                out.append((resolve(points, idx) - mu) @ report.answer)
            return np.array(out)

        for got, points in ((report.in_scores, in_pts),
                            (report.fresh_scores, fresh_pts)):
            want = oracle(points)
            np.testing.assert_allclose(
                got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


class TestShiftedAttack:
    def test_exact_shift_gives_zero_scores(self):
        fam = make_family("matrix-columns", d=12, n_columns=40, seed=10)
        sampler = ThetaSampler(region="l2-sphere", dimension=12, radius=2.0)
        rng = np.random.default_rng(11)

        class ShiftEcho:
            name = "shift-echo"

            def __call__(self, points, rng=None):
                return tilt_mean(self._dist)

        mech = ShiftEcho()
        # bind the same tilt the harness will build, via the sampler seed
        theta = ThetaSampler(region="l2-sphere", dimension=12,
                             radius=2.0).sample(np.random.default_rng(11))
        mech._dist = tilt(fam, theta)
        report = run_attack_trial(fam, sampler, mech, n=6, fresh_count=6,
                                  rng=np.random.default_rng(11),
                                  recenter=True)
        assert np.max(np.abs(report.in_scores)) < 1e-12
        assert np.max(np.abs(report.fresh_scores)) < 1e-12

    def test_fresh_second_moment_quadratic_form(self):
        fam = make_family("matrix-columns", d=24, n_columns=100, seed=12)
        sampler = ThetaSampler(region="l2-sphere", dimension=24, radius=2.0)
        rng = np.random.default_rng(13)
        report = run_attack_trial(fam, sampler, EmpiricalMean(), n=20,
                                  fresh_count=30_000, rng=rng, recenter=True)
        w = report.answer - report.shift
        (p,), (col_mean,) = tilt_weights(fam.matrix,
                                         report.dist.theta[None])
        lam = np.linalg.eigvalsh(
            tilted_column_cov(fam.matrix, p, col_mean))[-1]
        bound = lam * float(w @ w)
        second = float(np.mean(report.fresh_scores ** 2))
        assert second <= bound * 1.1
        # and the exact quadratic form is itself below the lambda_max bound
        cov = brute_cov(fam, report.dist.theta)
        assert w @ cov @ w <= bound * (1 + 1e-9)

    def test_exact_mean_random_queries_separate(self):
        d, n_cols = 64, 256
        fam = make_family("matrix-columns", d=d, n_columns=n_cols, seed=14)
        sampler = ThetaSampler(region="l2-sphere", dimension=d,
                               radius=2 * math.sqrt(math.log(n_cols)))
        rng = np.random.default_rng(15)
        reports = [
            run_attack_trial(fam, sampler, EmpiricalMean(), n=32,
                             fresh_count=16, rng=rng, recenter=True)
            for _ in range(50)
        ]
        totals = [r.in_scores.sum() for r in reports]
        assert min(totals) >= 0  # sum of <x_j - mu, mean - mu> = n ||mean - mu||^2
        assert separation(
            [r.in_scores.sum() for r in reports],
            [r.fresh_scores.mean() for r in reports]) > 5

    def test_tensor_family_recentered_fresh_centers_on_zero(self):
        # recentering needs only the tilt mean, which every family has
        fam = make_family("tensor", m=2, k=4, d=5)
        sampler = ThetaSampler(region="l2-sphere", dimension=fam.dim,
                               radius=3.0)
        report = run_attack_trial(fam, sampler, EmpiricalMean(), n=8,
                                  fresh_count=20_000,
                                  rng=np.random.default_rng(18),
                                  recenter=True)
        fresh = report.fresh_scores
        se = fresh.std(ddof=1) / math.sqrt(len(fresh))
        assert se > 0
        assert abs(fresh.mean()) <= 6 * se


# three full fresh blocks and a ragged fourth
MULTI_BLOCK = 3 * SAMPLE_BLOCK + 17

BLOCK_FAMILIES = {
    "hypercube": dict(kind="hypercube", d=16),
    "tensor": dict(kind="tensor", m=2, k=4, d=5),
    "matrix-columns": dict(kind="matrix-columns", d=12, n_columns=40,
                           seed=10),
}


class TestFreshBlocks:
    """Fresh scores are streamed SAMPLE_BLOCK rows at a time; past one block
    they must still be the bits of one dense draw, scored in one product."""

    @staticmethod
    def _replay(fam, sampler, n, seed):
        # the trial's rng order with every fresh point drawn at once:
        # theta, dataset, mechanism, fresh points
        rng = np.random.default_rng(seed)
        dist = tilt(fam, sampler.sample(rng))
        in_pts = tilt_sample_many(dist, rng, n)
        answer = EmpiricalMean()(in_pts.densify(), rng)
        fresh_pts = tilt_sample_many(dist, rng, MULTI_BLOCK)
        return rng, dist, answer, in_pts, fresh_pts

    @pytest.mark.parametrize("name", sorted(BLOCK_FAMILIES))
    def test_plain_attack_matches_dense_path(self, name):
        fam = make_family(**BLOCK_FAMILIES[name])
        sampler = ThetaSampler("l2-sphere", fam.dim, 3.0)
        rng = np.random.default_rng(71)
        report = run_attack_trial(fam, sampler, EmpiricalMean(), 6,
                                  MULTI_BLOCK, rng)
        ref_rng, dist, answer, in_pts, fresh_pts = self._replay(
            fam, sampler, 6, 71)
        shift = typed_means(dist) @ answer
        for got, pts in ((report.in_scores, in_pts),
                         (report.fresh_scores, fresh_pts)):
            want = pts.densify() @ answer - shift[pts.types]
            assert np.array_equal(got, want)
        assert np.array_equal(rng.random(3), ref_rng.random(3))

    def test_shifted_attack_matches_dense_path(self):
        fam = make_family(**BLOCK_FAMILIES["matrix-columns"])
        sampler = ThetaSampler("l2-sphere", fam.dim, 2.0)
        rng = np.random.default_rng(73)
        report = run_attack_trial(fam, sampler, EmpiricalMean(), 6,
                                  MULTI_BLOCK, rng, recenter=True)
        ref_rng, dist, answer, in_pts, fresh_pts = self._replay(
            fam, sampler, 6, 73)
        mu = tilt_mean(dist)
        for got, pts in ((report.in_scores, in_pts),
                         (report.fresh_scores, fresh_pts)):
            assert np.array_equal(got, (pts.densify() - mu) @ (answer - mu))
        assert np.array_equal(rng.random(3), ref_rng.random(3))

    def test_peak_memory_does_not_grow_with_fresh(self):
        # one dense copy of 1e5 fresh points at d = 64 is 51 MB, and the
        # dense path peaked at 57 MiB; streamed, the trial peaks near 6 MiB
        fam = make_family("hypercube", d=64)
        sampler = ThetaSampler("l2-sphere", 64, 40.0)
        tracemalloc.start()
        try:
            run_attack_trial(fam, sampler, EmpiricalMean(), 8, 100_000,
                             np.random.default_rng(74))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20


class TestSeparationStatistic:
    def test_null_calibration(self):
        fam = make_family("hypercube", d=8)
        sampler = ThetaSampler(region="l2-sphere", dimension=8, radius=2.0)
        mech = ConstantAnswer(np.full(8, 0.25))
        rng = np.random.default_rng(16)
        reports = [
            run_attack_trial(fam, sampler, mech, n=20, fresh_count=20,
                             rng=rng)
            for _ in range(40)
        ]
        stats_seen = [separation(r.in_scores, r.fresh_scores)
                      for r in reports]
        assert np.all(np.abs(stats_seen) < 4)

    def test_degenerate_variance_sentinel(self):
        # all-zero scores do not vary at all: the stated answer is 0.0
        fam = make_family("hypercube", d=6)
        sampler = ThetaSampler(region="l2-sphere", dimension=6, radius=1.0)
        report = run_attack_trial(
            fam, sampler, ConstantAnswer(np.zeros(6)), n=3, fresh_count=4,
            rng=np.random.default_rng(17),
        )
        assert separation(report.in_scores, report.fresh_scores) == 0.0

    @pytest.mark.parametrize("value", [0.0017886061, -3.25, 1e300, 0.0])
    def test_scores_equal_up_to_rounding(self, value):
        # one score rounded up to two ulps either way, as GEMVs over blocks
        # of different sizes give it: whatever the ulps, no separation
        def ulps(k):
            x = value
            for _ in range(abs(k)):
                x = np.nextafter(x, math.copysign(math.inf, k))
            return x

        assert separation([ulps(1)] * 2, [value] * 100) == 0.0
        assert separation([value], [ulps(-1)] * 100) == 0.0
        rng = np.random.default_rng(23)
        for _ in range(20):
            steps = rng.integers(-2, 3, size=102)
            steps[:2] = -2, 2  # the widest spread allowed
            rng.shuffle(steps)
            values = [ulps(int(k)) for k in steps]
            assert separation(values[:2], values[2:]) == 0.0

    def test_zero_spread_keeps_the_sign(self):
        # constant scores that differ by more than rounding
        assert separation([1.0, 1.0], [0.0, 0.0, 0.0]) == math.inf
        assert separation([-1.0], [0.0, 0.0]) == -math.inf
        assert separation([1.0], [1.0 + 1e-12, 1.0 + 1e-12]) == -math.inf
        # five ulps apart is more than rounding
        far = 1.0 + 5 * np.spacing(1.0)
        assert separation([far, far], [1.0, 1.0]) == math.inf

    def test_needs_two_fresh_scores(self):
        with pytest.raises(ValueError, match="2 fresh values"):
            separation(np.array([1.0]), np.array([0.5]))
        with pytest.raises(ValueError, match="2 fresh values"):
            separation([1.0, 2.0, 3.0], [0.5])

    def test_welch_terms(self):
        # fresh [0, 2]: mean 1, sample variance 2; one in-sample value adds
        # no variance term, two add theirs: in [3, 5] has variance 2 too
        assert separation([3.0], [0.0, 2.0]) == 2.0
        assert separation([3.0, 5.0], [0.0, 2.0]) == 3.0 / math.sqrt(2.0)
