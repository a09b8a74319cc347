"""Theta-space samplers and the score-attack harness.

Oracles:
    - Sampler laws: chi-square angle uniformity, KS on the ball radius law,
      exact norm constraints, closed-form surface normals.
    - Constant mechanisms give identically zero scores.
    - Exact-mean separations are pre-registered two-sample statistics.
    - Trial scores against a per-point <x - tilt_mean_typed, answer> loop.
"""

import math

import numpy as np
import pytest
from scipy import stats

from tiltlab.attack import (
    ScoreReport,
    ThetaSampler,
    aggregate_separation,
    run_attack_trial,
    run_shifted_attack_trial,
    separation_statistic,
)
from tiltlab.families import make_family
from tiltlab.mechanisms import (
    EmpiricalMean,
    GaussianMechanism,
    MechanismAnswer,
)
from tiltlab.tilt import (
    tilt,
    tilt_cov,
    tilt_mean,
    tilt_mean_typed,
    tilt_sample_many,
)


class ConstantAnswer:
    """Data-independent answer; scores against it are pure noise."""

    name = "constant"

    def __init__(self, value):
        self.value = np.asarray(value, dtype=float)

    def __call__(self, ds, rng=None):
        return MechanismAnswer(
            estimate=self.value.copy(),
            epsilon=0.0,
            delta=0.0,
            adjacency="replace-one",
        )


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

    def test_surface_normals(self):
        rng = np.random.default_rng(4)
        sph = ThetaSampler(region="l2-sphere", dimension=6, radius=2.0)
        theta = sph.sample(rng)
        np.testing.assert_allclose(sph.normal(theta),
                                   theta / np.linalg.norm(theta), atol=0)
        l1 = ThetaSampler(region="l1-surface", dimension=6, radius=2.0)
        theta = l1.sample(rng)
        np.testing.assert_allclose(l1.normal(theta),
                                   np.sign(theta) / math.sqrt(6), atol=0)
        assert np.linalg.norm(l1.normal(theta)) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            ThetaSampler(region="l2-ball", dimension=6, radius=2.0).normal(theta)

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
        assert aggregate_separation(reports) > 5

    def test_gaussian_noise_shrinks_separation(self):
        d = 16
        fam = make_family("hypercube", d=d)
        sampler = ThetaSampler(region="l2-sphere", dimension=d,
                               radius=2 * math.sqrt(d))
        rng = np.random.default_rng(8)
        diffs = []
        ses = []
        for eps in [4.0, 1.0, 0.25]:  # sigma grows as eps falls
            mech = GaussianMechanism(epsilon=eps, delta=1e-6, clamp=True)
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
        mech = GaussianMechanism(epsilon=eps, delta=delta, clamp=True)
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


    @pytest.mark.parametrize("kind,shape", [
        ("hypercube", dict(d=16)),
        ("tensor", dict(m=2, k=4, d=5)),
    ])
    def test_scores_match_per_point_oracle(self, kind, shape):
        fam = make_family(kind, **shape)
        sampler = ThetaSampler("l2-sphere", fam.dim, 3.0)
        n, fresh = 6, 3000
        report = run_attack_trial(fam, sampler, EmpiricalMean(), n, fresh,
                                  np.random.default_rng(70))
        # replay the trial's rng order: theta, dataset, (mechanism), fresh
        rng = np.random.default_rng(70)
        dist = tilt(fam, sampler.sample(rng))
        in_pts = tilt_sample_many(dist, rng, n)
        fresh_pts = tilt_sample_many(dist, rng, fresh)

        def resolve(points, idx):
            # one dense point, built from the family definition
            if fam.kind == "hypercube":
                return points.v[idx].astype(float)
            i, j = divmod(int(points.types[idx]), fam.k)
            x = np.zeros((fam.m, fam.k, fam.d))
            x[i] = np.outer(fam.basis[j], points.v[idx])
            return x.reshape(fam.dim)

        def oracle(points):
            out = []
            for idx in range(len(points)):
                mu = tilt_mean_typed(dist, int(points.types[idx]))
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

            def __call__(self, ds, rng=None):
                mu = tilt_mean(self._dist)
                return MechanismAnswer(estimate=mu, epsilon=0.0, delta=0.0,
                                       adjacency="replace-one")

        mech = ShiftEcho()
        # bind the same tilt the harness will build, via the sampler seed
        theta = ThetaSampler(region="l2-sphere", dimension=12,
                             radius=2.0).sample(np.random.default_rng(11))
        mech._dist = tilt(fam, theta)
        report = run_shifted_attack_trial(fam, sampler, mech, n=6,
                                          rng=np.random.default_rng(11),
                                          fresh_count=6)
        assert np.max(np.abs(report.in_scores)) < 1e-12
        assert np.max(np.abs(report.fresh_scores)) < 1e-12

    def test_fresh_second_moment_quadratic_form(self):
        fam = make_family("matrix-columns", d=24, n_columns=100, seed=12)
        sampler = ThetaSampler(region="l2-sphere", dimension=24, radius=2.0)
        rng = np.random.default_rng(13)
        report = run_shifted_attack_trial(fam, sampler, EmpiricalMean(), n=20,
                                          rng=rng, fresh_count=30_000)
        w = report.answer - report.shift
        lam = report.diagnostics["lambda_max"]
        bound = lam * float(w @ w)
        second = float(np.mean(report.fresh_scores ** 2))
        assert second <= bound * 1.1
        # and the exact quadratic form is itself below the lambda_max bound
        dist = tilt(fam, report.theta)
        cov = tilt_cov(dist)
        assert w @ cov @ w <= bound * (1 + 1e-9)

    def test_exact_mean_random_queries_separate(self):
        d, n_cols = 64, 256
        fam = make_family("matrix-columns", d=d, n_columns=n_cols, seed=14)
        sampler = ThetaSampler(region="l2-sphere", dimension=d,
                               radius=2 * math.sqrt(math.log(n_cols)))
        rng = np.random.default_rng(15)
        reports = [
            run_shifted_attack_trial(fam, sampler, EmpiricalMean(), n=32,
                                     rng=rng, fresh_count=16)
            for _ in range(50)
        ]
        totals = [r.in_scores.sum() for r in reports]
        assert min(totals) >= 0  # sum of <x_j - mu, mean - mu> = n ||mean - mu||^2
        assert aggregate_separation(reports) > 5

    def test_requires_matrix_family(self):
        fam = make_family("hypercube", d=4)
        sampler = ThetaSampler(region="l2-sphere", dimension=4, radius=1.0)
        with pytest.raises(ValueError):
            run_shifted_attack_trial(fam, sampler, EmpiricalMean(), n=2,
                                     rng=np.random.default_rng(0))


class TestSeparationStatistic:
    def test_null_calibration(self):
        fam = make_family("hypercube", d=8)
        sampler = ThetaSampler(region="l2-sphere", dimension=8, radius=2.0)
        mech = ConstantAnswer(np.full(8, 0.25))
        rng = np.random.default_rng(16)
        stats_seen = [
            separation_statistic(
                run_attack_trial(fam, sampler, mech, n=20, fresh_count=20,
                                 rng=rng)
            )
            for _ in range(40)
        ]
        assert np.all(np.abs(stats_seen) < 4)

    def test_degenerate_variance_sentinel(self):
        fam = make_family("hypercube", d=6)
        sampler = ThetaSampler(region="l2-sphere", dimension=6, radius=1.0)
        report = run_attack_trial(
            fam, sampler, ConstantAnswer(np.zeros(6)), n=3, fresh_count=4,
            rng=np.random.default_rng(17),
        )
        assert math.isinf(separation_statistic(report))

    def test_needs_two_fresh_scores(self):
        report = ScoreReport(
            region="l2-sphere", n=1, mechanism="m", theta=np.zeros(2),
            answer=np.zeros(2), in_scores=np.array([1.0]),
            fresh_scores=np.array([0.5]), epsilon=0.0, delta=0.0,
        )
        with pytest.raises(ValueError):
            separation_statistic(report)
