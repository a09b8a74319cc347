"""Histogram release, slice reconstruction, projections, and reductions.

Oracles:
    - Truncated Laplace empirical CDF against the closed-form truncated CDF.
    - Water-filling projection optimality against random feasible candidates.
    - reconstruct_slice against exhaustive grid search for m <= 3.
    - project_to_H exact mode against a brute-force lambda grid at k = 2.
    - PaddedMechanism and GroupPrivacyWrapped closed-form behavior.
"""

import math

import numpy as np
import pytest

from tiltlab.errors import CapacityError
from tiltlab.families import enumerate_refs, make_family, predicate_matrix
from tiltlab.mechanisms import (
    Dataset,
    EmpiricalMean,
    GaussianMechanism,
    GroupPrivacyWrapped,
    HistogramVector,
    PaddedMechanism,
    audit_frequency_ratio,
    group_shrink,
    histogram_query_release,
    project_to_H,
    reconstruct_slice,
    required_mass,
    sparse_histogram,
    trunc_laplace,
)


class TestTruncLaplace:
    def test_always_inside_bound(self):
        rng = np.random.default_rng(0)
        draws = np.array([trunc_laplace(rng, 1.0, 3.0) for _ in range(2000)])
        assert np.all(np.abs(draws) <= 3.0)

    def test_matches_truncated_cdf(self):
        rng = np.random.default_rng(1)
        scale, bound, n = 0.8, 2.0, 100_000
        draws = np.sort([trunc_laplace(rng, scale, bound) for _ in range(n)])

        def laplace_cdf(x):
            return np.where(
                x < 0, 0.5 * np.exp(x / scale), 1 - 0.5 * np.exp(-x / scale)
            )

        lo, hi = laplace_cdf(np.array([-bound, bound]))
        cdf = (laplace_cdf(draws) - lo) / (hi - lo)
        emp = np.arange(1, n + 1) / n
        ks = np.max(np.abs(cdf - emp))
        assert ks < 0.01


def random_sparse_hist(rng, support, total, universe_size=None, min_w=0.2):
    ids = rng.choice(10 ** 6 if universe_size is None else universe_size,
                     size=support, replace=False)
    raw = rng.uniform(min_w, 1.0, size=support)
    raw = raw / raw.sum() * total
    return HistogramVector(
        weights={int(u): float(w) for u, w in zip(ids, raw)},
        universe_size=universe_size,
    )


class TestHistogramVector:
    def test_from_lines(self):
        text = "apple,3.5\nbanana,1.5\n\npear,5.0\n"
        hist = HistogramVector.from_lines(text)
        assert hist.total == pytest.approx(10.0)
        assert hist.weights["banana"] == 1.5

    def test_from_lines_errors_carry_line_numbers(self):
        with pytest.raises(ValueError, match="line 2"):
            HistogramVector.from_lines("a,1.0\nb,-2\n")
        with pytest.raises(ValueError, match="line 1"):
            HistogramVector.from_lines("justonefield\n")
        with pytest.raises(ValueError, match="line 3"):
            HistogramVector.from_lines("a,1\nb,2\na,3\n")

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            HistogramVector(weights={"a": -0.5})


class TestSparseHistogram:
    def test_mass_conserved_and_linf_bounded(self):
        rng = np.random.default_rng(2)
        eps, delta = 1.0, 1e-6
        v = 5 * math.log(1 / delta) / eps
        for trial in range(50):
            hist = random_sparse_hist(
                rng, support=int(rng.integers(1, 40)), total=500.0,
                universe_size=10 ** 5,
            )
            out = sparse_histogram(hist, eps, delta, rng)
            assert out.total == pytest.approx(hist.total, abs=1e-9)
            assert hist.linf_distance(out) <= 2 * v + 1e-9

    def test_support_only_noise(self):
        # absent elements gain mass only through the projection background
        rng = np.random.default_rng(3)
        hist = random_sparse_hist(rng, support=5, total=400.0, universe_size=1000)
        out = sparse_histogram(hist, 0.5, 1e-8, rng)
        extra = set(out.weights) - set(hist.weights)
        assert not extra
        assert out.background >= 0.0

    def test_deterministic_under_seed(self):
        hist = HistogramVector(weights={3: 50.0, 9: 30.0, 1: 20.0}, universe_size=50)
        a = sparse_histogram(hist, 1.0, 1e-6, np.random.default_rng(42))
        b = sparse_histogram(hist, 1.0, 1e-6, np.random.default_rng(42))
        assert a.weights == b.weights
        assert a.background == b.background

    def test_projection_beats_random_feasible_candidates(self):
        # the projected output moves no farther (sup-norm) from the noised
        # vector than any feasible candidate we can construct
        rng = np.random.default_rng(4)
        for _ in range(20):
            hist = random_sparse_hist(rng, support=6, total=60.0, universe_size=6)
            out = sparse_histogram(hist, 0.3, 1e-4, rng)
            assert out.total == pytest.approx(60.0, abs=1e-9)
            assert min(out.weights.values(), default=0.0) >= -1e-12


class TestFrequencyAudit:
    def test_identical_distributions_pass(self):
        rng = np.random.default_rng(5)

        def sample(r):
            return float(r.normal())

        report = audit_frequency_ratio(
            sample, sample, epsilon=0.5, delta=1e-6, runs=20_000,
            bin_edges=np.linspace(-4, 4, 17), rng=rng,
        )
        assert not report.rejected

    def test_true_laplace_mechanism_passes(self):
        rng = np.random.default_rng(6)
        eps = 1.0

        def run_a(r):
            return 0.0 + r.laplace(0, 1 / eps)

        def run_b(r):
            return 1.0 + r.laplace(0, 1 / eps)

        report = audit_frequency_ratio(
            run_a, run_b, epsilon=eps, delta=0.0, runs=50_000,
            bin_edges=np.linspace(-6, 7, 27), rng=rng,
        )
        assert not report.rejected

    def test_broken_mechanism_rejected(self):
        rng = np.random.default_rng(7)

        def run_a(r):
            return 0.0 + r.laplace(0, 0.05)

        def run_b(r):
            return 1.0 + r.laplace(0, 0.05)

        report = audit_frequency_ratio(
            run_a, run_b, epsilon=1.0, delta=1e-6, runs=50_000,
            bin_edges=np.linspace(-2, 3, 21), rng=rng,
        )
        assert report.rejected


def grid_chebyshev(answers, m, resolution):
    axes = [np.linspace(-1 / m, 1 / m, resolution)] * m
    grids = np.meshgrid(*axes, indexing="ij")
    mu = np.stack([g.ravel() for g in grids], axis=1)
    h = predicate_matrix(m).astype(float)
    viol = np.max(np.abs(mu @ h.T - answers), axis=1)
    best = np.argmin(viol)
    return mu[best], float(viol[best])


class TestReconstructSlice:
    @pytest.mark.parametrize("m,resolution", [(2, 201), (3, 61)])
    def test_matches_exhaustive_grid(self, m, resolution):
        rng = np.random.default_rng(8)
        h = predicate_matrix(m).astype(float)
        for _ in range(5):
            mu_true = rng.uniform(-1 / m, 1 / m, size=m)
            alpha = 0.05
            answers = h @ mu_true + rng.uniform(-0.8, 0.8, size=2 ** m) * alpha
            mu_hat = reconstruct_slice(answers, alpha, m)
            viol_hat = np.max(np.abs(h @ mu_hat - answers))
            _, viol_grid = grid_chebyshev(answers, m, resolution)
            grid_step = (2 / m) / (resolution - 1)
            assert viol_hat <= viol_grid + m * grid_step + 1e-9
            assert np.all(np.abs(mu_hat) <= 1 / m + 1e-12)

    def test_recovery_within_two_alpha(self):
        rng = np.random.default_rng(9)
        m = 4
        h = predicate_matrix(m).astype(float)
        for _ in range(10):
            mu_true = rng.uniform(-1 / m, 1 / m, size=m)
            alpha = 0.1
            answers = h @ mu_true + rng.uniform(-0.7, 0.7, size=2 ** m) * alpha
            mu_hat = reconstruct_slice(answers, alpha, m)
            assert np.abs(mu_hat - mu_true).sum() <= 2 * alpha + 1e-9

    def test_capacity_limit(self):
        with pytest.raises(CapacityError):
            reconstruct_slice(np.zeros(2 ** 13), 0.1, 13)

    def test_batch_matches_contract(self):
        from tiltlab.mechanisms import reconstruct_slices_batch

        rng = np.random.default_rng(20)
        m, slices = 6, 40
        h = predicate_matrix(m).astype(float)
        mu_true = rng.uniform(-1 / m, 1 / m, size=(slices, m))
        alpha = 1 / 8
        answers = mu_true @ h.T + rng.uniform(-0.7, 0.7, (slices, 2 ** m)) * alpha
        out = reconstruct_slices_batch(answers, alpha, m)
        viol = np.max(np.abs(out @ h.T - answers), axis=1)
        assert np.all(viol <= alpha + 1e-12)
        assert np.all(np.abs(out) <= 1 / m + 1e-12)
        assert np.all(np.abs(out - mu_true).sum(axis=1) <= 2 * alpha + 1e-9)


class TestProjectToH:
    def test_exact_beats_grid_oracle(self):
        rng = np.random.default_rng(10)
        u = np.array([[1, 1], [1, -1]], dtype=float)
        s = 0.5
        lam_grid = np.linspace(-1, 1, 2001)
        gx, gy = np.meshgrid(lam_grid, lam_grid, indexing="ij")
        lam_all = np.stack([gx.ravel(), gy.ravel()], axis=1)
        cand = (s / 2) * lam_all @ u  # rows: candidate points of H
        for _ in range(5):
            w = rng.normal(scale=0.8, size=2)
            proj, lam = project_to_H(w, u, s, mode="exact")
            cost = np.abs(w - proj).sum()
            grid_cost = np.abs(w - cand).sum(axis=1).min()
            assert cost <= grid_cost + 1e-3
            assert np.all(np.abs(lam) <= 1 + 1e-9)

    def test_fast_mode_is_clipped_l2_projection(self):
        rng = np.random.default_rng(11)
        k = 8
        u = predicate_matrix(3).astype(float).T  # not orthogonal; use hadamard
        from tiltlab.families import hadamard_orthogonal_set

        u = hadamard_orthogonal_set(k).astype(float)
        s = 1 / 3
        w = rng.normal(size=k)
        proj, lam = project_to_H(w, u, s, mode="fast")
        want_lam = np.clip(u @ w / s, -1, 1)
        np.testing.assert_allclose(lam, want_lam, atol=1e-12)
        np.testing.assert_allclose(proj, (s / k) * (u.T @ lam), atol=1e-12)

    def test_fast_within_sqrt_k_of_exact(self):
        from tiltlab.families import hadamard_orthogonal_set

        rng = np.random.default_rng(12)
        k = 4
        u = hadamard_orthogonal_set(k).astype(float)
        s = 0.25
        for _ in range(10):
            w = rng.normal(scale=0.5, size=k)
            fast, _ = project_to_H(w, u, s, mode="fast")
            exact, _ = project_to_H(w, u, s, mode="exact")
            cost_fast = np.abs(w - fast).sum()
            cost_exact = np.abs(w - exact).sum()
            assert cost_fast <= math.sqrt(k) * cost_exact + 1e-9


class TestQueryRelease:
    def test_precondition_message_names_required_mass(self):
        fam = make_family("matrix-columns", d=8, n_columns=32, seed=13)
        hist = HistogramVector(weights={0: 5.0}, universe_size=32)
        with pytest.raises(ValueError, match="requires total mass"):
            histogram_query_release(
                fam, hist, epsilon=1.0, delta=1e-6, alpha=0.5,
                rng=np.random.default_rng(0),
            )

    def test_answers_close_for_large_mass(self):
        fam = make_family("matrix-columns", d=16, n_columns=64, seed=14)
        rng = np.random.default_rng(15)
        n_req = required_mass(1.0, 1e-6, 0.5)
        hist = random_sparse_hist(rng, support=10, total=4 * n_req,
                                  universe_size=64)
        yhat, released = histogram_query_release(
            fam, hist, epsilon=1.0, delta=1e-6, alpha=0.5, rng=rng,
        )
        dense = np.zeros(64)
        for u, w in hist.weights.items():
            dense[u] = w
        truth = fam.matrix.astype(float) @ dense / hist.total
        assert np.linalg.norm(yhat - truth) <= 0.5 * math.sqrt(16)
        assert released.total == pytest.approx(n_req, abs=1e-6)


class TestReductions:
    def test_group_wrap_metadata_and_estimate(self):
        fam = make_family("hypercube", d=3)
        refs = enumerate_refs(fam)[:4]
        ds = Dataset.from_refs(fam, refs)
        mech = GaussianMechanism(epsilon=0.5, delta=1e-5)
        wrapped = GroupPrivacyWrapped(mech, p=3)
        ans = wrapped(ds, np.random.default_rng(16))
        assert ans.epsilon == pytest.approx(1.5, abs=1e-12)
        want_delta = 1e-5 * (math.exp(1.5) - 1) / (math.exp(0.5) - 1)
        assert ans.delta == pytest.approx(want_delta, rel=1e-12)
        # replication leaves the empirical mean invariant
        plain = GroupPrivacyWrapped(EmpiricalMean(), p=4)(ds)
        np.testing.assert_allclose(plain.estimate, ds.points.mean(axis=0),
                                   atol=1e-12)

    def test_group_wrap_identity_at_p_one(self):
        fam = make_family("hypercube", d=2)
        ds = Dataset.from_refs(fam, enumerate_refs(fam)[:2])
        ans = GroupPrivacyWrapped(EmpiricalMean(), p=1)(ds)
        np.testing.assert_array_equal(ans.estimate, ds.points.mean(axis=0))
        assert ans.delta == 0.0

    def test_group_shrink_discards_remainder(self):
        fam = make_family("hypercube", d=2)
        ds = Dataset.from_refs(fam, enumerate_refs(fam))  # 4 points
        small = group_shrink(ds, p=3)
        assert small.n == 1
        with pytest.raises(ValueError):
            group_shrink(small, p=2)

    def test_pad_reduction_recovers_small_mean(self):
        fam = make_family("hypercube", d=4)
        refs = enumerate_refs(fam)
        rng = np.random.default_rng(17)
        for _ in range(20):
            anchor = refs[rng.integers(len(refs))]
            chosen = [refs[i] for i in rng.choice(len(refs), size=4)]
            ds = Dataset.from_refs(fam, chosen)
            padded = PaddedMechanism(EmpiricalMean(), k=3, z_ref=anchor, family=fam)
            ans = padded(ds)
            np.testing.assert_allclose(
                ans.estimate, ds.points.mean(axis=0), atol=1e-12
            )
