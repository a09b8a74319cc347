"""Histogram release, slice reconstruction, projections, and reductions.

Oracles:
    - Truncated Laplace empirical CDF against the closed-form truncated CDF.
    - The array truncated-Laplace draw against a one-at-a-time rejection
      loop, and the sorted water level against a bisection.
    - sparse_histogram_many rows against sequential sparse_histogram calls.
    - Water-filling projection optimality against random feasible candidates.
    - reconstruct_slices_batch against exhaustive grid search for m <= 3.
    - project_to_H exact mode against a brute-force lambda grid at k = 2.
    - PaddedMechanism and GroupPrivacyWrapped closed-form behavior.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tiltlab.errors import CapacityError
from tiltlab.families import make_family, predicate_matrix, support_batch
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
    reconstruct_slices_batch,
    required_mass,
    _water_fill_surplus,
    sparse_histogram,
    sparse_histogram_many,
    trunc_laplace,
)


def scalar_trunc_laplace(rng, scale, bound, size):
    """One rejection loop per draw: the stream the array draw must equal."""
    out = []
    for _ in range(size):
        while True:
            x = rng.laplace(0.0, scale)
            if abs(x) <= bound:
                out.append(float(x))
                break
    return np.array(out)


def bisection_water_fill(values, target):
    """Water fill by a 200-step fsum bisection of the level, to 1e-12."""
    lo, hi = 0.0, max(values)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        phi = math.fsum(v - mid for v in values if v > mid)
        if phi > target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12:
            break
    c = 0.5 * (lo + hi)
    return np.array([v - c if v > c else 0.0 for v in values])


class TestTruncLaplace:
    def test_always_inside_bound(self):
        rng = np.random.default_rng(0)
        draws = trunc_laplace(rng, 1.0, 3.0, 2000)
        assert np.all(np.abs(draws) <= 3.0)

    def test_matches_truncated_cdf(self):
        rng = np.random.default_rng(1)
        scale, bound, n = 0.8, 2.0, 100_000
        draws = np.sort(trunc_laplace(rng, scale, bound, n))

        def laplace_cdf(x):
            return np.where(
                x < 0, 0.5 * np.exp(x / scale), 1 - 0.5 * np.exp(-x / scale)
            )

        lo, hi = laplace_cdf(np.array([-bound, bound]))
        cdf = (laplace_cdf(draws) - lo) / (hi - lo)
        emp = np.arange(1, n + 1) / n
        ks = np.max(np.abs(cdf - emp))
        assert ks < 0.01

    @pytest.mark.parametrize("scale,bound", [
        (1.0, 3.0), (1.0, 0.3), (2.0, 0.5), (0.5, 10.0),
    ])
    def test_equals_one_at_a_time_rejection(self, scale, bound):
        # bound 0.3 at scale 1 rejects 74% of draws
        for seed in range(40):
            for size in (0, 1, 7, 64):
                r1 = np.random.default_rng(seed)
                r2 = np.random.default_rng(seed)
                got = trunc_laplace(r1, scale, bound, size)
                assert got.shape == (size,)
                assert np.array_equal(got,
                                      scalar_trunc_laplace(r2, scale, bound,
                                                           size))
                assert r1.random() == r2.random()


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

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        weights=st.dictionaries(
            st.integers(0, 999),
            st.floats(0.0, 1e3, allow_nan=False, allow_infinity=False),
            min_size=1, max_size=12),
        extra=st.none() | st.integers(0, 50),
        epsilon=st.floats(0.05, 5.0),
        delta=st.floats(1e-12, 0.5),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    def test_mass_and_linf_property(self, weights, extra, epsilon, delta, seed):
        hist = HistogramVector(
            weights=weights,
            universe_size=None if extra is None else len(weights) + extra)
        out = sparse_histogram(hist, epsilon, delta,
                               np.random.default_rng(seed))
        # the mass invariant the mech-bench rows check
        assert abs(out.total - hist.total) <= 1e-9 * max(1.0, hist.total)
        assert hist.linf_distance(out) <= 10 * math.log(1 / delta) / epsilon

    def test_mass_exact_at_tiny_and_large_totals(self):
        # noise of scale 1 swamps totals far below the water-level bisection
        # width, so most of these releases take the surplus path
        for exp10 in range(-84, 4, 3):
            t = 10.0 ** exp10
            hist = HistogramVector(weights={0: t, 1: t / 3})
            total = hist.total
            for seed in range(300):
                out = sparse_histogram(hist, 1.0, 1e-6,
                                       np.random.default_rng(seed))
                assert abs(out.total - total) <= 4 * math.ulp(total)

    def test_tiny_single_weight_keeps_mass(self):
        hist = HistogramVector(weights={0: 2.68e-84})
        for seed in range(20):
            out = sparse_histogram(hist, 1.0, 1e-6, np.random.default_rng(seed))
            assert abs(out.total - 2.68e-84) <= 4 * math.ulp(2.68e-84)

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


def dense_rows(hist, releases):
    keys = sorted(hist.weights, key=repr)
    return np.array([[out.weights.get(u, 0.0) for u in keys]
                     for out in releases])


class TestSparseHistogramMany:
    @pytest.mark.parametrize("support,universe,delta", [
        (2, 2, 1e-4), (2, None, 0.3), (9, None, 1e-6), (9, 40, 0.3),
        (32, None, 1e-6), (32, 32, 0.3),
    ])
    def test_rows_equal_sequential_releases(self, support, universe, delta):
        eps, runs = 1.0, 300
        rng = np.random.default_rng(support)
        w = rng.uniform(0.0, 4.0, size=support)
        hist = HistogramVector(
            weights={f"e{j}": float(x) for j, x in enumerate(w)},
            universe_size=universe)
        v = 5 * math.log(1 / delta) / eps
        # the noise the releases see: some rows must add mass, some must
        # remove it, and delta = 0.3 must make the truncation reject
        noise = trunc_laplace(np.random.default_rng(7), 1 / eps, v,
                              runs * support).reshape(runs, support)
        canon = np.array([hist.weights[u] for u in sorted(hist.weights,
                                                          key=repr)])
        noised = np.maximum(canon + noise, 0.0)
        sums = np.array([math.fsum(r) for r in noised.tolist()])
        assert (sums > hist.total).any() and (sums < hist.total).any()
        raw = np.random.default_rng(7).laplace(0, 1 / eps, runs * support)
        assert (np.abs(raw) > v).any() == (delta == 0.3)

        r1 = np.random.default_rng(7)
        r2 = np.random.default_rng(7)
        block = sparse_histogram_many(hist, eps, delta, r1, runs)
        seq = [sparse_histogram(hist, eps, delta, r2) for _ in range(runs)]
        assert block.dtype == np.float64 and block.shape == (runs, support)
        assert np.array_equal(block, dense_rows(hist, seq))
        assert r1.random() == r2.random()

    def test_sorted_level_matches_bisection(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            s = int(rng.integers(1, 33))
            values = rng.uniform(0.0, 1e3, size=s) * (rng.random(s) < 0.8)
            target = float(rng.choice([0.0, 1e-20, rng.uniform(0.0, 1.0)])) \
                * math.fsum(values)
            if not math.fsum(values) > target:
                continue
            got = _water_fill_surplus(values[None, :], target)[0]
            want = bisection_water_fill(values.tolist(), target)
            # every entry but the mass-patched top one moves by the level
            top = int(np.argmax(got))
            rest = np.arange(s) != top
            assert np.abs(got - want)[rest].max(initial=0.0) <= 1e-11
            assert math.fsum(got.tolist()) == pytest.approx(target,
                                                            abs=1e-9)
            assert got.min() >= 0.0

    def test_zero_mass_rows_release_zero(self):
        # a zero target floors every row to zero, whatever the noise
        hist = HistogramVector(weights={0: 0.0, 1: 0.0, 2: 0.0})
        block = sparse_histogram_many(hist, 1.0, 1e-6,
                                      np.random.default_rng(3), 50)
        assert not block.any()


class TestFrequencyAudit:
    def test_identical_distributions_pass(self):
        rng = np.random.default_rng(5)

        def sample(r, n):
            return r.normal(size=n)

        report = audit_frequency_ratio(
            sample, sample, epsilon=0.5, delta=1e-6, runs=20_000,
            bin_edges=np.linspace(-4, 4, 17), rng=rng,
        )
        assert not report.rejected

    def test_true_laplace_mechanism_passes(self):
        rng = np.random.default_rng(6)
        eps = 1.0

        def run_a(r, n):
            return 0.0 + r.laplace(0, 1 / eps, size=n)

        def run_b(r, n):
            return 1.0 + r.laplace(0, 1 / eps, size=n)

        report = audit_frequency_ratio(
            run_a, run_b, epsilon=eps, delta=0.0, runs=50_000,
            bin_edges=np.linspace(-6, 7, 27), rng=rng,
        )
        assert not report.rejected

    def test_broken_mechanism_rejected(self):
        rng = np.random.default_rng(7)

        def run_a(r, n):
            return 0.0 + r.laplace(0, 0.05, size=n)

        def run_b(r, n):
            return 1.0 + r.laplace(0, 0.05, size=n)

        report = audit_frequency_ratio(
            run_a, run_b, epsilon=1.0, delta=1e-6, runs=50_000,
            bin_edges=np.linspace(-2, 3, 21), rng=rng,
        )
        assert report.rejected

    def test_sampler_shape_checked(self):
        with pytest.raises(ValueError, match=r"\(10,\) arrays"):
            audit_frequency_ratio(
                lambda r, n: r.normal(size=n), lambda r, n: r.normal(size=1),
                epsilon=1.0, delta=0.0, runs=10,
                bin_edges=np.linspace(-1, 1, 3),
                rng=np.random.default_rng(0))


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
            mu_hat = reconstruct_slices_batch(answers[None], alpha, m,
                                              iters=10_000)[0]
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
            mu_hat = reconstruct_slices_batch(answers[None], alpha, m,
                                              iters=10_000)[0]
            assert np.abs(mu_hat - mu_true).sum() <= 2 * alpha + 1e-9

    def test_capacity_limit(self):
        with pytest.raises(CapacityError):
            reconstruct_slices_batch(np.zeros((1, 2 ** 13)), 0.1, 13)

    def test_batch_matches_contract(self):
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
        ds = Dataset.from_refs(support_batch(fam).take(slice(0, 4)))
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
        ds = Dataset.from_refs(support_batch(fam).take(slice(0, 2)))
        ans = GroupPrivacyWrapped(EmpiricalMean(), p=1)(ds)
        np.testing.assert_array_equal(ans.estimate, ds.points.mean(axis=0))
        assert ans.delta == 0.0

    def test_group_shrink_discards_remainder(self):
        fam = make_family("hypercube", d=2)
        ds = Dataset.from_refs(support_batch(fam))  # 4 points
        small = group_shrink(ds, p=3)
        assert small.n == 1
        with pytest.raises(ValueError):
            group_shrink(small, p=2)

    def test_pad_reduction_recovers_small_mean(self):
        fam = make_family("hypercube", d=4)
        support = support_batch(fam)
        rng = np.random.default_rng(17)
        for _ in range(20):
            anchor = support.take([rng.integers(len(support))])
            ds = Dataset.from_refs(
                support.take(rng.choice(len(support), size=4)))
            padded = PaddedMechanism(EmpiricalMean(), k=3, anchor=anchor)
            ans = padded(ds)
            np.testing.assert_allclose(
                ans.estimate, ds.points.mean(axis=0), atol=1e-12
            )
