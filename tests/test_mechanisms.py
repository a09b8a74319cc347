"""Histogram release, slice reconstruction, projections, and reductions.

Oracles:
    - Truncated Laplace empirical CDF against the closed-form truncated CDF,
      at 1e6 draws from bound/scale = 1e-8 to 100, and its two signs
      against exact negation.
    - The sorted water level against a bisection.
    - The rows of one batched release (release_rows) against sequential
      sparse_histogram calls, and rows of different histograms, each under
      its own mass, against each one's own release.
    - Water-filling projection optimality against random feasible candidates.
    - reconstruct_slices_batch against exhaustive grid search for m <= 3,
      and its certified stop against a test-local copy of the uncertified
      400-step loop on heavy-compromise answers from the desk point.
    - The L1-optimal projection onto H (a test-local LP) against a
      brute-force lambda grid at k = 2, and project_to_H within sqrt(k) of it.
    - PaddedMechanism and GroupPrivacyWrapped closed-form behavior.

The reductions and the frequency audit are lemma checks, not library
features: they live in tests/lemmas.py, and group_shrink lives here.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from tiltlab.ada import ExactMeanAnalyst, default_tau, run_ada_protocol
from tiltlab.attack import ThetaSampler
from tiltlab.errors import CapacityError
from tiltlab.families import make_family, predicate_matrix, support_batch
from tiltlab.mechanisms import (
    Dataset,
    EmpiricalMean,
    GaussianMechanism,
    HistogramVector,
    RECONSTRUCT_STOP_ULPS,
    complement_floor,
    histogram_query_release,
    project_to_H,
    reconstruct_slices_batch,
    release_rows,
    required_mass,
    _water_fill_surplus,
    sparse_histogram,
    trunc_laplace,
)

from lemmas import GroupPrivacyWrapped, PaddedMechanism, \
    audit_frequency_ratio, release_many


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


def truncated_laplace_cdf(x, scale, bound):
    """CDF of Laplace(0, scale) conditioned on [-bound, bound], from expm1
    so that it keeps its digits at bound / scale = 1e-8."""
    mag = np.minimum(np.abs(x), bound)
    return 0.5 + 0.5 * np.sign(x) * np.expm1(-mag / scale) \
        / math.expm1(-bound / scale)


def ks_distance(draws, cdf):
    """Kolmogorov-Smirnov distance of the draws from a continuous CDF."""
    n = len(draws)
    f = cdf(np.sort(draws))
    return max(np.max(np.arange(1, n + 1) / n - f),
               np.max(f - np.arange(n) / n))


class TestTruncLaplace:
    def test_always_inside_bound(self):
        rng = np.random.default_rng(0)
        draws = trunc_laplace(rng.random(2000), 1.0, 3.0)
        assert np.all(np.abs(draws) <= 3.0)

    def test_matches_truncated_cdf(self):
        rng = np.random.default_rng(1)
        scale, bound, n = 0.8, 2.0, 100_000
        draws = np.sort(trunc_laplace(rng.random(n), scale, bound))

        def laplace_cdf(x):
            return np.where(
                x < 0, 0.5 * np.exp(x / scale), 1 - 0.5 * np.exp(-x / scale)
            )

        lo, hi = laplace_cdf(np.array([-bound, bound]))
        cdf = (laplace_cdf(draws) - lo) / (hi - lo)
        emp = np.arange(1, n + 1) / n
        ks = np.max(np.abs(cdf - emp))
        assert ks < 0.01

    @pytest.mark.parametrize("ratio", [1e-8, 1e-4, 1.0, 10.0, 100.0])
    def test_law_at_1e6_draws(self, ratio):
        # sqrt(n) KS > 3 has chance 3e-8 under the right law
        # (tests/golden/FALSE_ALARMS.md)
        scale, n = 0.7, 1_000_000
        bound = ratio * scale
        draws = trunc_laplace(np.random.default_rng(11).random(n), scale,
                              bound)
        assert draws.shape == (n,)
        assert np.abs(draws).max() <= bound
        ks = ks_distance(draws,
                         lambda x: truncated_laplace_cdf(x, scale, bound))
        assert ks * math.sqrt(n) < 3.0

    def test_halves_of_the_unit_interval_give_opposite_signs(self):
        # u and u + 1/2 fold to the same w exactly, so their values are
        # exact negatives: u < 1/2 draws the negative half
        u = np.random.default_rng(2).random(10_000)
        u = np.concatenate([u[u < 0.5], [0.0, 0.5 - 2.0 ** -53]])
        for scale, bound in ((1.0, 3.0), (0.5, 1e-6), (2.0, 200.0)):
            low = trunc_laplace(u, scale, bound)
            high = trunc_laplace(u + 0.5, scale, bound)
            assert np.array_equal(high, -low)
            assert (low <= 0).all() and (high >= 0).all()

    def test_keeps_the_shape_of_its_uniforms(self):
        u = np.random.default_rng(3).random((4, 5))
        x = trunc_laplace(u, 1.0, 2.0)
        assert x.shape == (4, 5)
        assert np.array_equal(x.ravel(), trunc_laplace(u.ravel(), 1.0, 2.0))

    @pytest.mark.parametrize("scale,bound", [(0.0, 1.0), (1.0, 0.0),
                                             (-1.0, 1.0)])
    def test_rejects_nonpositive_scale_or_bound(self, scale, bound):
        with pytest.raises(ValueError, match="scale > 0 and bound > 0"):
            trunc_laplace(np.full(3, 0.25), scale, bound)


def random_sparse_hist(rng, support, total, universe_size=None, min_w=0.2):
    ids = rng.choice(10 ** 6 if universe_size is None else universe_size,
                     size=support, replace=False)
    raw = rng.uniform(min_w, 1.0, size=support)
    raw = raw / raw.sum() * total
    return HistogramVector(ids, raw, universe_size=universe_size)


class TestHistogramVector:
    @pytest.mark.parametrize("elements,weights,kwargs,match", [
        ([0, 1], [1.0], {}, "1-D of one length"),
        ([[0, 1]], [[1.0, 2.0]], {}, "1-D of one length"),
        ([0.0, 1.0], [1.0, 2.0], {}, "integer ids"),
        ([3, 5, 3], [1.0, 2.0, 3.0], {}, "distinct"),
        ([0, 1], [1.0, -0.5], {}, "nonnegative"),
        ([0, 1], [1.0, 2.0], {"background": 0.5}, "finite universe"),
    ], ids=["shapes", "2-D", "float-elements", "duplicates", "negative",
            "background-without-universe"])
    def test_rejects_bad_input(self, elements, weights, kwargs, match):
        with pytest.raises(ValueError, match=match):
            HistogramVector(np.array(elements), np.array(weights), **kwargs)

    @pytest.mark.parametrize("other", [[1, 0], [0, 2], [0, 1, 2]])
    def test_linf_distance_needs_equal_elements(self, other):
        hist = HistogramVector([0, 1], [1.0, 2.0])
        with pytest.raises(ValueError, match="equal elements"):
            hist.linf_distance(HistogramVector(other, np.ones(len(other))))


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
            list(weights), list(weights.values()),
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
            hist = HistogramVector([0, 1], [t, t / 3])
            total = hist.total
            for seed in range(300):
                out = sparse_histogram(hist, 1.0, 1e-6,
                                       np.random.default_rng(seed))
                assert abs(out.total - total) <= 4 * math.ulp(total)

    def test_tiny_single_weight_keeps_mass(self):
        hist = HistogramVector([0], [2.68e-84])
        for seed in range(20):
            out = sparse_histogram(hist, 1.0, 1e-6, np.random.default_rng(seed))
            assert abs(out.total - 2.68e-84) <= 4 * math.ulp(2.68e-84)

    def test_support_only_noise(self):
        # absent elements gain mass only through the projection background
        rng = np.random.default_rng(3)
        hist = random_sparse_hist(rng, support=5, total=400.0, universe_size=1000)
        out = sparse_histogram(hist, 0.5, 1e-8, rng)
        assert np.array_equal(out.elements, hist.elements)
        assert out.background >= 0.0

    def test_deterministic_under_seed(self):
        hist = HistogramVector([3, 9, 1], [50.0, 30.0, 20.0], universe_size=50)
        a = sparse_histogram(hist, 1.0, 1e-6, np.random.default_rng(42))
        b = sparse_histogram(hist, 1.0, 1e-6, np.random.default_rng(42))
        assert np.array_equal(a.weights, b.weights)
        assert a.background == b.background

    def test_projection_beats_random_feasible_candidates(self):
        # the projected output moves no farther (sup-norm) from the noised
        # vector than any feasible candidate we can construct
        rng = np.random.default_rng(4)
        for _ in range(20):
            hist = random_sparse_hist(rng, support=6, total=60.0, universe_size=6)
            out = sparse_histogram(hist, 0.3, 1e-4, rng)
            assert out.total == pytest.approx(60.0, abs=1e-9)
            assert out.weights.min() >= -1e-12


class TestSparseHistogramMany:
    @pytest.mark.parametrize("support,universe,delta", [
        (2, 2, 1e-4), (2, None, 0.3), (9, None, 1e-6), (9, 40, 0.3),
        (32, None, 1e-6), (32, 32, 0.3),
    ])
    def test_rows_equal_sequential_releases(self, support, universe, delta):
        eps, runs = 1.0, 300
        rng = np.random.default_rng(support)
        w = rng.uniform(0.0, 4.0, size=support)
        # distinct ids in no sorted order: columns follow the caller's order
        ids = rng.permutation(10 * support)[:support]
        hist = HistogramVector(ids, w, universe_size=universe)
        v = 5 * math.log(1 / delta) / eps
        # the noise the releases see: some rows must add mass, some must
        # remove it, and at delta = 0.3 the truncation must bind, so that
        # the untruncated Laplace of the same folded uniforms passes v
        u = np.random.default_rng(7).random((runs, support))
        noise = trunc_laplace(u, 1 / eps, v)
        noised = np.maximum(w + noise, 0.0)
        sums = np.array([math.fsum(r) for r in noised.tolist()])
        assert (sums > hist.total).any() and (sums < hist.total).any()
        untruncated = -np.log1p(-(2 * u - (u >= 0.5))) / eps
        assert (untruncated > v).any() == (delta == 0.3)

        r1 = np.random.default_rng(7)
        r2 = np.random.default_rng(7)
        block = release_many(hist, eps, delta, r1, runs)[0]
        seq = [sparse_histogram(hist, eps, delta, r2) for _ in range(runs)]
        assert block.dtype == np.float64 and block.shape == (runs, support)
        assert all(np.array_equal(out.elements, ids) for out in seq)
        assert all(np.array_equal(out.weights, row)
                   for out, row in zip(seq, block))
        assert r1.random() == r2.random()
        # columns follow the caller's order: a row that gained mass is its
        # noised row raised by one level
        shift = block[sums < hist.total] - noised[sums < hist.total]
        assert np.allclose(shift, shift[:, :1], rtol=0.0, atol=1e-9)

    def test_sorted_level_matches_bisection(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            s = int(rng.integers(1, 33))
            values = rng.uniform(0.0, 1e3, size=s) * (rng.random(s) < 0.8)
            target = float(rng.choice([0.0, 1e-20, rng.uniform(0.0, 1.0)])) \
                * math.fsum(values)
            if not math.fsum(values) > target:
                continue
            got = _water_fill_surplus(values[None, :], np.array([target]))[0]
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
        hist = HistogramVector([0, 1, 2], np.zeros(3))
        block = release_many(hist, 1.0, 1e-6, np.random.default_rng(3),
                             50)[0]
        assert not block.any()

    @pytest.mark.parametrize("support,universe,delta", [
        (1, None, 1e-6), (8, None, 0.3), (8, 100, 0.3), (32, 32, 1e-6),
    ])
    def test_rows_of_many_histograms_equal_their_own_releases(
            self, support, universe, delta):
        # one call over rows of different weights, each row under its own
        # mass, gives each row the release of its own histogram under its
        # own noise: the chunked mech-bench path against sparse_histogram
        eps, runs = 1.0, 200
        rng = np.random.default_rng(support)
        # weight scales from near zero to far above the noise, so rows take
        # the surplus path, the deficit path and neither
        scale = 10.0 ** rng.uniform(-3, 2, size=(runs, 1))
        weights = rng.uniform(0.0, 1.0, size=(runs, support)) * scale
        hists = [HistogramVector(np.arange(support), w, universe_size=universe)
                 for w in weights]
        seeds = rng.integers(0, 2 ** 32, size=runs)
        v = 5 * math.log(1 / delta) / eps
        noise = trunc_laplace(np.array([
            np.random.default_rng(seed).random(support) for seed in seeds]),
            1 / eps, v)
        extra = 0 if universe is None else universe - support
        mass = np.array([h.total for h in hists])
        block, background = release_rows(weights, mass, noise, extra)
        for hist, seed, row, bg in zip(hists, seeds, block, background):
            out = sparse_histogram(hist, eps, delta,
                                   np.random.default_rng(seed))
            assert np.array_equal(out.weights, row)
            assert out.background == bg
        # a background only where elements lie beyond the support
        assert (background > 0).any() == (extra > 0)
        sums = np.array([math.fsum(r) for r in
                         np.maximum(weights + noise, 0.0).tolist()])
        assert (sums > mass).any() and (sums < mass).any()


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
    h = predicate_matrix(m)
    viol = np.max(np.abs(mu @ h.T - answers), axis=1)
    best = np.argmin(viol)
    return mu[best], float(viol[best])


class TestReconstructSlice:
    @pytest.mark.parametrize("m,resolution", [(2, 201), (3, 61)])
    def test_matches_exhaustive_grid(self, m, resolution):
        rng = np.random.default_rng(8)
        h = predicate_matrix(m)
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
        h = predicate_matrix(m)
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
        h = predicate_matrix(m)
        mu_true = rng.uniform(-1 / m, 1 / m, size=(slices, m))
        alpha = 1 / 8
        answers = mu_true @ h.T + rng.uniform(-0.7, 0.7, (slices, 2 ** m)) * alpha
        out = reconstruct_slices_batch(answers, alpha, m)
        viol = np.max(np.abs(out @ h.T - answers), axis=1)
        assert np.all(viol <= alpha + 1e-12)
        assert np.all(np.abs(out) <= 1 / m + 1e-12)
        assert np.all(np.abs(out - mu_true).sum(axis=1) <= 2 * alpha + 1e-9)


def stop_tol(answers):
    """The certified stop's slack: RECONSTRUCT_STOP_ULPS ulps of each row's
    largest |answer|."""
    return RECONSTRUCT_STOP_ULPS * np.finfo(float).eps \
        * np.max(np.abs(answers), axis=1)


def chebyshev_objective(mu, answers, m):
    h = predicate_matrix(m)
    return np.max(np.abs(mu @ h.T - answers), axis=1)


def uncertified_reconstruct(answers, alpha, m, iters):
    """The projected-subgradient loop with no certified stop: rows run until
    their worst violation is at most alpha or the steps run out."""
    h = predicate_matrix(m)
    box = 1.0 / m
    mu = np.clip(answers @ h / 2 ** m, -box, box)
    best_mu = mu.copy()
    best_f = np.max(np.abs(mu @ h.T - answers), axis=1)
    rows = np.arange(len(mu))
    for t in range(1, iters + 1):
        live = best_f > alpha
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


class RecordingAnalyst(ExactMeanAnalyst):
    def __init__(self):
        self.answers = []

    def answer_stage(self, stage, batch):
        ans = super().answer_stage(stage, batch)
        self.answers.append(ans)
        return ans


class TestCertifiedStop:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.data())
    def test_floor_bounds_every_box_point(self, data):
        # the complement-pair bound holds for every mu in the box; floats
        # round each side by a few ulps, which the stop's slack absorbs
        m = data.draw(st.integers(1, 6))
        rows = data.draw(st.integers(1, 4))
        unit = st.floats(-1.0, 1.0, allow_nan=False)
        answers = np.array(data.draw(st.lists(
            st.lists(unit, min_size=2 ** m, max_size=2 ** m),
            min_size=rows, max_size=rows)))
        mu = np.array(data.draw(st.lists(
            st.floats(-1.0 / m, 1.0 / m, allow_nan=False),
            min_size=m, max_size=m)))
        objective = chebyshev_objective(np.tile(mu, (rows, 1)), answers, m)
        assert np.all(complement_floor(answers)
                      <= objective + stop_tol(answers))

    @pytest.mark.parametrize("m", [1, 2, 4, 6])
    def test_affine_answers_return_the_warm_start(self, m):
        # a_h = <mu0, h> + f is what compromised points give an exact
        # analyst: the warm start is optimal with value f, so no step runs
        rng = np.random.default_rng(30 + m)
        h = predicate_matrix(m)
        alpha = 1 / 8
        mu0 = rng.uniform(-1 / m, 1 / m, size=(50, m)) * 0.5
        f = rng.uniform(alpha + 0.01, 0.5, size=(50, 1))
        answers = mu0 @ h.T + f
        warm = np.clip(answers @ h / 2 ** m, -1 / m, 1 / m)
        assert np.all(chebyshev_objective(warm, answers, m) > alpha)
        for iters in (0, 1, 400, 5000):
            out = reconstruct_slices_batch(answers, alpha, m, iters=iters)
            assert np.array_equal(out, warm)

    @pytest.mark.parametrize("gap", [1e-7, 1e-13])
    def test_warm_start_just_above_the_floor_still_steps(self, gap):
        # a_h = <mu0, h> + s_h + gap * parity(h), with s_h = s_{-h}: the
        # warm start is mu0 and misses by s_0 + gap on h_0 alone, while the
        # floor is s_0 and mu0 + (gap/3) h_0 reaches it.  With alpha half way
        # between, only the stop's slack (about 2e-15 here) decides whether
        # the warm start is certified.  A slack past the gap, about 1e9 ulps
        # at gap 1e-7 and 1e3 at gap 1e-13, certifies it and returns it
        m = 3
        h = predicate_matrix(m)
        parity = h.prod(axis=1)
        rng = np.random.default_rng(50)
        mu0 = rng.uniform(-0.15, 0.15, size=(6, m))
        pairs = np.hstack([np.full((6, 1), 0.3),
                           rng.uniform(0.0, 0.1, size=(6, 3))])
        answers = mu0 @ h.T + np.hstack([pairs, pairs[:, ::-1]]) \
            + gap * parity
        floor = complement_floor(answers)
        warm = np.clip(answers @ h / 2 ** m, -1 / m, 1 / m)
        warm_obj = chebyshev_objective(warm, answers, m)
        assert np.allclose(warm_obj - floor, gap, rtol=0.05, atol=0.0)
        alpha = float(floor.max()) + gap / 2
        assert np.all(warm_obj > alpha)
        out = reconstruct_slices_batch(answers, alpha, m)
        assert np.all(chebyshev_objective(out, answers, m) < warm_obj)

    def test_matches_uncertified_loop_at_heavy_compromise(self):
        # the desk point at tau/8, where compromise pushes the exact
        # analyst's answers far above alpha; the uncertified loop runs all
        # 400 steps on those rows and may only improve within the slack.
        # A noised copy of the rows, where the floor is not tight, keeps
        # the stop honest: there both loops must run to the same end.
        family = make_family("tensor", m=6, k=64, d=32)
        m, k, alpha = family.m, family.k, 1 / 8
        theta = ThetaSampler("l1-surface", family.dim,
                             family.dim / math.sqrt(k)).sample(
            np.random.default_rng(40))
        analyst = RecordingAnalyst()
        run_ada_protocol(analyst, family, theta, n=m * k,
                         tau=default_tau(family.d, alpha, 2.0, m) / 8,
                         seed=41, alpha=alpha)
        recorded = np.concatenate([a.reshape(k, 2 ** m)
                                   for a in analyst.answers])
        warm = np.clip(recorded @ predicate_matrix(m) / 2 ** m, -1 / m, 1 / m)
        assert (chebyshev_objective(warm, recorded, m) > alpha).sum() >= 100
        noised = np.clip(recorded + np.random.default_rng(42).uniform(
            -0.1, 0.1, recorded.shape), -1.0, 1.0)
        answers = np.concatenate([recorded, noised])
        new = reconstruct_slices_batch(answers, alpha, m, iters=400)
        old = uncertified_reconstruct(answers, alpha, m, iters=400)
        new_obj = chebyshev_objective(new, answers, m)
        old_obj = chebyshev_objective(old, answers, m)
        assert np.all(np.abs(new_obj - old_obj) <= stop_tol(answers))
        assert np.all(np.abs(new) <= 1 / m)


def l1_project_to_H(w, basis, box_scale):
    """The L1-minimizing projection of w onto
    {(s/k) sum_j lam_j u^j : lam in [-1,1]^k}, as a linear program in
    (lam, slack).  Returns (projection, lam)."""
    basis = np.asarray(basis, dtype=float)
    k = basis.shape[0]
    point_of_lam = (box_scale / k) * basis.T  # columns scale each lambda
    eye = np.eye(k)
    a_ub = np.block([[point_of_lam, -eye], [-point_of_lam, -eye]])
    b_ub = np.concatenate([w, -w])
    cost = np.concatenate([np.zeros(k), np.ones(k)])
    bounds = [(-1.0, 1.0)] * k + [(0.0, None)] * k
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    assert res.success, res.message
    lam = res.x[:k]
    return point_of_lam @ lam, lam


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
            proj, lam = l1_project_to_H(w, u, s)
            cost = np.abs(w - proj).sum()
            grid_cost = np.abs(w - cand).sum(axis=1).min()
            assert cost <= grid_cost + 1e-3
            assert np.all(np.abs(lam) <= 1 + 1e-9)

    def test_fast_mode_is_clipped_l2_projection(self):
        rng = np.random.default_rng(11)
        k = 8
        u = predicate_matrix(3).T  # not orthogonal; use hadamard
        from tiltlab.families import hadamard_orthogonal_set

        u = hadamard_orthogonal_set(k)
        s = 1 / 3
        w = rng.normal(size=k)
        proj, lam = project_to_H(w, u, s)
        want_lam = np.clip(u @ w / s, -1, 1)
        np.testing.assert_allclose(lam, want_lam, atol=1e-12)
        np.testing.assert_allclose(proj, (s / k) * (u.T @ lam), atol=1e-12)

    def test_fast_within_sqrt_k_of_exact(self):
        from tiltlab.families import hadamard_orthogonal_set

        rng = np.random.default_rng(12)
        k = 4
        u = hadamard_orthogonal_set(k)
        s = 0.25
        for _ in range(10):
            w = rng.normal(scale=0.5, size=k)
            fast, _ = project_to_H(w, u, s)
            exact, _ = l1_project_to_H(w, u, s)
            cost_fast = np.abs(w - fast).sum()
            cost_exact = np.abs(w - exact).sum()
            assert cost_fast <= math.sqrt(k) * cost_exact + 1e-9


    def test_column_stack_projects_each_column(self):
        from tiltlab.families import hadamard_orthogonal_set

        rng = np.random.default_rng(13)
        k, cols, s = 16, 5, 0.2
        u = hadamard_orthogonal_set(k)
        w = rng.normal(scale=0.3, size=(k, cols))
        proj, lam = project_to_H(w, u, s)
        assert proj.shape == lam.shape == (k, cols)
        for c in range(cols):
            proj_c, lam_c = project_to_H(w[:, c], u, s)
            np.testing.assert_allclose(lam[:, c], lam_c, rtol=0, atol=1e-14)
            np.testing.assert_allclose(proj[:, c], proj_c, rtol=0, atol=1e-14)
        with pytest.raises(ValueError, match="cols"):
            project_to_H(np.zeros((k, 2, 2)), u, s)
        with pytest.raises(ValueError, match="cols"):
            project_to_H(np.zeros((k + 1, 2)), u, s)


class TestQueryRelease:
    def test_precondition_message_names_required_mass(self):
        fam = make_family("matrix-columns", d=8, n_columns=32, seed=13)
        hist = HistogramVector([0], [5.0], universe_size=32)
        with pytest.raises(ValueError, match="requires total mass"):
            histogram_query_release(
                fam, hist, epsilon=1.0, delta=1e-6, alpha=0.5,
                rng=np.random.default_rng(0),
            )

    @pytest.mark.parametrize("bad", [-1, 32])
    def test_rejects_elements_outside_columns(self, bad):
        fam = make_family("matrix-columns", d=8, n_columns=32, seed=13)
        mass = required_mass(1.0, 1e-6, 0.5)
        hist = HistogramVector([0, bad], [mass, mass])
        with pytest.raises(ValueError, match="column indices"):
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
        dense[hist.elements] = hist.weights
        truth = fam.matrix @ dense / hist.total
        assert np.linalg.norm(yhat - truth) <= 0.5 * math.sqrt(16)
        assert released.total == pytest.approx(n_req, abs=1e-6)


def group_shrink(ds: Dataset, p: int) -> Dataset:
    """Keep one representative per block of p points; remainder discarded."""
    if not isinstance(p, int) or p < 1:
        raise ValueError("group size p must be a positive integer")
    q = ds.n // p
    if q == 0:
        raise ValueError("dataset smaller than the group size")
    keep = slice(0, q * p, p)
    return Dataset(ds.points[keep].copy())


class TestReductions:
    def test_group_wrap_metadata_and_estimate(self):
        fam = make_family("hypercube", d=3)
        ds = Dataset(support_batch(fam).densify()[:4])
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
        ds = Dataset(support_batch(fam).densify()[:2])
        ans = GroupPrivacyWrapped(EmpiricalMean(), p=1)(ds)
        np.testing.assert_array_equal(ans.estimate, ds.points.mean(axis=0))
        assert ans.delta == 0.0

    def test_group_shrink_discards_remainder(self):
        fam = make_family("hypercube", d=2)
        ds = Dataset(support_batch(fam).densify())  # 4 points
        small = group_shrink(ds, p=3)
        assert small.n == 1
        with pytest.raises(ValueError):
            group_shrink(small, p=2)

    def test_pad_reduction_recovers_small_mean(self):
        fam = make_family("hypercube", d=4)
        support = support_batch(fam).densify()
        rng = np.random.default_rng(17)
        for _ in range(20):
            anchor = support[rng.integers(len(support))]
            ds = Dataset(support[rng.choice(len(support), size=4)])
            padded = PaddedMechanism(EmpiricalMean(), k=3, anchor=anchor)
            ans = padded(ds)
            np.testing.assert_allclose(
                ans.estimate, ds.points.mean(axis=0), atol=1e-12
            )
        with pytest.raises(ValueError, match="anchor"):
            PaddedMechanism(EmpiricalMean(), k=3, anchor=support[:1])
