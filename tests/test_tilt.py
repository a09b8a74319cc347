"""Exponential-tilt distributions and the divergence identity.

Oracles:
    - Hypercube closed forms at theta_i = ln(3)/2: Pr[+1] = 3/4, mean 1/2,
      variance 3/4.
    - Exact means, and the column covariance of structure.tilted_column_cov,
      against brute-force enumeration with softmax weights (independent
      route, no tanh shortcut; tests/tilt_enumeration.py).
    - Divergence check against closed-form divergences for the exact-mean
      mechanism: sum_i sech^2(theta_i) on the hypercube and
      (1/m) sum_{i,j,r} sech^2(T[i,j,r]) for the type-conditioned tensor tilt.
    - Batched sampling against a per-point copy of the sampling recipe
      (uniform tensor types by rng.integers, then a key word and the v-bits,
      each decided as a 53-bit comparison in Python integers), and
      PointBatch.densify against a test-local per-point resolve; its
      m = k = 1 fast path against a test-local copy of the general scatter.
    - Exact tilt means (overall and per type) on random small families
      against softmax-weighted enumeration, as a hypothesis property.
    - The matrix-columns tilt against its one softmax, tilt_weights, bitwise,
      and its column mass against 1 at radii up to 1e300.
    - The sampler's Pr[v = +1] table against scipy.special.expit(2 t).
    - Tensor type tilts, bitwise, against a test-local einsum over the
      integer basis, on random thetas of mixed scales.
    - The chunk sampler's law: +1 frequencies over 1e8 bits against
      ceil(p 2^53) / 2^53 within 6 standard deviations, and a block of
      forced chunk ties against a direct 53-bit comparison of keyed bits.
    - Blocks mapped in 1, 2 or 3 lanes (and the gap Monte Carlo built on
      them) against one one-block draw and the recipe: same rows, same
      generator state, chunk ties in helper lanes included.
    - Draw groups against blocks drawn one at a time in one lane: the same
      batches handed to fn and the same generator state at block sizes 1,
      7 and SAMPLE_BLOCK, with lane boundaries inside groups and chunk ties
      on both sides of a group boundary; count = 0 as one empty batch.
"""

import math
import threading
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import expit

from tiltlab import tilt as tilt_module
from tiltlab.ada import gap
from tiltlab.errors import CapacityError
from tiltlab.families import make_family, support_batch
from tiltlab.mechanisms import ClampedMean, EmpiricalMean
from tiltlab.structure import tilted_column_cov
from tiltlab.tilt import (
    divergence_check,
    log_weights,
    plus_prob,
    tilt,
    tilt_mean,
    tilt_map_blocks,
    tilt_sample_many,
    tilt_weights,
    typed_means,
)

from tilt_enumeration import brute_cov, brute_mean, recipe_bits


def resolve(fam, batch, idx):
    """Dense vector of point idx of batch, built from the family definition
    one point at a time."""
    if fam.kind == "matrix-columns":
        return fam.matrix[:, batch.cols[idx]]
    i, j = divmod(int(batch.types[idx]), fam.k)
    x = np.zeros((fam.m, fam.k, fam.d))
    x[i] = np.outer(fam.basis[j], batch.v[idx])
    return x.reshape(fam.dim)


class TestHypercubeClosedForm:
    def test_quarter_law(self):
        fam = make_family("hypercube", d=4)
        theta = np.full(4, math.log(3) / 2)
        dist = tilt(fam, theta)
        mu = tilt_mean(dist)
        np.testing.assert_allclose(mu, 0.5)
        cov = brute_cov(fam, theta)
        np.testing.assert_allclose(np.diag(cov), 0.75)
        assert np.allclose(cov - np.diag(np.diag(cov)), 0.0)
        # plus-probability via sampling the closed-form law
        rng = np.random.default_rng(0)
        refs = tilt_sample_many(dist, rng, 20000)
        frac = np.mean(refs.v[:, 0] == 1)
        assert abs(frac - 0.75) < 0.02

    def test_mean_matches_enumeration(self):
        fam = make_family("hypercube", d=3)
        rng = np.random.default_rng(1)
        theta = rng.normal(size=3)
        dist = tilt(fam, theta)
        np.testing.assert_allclose(
            tilt_mean(dist), brute_mean(fam, theta), atol=1e-12
        )
        np.testing.assert_allclose(tilt_mean(dist), np.tanh(theta), atol=1e-12)


class TestPlusProb:
    def test_within_four_ulps_of_expit(self):
        # numpy's SIMD exp and libm's may differ in the last bits
        t = np.linspace(-800.0, 800.0, 1_600_001)
        got, want = plus_prob(t), expit(2.0 * t)
        # both are >= 0, so the int64 views are ordered and differ by ulps
        ulps = np.abs(got.view(np.int64) - want.view(np.int64))
        assert int(ulps.max()) <= 4

    def test_saturates_exactly_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            p = plus_prob(np.array([-1e3, 1e3]))
        assert p[0] == 0.0 and p[1] == 1.0

    def test_huge_radius_tilt_warns_nothing(self):
        # a tilt builds no log-partition, so no sum of log 2cosh overflows
        fam = make_family("hypercube", d=64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dist = tilt(fam, np.full(64, 1e308 / 8))
            batch = tilt_sample_many(dist, np.random.default_rng(0), 50)
        assert np.all(batch.v == 1)


class TestTensorTilt:
    def test_mean_matches_enumeration(self):
        fam = make_family("tensor", m=2, k=2, d=2)
        rng = np.random.default_rng(2)
        theta = rng.normal(scale=0.7, size=fam.dim)
        dist = tilt(fam, theta)
        np.testing.assert_allclose(
            tilt_mean(dist), brute_mean(fam, theta), atol=1e-12
        )

    def test_log_weights_normalized(self):
        fam = make_family("tensor", m=2, k=2, d=3)
        theta = np.random.default_rng(3).normal(size=fam.dim)
        lw = log_weights(tilt(fam, theta))
        assert math.isclose(np.exp(lw).sum(), 1.0, rel_tol=1e-12)

    def test_typed_mean_bounds(self):
        # |mu_{i,p,r}| <= 1/m and |<mu_{i,*,r}, u_j>| <= 1/m for the
        # type-conditioned tensor tilt.
        fam = make_family("tensor", m=3, k=4, d=2)
        rng = np.random.default_rng(4)
        theta = rng.normal(scale=2.0, size=fam.dim)
        dist = tilt(fam, theta)
        mu = tilt_mean(dist).reshape(3, 4, 2)
        assert np.max(np.abs(mu)) <= 1 / 3 + 1e-12
        for i in range(3):
            for r in range(2):
                for j in range(4):
                    c = abs(float(mu[i, :, r] @ fam.basis[j]))
                    assert c <= 1 / 3 + 1e-12

    def test_typed_mean_matches_conditional_enumeration(self):
        fam = make_family("tensor", m=2, k=2, d=2)
        theta = np.random.default_rng(5).normal(size=fam.dim)
        dist = tilt(fam, theta)
        batch = support_batch(fam)
        ti, tj = np.divmod(batch.types, fam.k)
        w = np.exp(log_weights(dist))
        mat = batch.densify()
        for i in range(2):
            for j in range(2):
                sel = (ti == i) & (tj == j)
                cond = (w[sel] / w[sel].sum()) @ mat[sel]
                tid = i * fam.k + j
                np.testing.assert_allclose(
                    typed_means(dist)[tid], cond, atol=1e-12
                )

    @pytest.mark.parametrize("m,k,d", [(6, 64, 32), (3, 8, 7), (2, 4, 5),
                                       (1, 1, 64)])
    def test_type_tilts_match_einsum_bitwise(self, m, k, d):
        # the +-1 products are exact, so summing b in order must give the
        # einsum's bits; entries of mixed sizes make any reordering round
        fam = make_family("tensor", m=m, k=k, d=d)
        rng = np.random.default_rng(8)
        for _ in range(200):
            theta = rng.normal(size=fam.dim) * 10.0 ** rng.uniform(
                -4, 2, size=fam.dim)
            th = theta.reshape(m, k, d)
            want = np.einsum("ibc,jb->ijc", th, fam.basis).reshape(-1, d)
            assert np.array_equal(tilt(fam, theta).type_tilts, want)

    def test_sampling_matches_mean(self):
        fam = make_family("tensor", m=2, k=2, d=4)
        theta = np.random.default_rng(6).normal(scale=0.5, size=fam.dim)
        dist = tilt(fam, theta)
        rng = np.random.default_rng(7)
        emp = tilt_sample_many(dist, rng, 40000).densify().mean(axis=0)
        np.testing.assert_allclose(emp, tilt_mean(dist), atol=0.03)


class TestMatrixColumns:
    def test_mean_matches_enumeration(self):
        fam = make_family("matrix-columns", d=6, n_columns=30, seed=10)
        theta = np.random.default_rng(11).normal(scale=0.3, size=6)
        dist = tilt(fam, theta)
        np.testing.assert_allclose(
            tilt_mean(dist), brute_mean(fam, theta), atol=1e-12
        )

    def test_cov_matches_enumeration(self):
        fam = make_family("matrix-columns", d=5, n_columns=20, seed=12)
        theta = np.random.default_rng(13).normal(scale=0.4, size=5)
        (p,), (mu,) = tilt_weights(fam.matrix, theta[None])
        np.testing.assert_allclose(tilted_column_cov(fam.matrix, p, mu),
                                   brute_cov(fam, theta), atol=1e-12)

    def test_one_softmax(self):
        # tilt() keeps a row of tilt_weights, the one column softmax, as it
        # is: the structure checks and the attack see the same bits
        fam = make_family("matrix-columns", d=16, n_columns=64, seed=20)
        rng = np.random.default_rng(21)
        for scale in (0.1, 1.0, 10.0, 1e3):
            theta = rng.normal(scale=scale, size=fam.dim)
            dist = tilt(fam, theta)
            (p,), (mu,) = tilt_weights(fam.matrix, theta[None])
            assert np.array_equal(dist.column_p, p)
            assert np.array_equal(dist.column_mean, mu)
            assert np.array_equal(typed_means(dist), mu[None])
            assert np.array_equal(tilt_mean(dist), mu)

    @pytest.mark.parametrize("radius", [1e3, 1e15, 1e17, 1e300])
    def test_mass_sums_to_one_at_any_radius(self, radius):
        # the d = 1 logits are +-radius; a log-partition added to radius
        # itself loses its low digits past about 1e15
        fam = make_family("matrix-columns", d=1, n_columns=7, seed=3)
        dist = tilt(fam, np.array([radius]))
        assert dist.column_p.sum() == pytest.approx(1.0, rel=0, abs=1e-15)
        batch = tilt_sample_many(dist, np.random.default_rng(22), 200)
        # all the mass sits on the +1 columns
        assert np.all(fam.matrix[0, batch.cols] == 1)


class TestScore:
    def test_fresh_score_mean_zero(self):
        fam = make_family("tensor", m=2, k=2, d=3)
        theta = np.random.default_rng(14).normal(size=fam.dim)
        dist = tilt(fam, theta)
        q = np.random.default_rng(15).normal(size=fam.dim)
        batch = support_batch(fam)
        w = np.exp(log_weights(dist))
        total = 0.0
        for idx, (wt, tid) in enumerate(zip(w, batch.types)):
            mu = typed_means(dist)[int(tid)]
            total += wt * float((resolve(fam, batch, idx) - mu) @ q)
        assert abs(total) < 1e-12


def enumerated_means(fam, theta):
    """Overall and per-type means by softmax-weighted enumeration: within a
    type Pr[x] is proportional to exp(<theta, x>), and types are uniform."""
    batch = support_batch(fam)
    dense = batch.densify()
    logits = dense @ theta
    typed = []
    for t in range(fam.n_types):
        sel = batch.types == t
        w = np.exp(logits[sel] - logits[sel].max())
        typed.append((w / w.sum()) @ dense[sel])
    return np.mean(typed, axis=0), typed


@st.composite
def small_families(draw):
    kind = draw(st.sampled_from(["hypercube", "tensor", "matrix-columns"]))
    if kind == "hypercube":
        return make_family(kind, d=draw(st.integers(1, 5)))
    if kind == "tensor":
        return make_family(kind, m=draw(st.integers(1, 3)),
                           k=draw(st.sampled_from([1, 2, 4])),
                           d=draw(st.integers(1, 3)))
    return make_family(kind, d=draw(st.integers(1, 6)),
                       n_columns=draw(st.integers(1, 24)),
                       seed=draw(st.integers(0, 2 ** 32 - 1)))


class TestExactMeanProperty:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(st.data())
    def test_means_match_softmax_enumeration(self, data):
        fam = data.draw(small_families())
        theta = np.array(data.draw(st.lists(
            st.floats(-3, 3), min_size=fam.dim, max_size=fam.dim)))
        dist = tilt(fam, theta)
        mean, typed = enumerated_means(fam, theta)
        np.testing.assert_allclose(tilt_mean(dist), mean, rtol=0, atol=1e-12)
        for t in range(fam.n_types):
            np.testing.assert_allclose(typed_means(dist)[t], typed[t],
                                       rtol=0, atol=1e-12)


class TestDivergence:
    def test_hypercube_exact_mean_closed_form(self):
        fam = make_family("hypercube", d=2)
        theta = np.array([0.4, -0.7])
        for n in (1, 2):
            report = divergence_check(fam, theta, EmpiricalMean(), n=n)
            assert report.abs_err <= 1e-6
            closed = float(np.sum(1 / np.cosh(theta) ** 2))
            assert report.lhs == pytest.approx(closed, abs=1e-6)
            assert report.rhs == pytest.approx(closed, abs=1e-10)

    def test_single_point_tensor_example(self):
        fam = make_family("tensor", m=1, k=1, d=2)
        theta = np.array([0.3, -0.2])
        report = divergence_check(fam, theta, EmpiricalMean(), n=2)
        assert report.n_datasets == 16
        assert report.abs_err <= 1e-6
        closed = float(np.sum(1 / np.cosh(theta) ** 2))
        assert report.rhs == pytest.approx(closed, abs=1e-10)

    def test_tensor_type_conditioned_closed_form(self):
        fam = make_family("tensor", m=2, k=2, d=1)
        rng = np.random.default_rng(18)
        theta = rng.normal(scale=0.6, size=fam.dim)
        report = divergence_check(fam, theta, EmpiricalMean(), n=1)
        assert report.abs_err <= 1e-6
        dist = tilt(fam, theta)
        closed = 0.0
        for i in range(2):
            for j in range(2):
                t = dist.type_tilts[i * fam.k + j]
                closed += float(np.sum(1 / np.cosh(t) ** 2))
        closed /= fam.m
        assert report.lhs == pytest.approx(closed, abs=1e-6)

    def test_nonlinear_mechanism(self):
        fam = make_family("hypercube", d=2)
        theta = np.array([0.1, 0.25])
        report = divergence_check(fam, theta, ClampedMean(bound=0.3), n=2)
        assert report.abs_err <= 1e-6

    def test_random_linear_mechanism(self):
        fam = make_family("tensor", m=2, k=2, d=1)
        rng = np.random.default_rng(19)
        theta = rng.normal(scale=0.5, size=fam.dim)
        lin = rng.normal(size=(fam.dim, fam.dim))

        def mech(points):
            return lin @ points.mean(axis=0)

        report = divergence_check(fam, theta, mech, n=2)
        assert report.abs_err <= 1e-6

    def test_capacity_error(self):
        fam = make_family("hypercube", d=4)
        with pytest.raises(CapacityError):
            divergence_check(fam, np.zeros(4), EmpiricalMean(), n=6)


BATCH_FAMILIES = {
    "hypercube": dict(d=5),
    "tensor": dict(m=2, k=4, d=3),
    "matrix-columns": dict(d=6, n_columns=12, seed=5),
}


def per_point_sample(dist, rng, count):
    """The sampling recipe point by point: (types, bits) or column ids."""
    fam = dist.family
    if fam.kind == "matrix-columns":
        return rng.choice(fam.n_columns, size=count, p=dist.column_p)
    n_types = dist.type_tilts.shape[0]
    if n_types == 1:
        types = np.zeros(count, dtype=np.int64)
    else:
        # tensor types are uniform by construction
        types = rng.integers(0, n_types, size=count)
    return types, recipe_bits(rng, expit(2.0 * dist.type_tilts[types]))


class TestPointBatch:
    @pytest.mark.parametrize("kind", sorted(BATCH_FAMILIES))
    def test_sample_many_matches_per_point_recipe(self, kind):
        fam = make_family(kind, **BATCH_FAMILIES[kind])
        theta = np.random.default_rng(30).normal(size=fam.dim)
        dist = tilt(fam, theta)
        batch = tilt_sample_many(dist, np.random.default_rng(31), 500)
        want = per_point_sample(dist, np.random.default_rng(31), 500)
        assert len(batch) == 500
        if kind == "matrix-columns":
            assert np.array_equal(batch.cols, want)
        else:
            assert np.array_equal(batch.types, want[0])
            assert np.array_equal(batch.v, want[1])
            assert batch.v.dtype == np.int8

    @pytest.mark.parametrize("kind", sorted(BATCH_FAMILIES))
    def test_densify_matches_resolve(self, kind):
        fam = make_family(kind, **BATCH_FAMILIES[kind])
        batch = support_batch(fam)
        dense = batch.densify()
        assert dense.dtype == np.float64 and dense.flags.c_contiguous
        assert np.array_equal(
            dense, np.stack([resolve(fam, batch, i) for i in range(len(batch))]))
        sampled = tilt_sample_many(tilt(fam, np.full(fam.dim, 0.3)),
                                   np.random.default_rng(32), 50)
        assert np.array_equal(
            sampled.densify(),
            np.stack([resolve(fam, sampled, i) for i in range(50)]))

    def test_single_type_fast_path_matches_scatter(self):
        # at m = k = 1 densify casts the v-bits; the general tensor scatter
        # (copied here) must give the same float64 bits
        fam = make_family("hypercube", d=7)
        batch = tilt_sample_many(tilt(fam, np.full(fam.dim, 0.2)),
                                 np.random.default_rng(34), 300)
        n = len(batch)
        ti, tj = np.divmod(batch.types, fam.k)
        x = np.zeros((n, fam.m, fam.k, fam.d))
        x[np.arange(n), ti] = fam.basis[tj][:, :, None] * batch.v[:, None, :]
        scatter = x.reshape(n, fam.dim)
        dense = batch.densify()
        assert dense.dtype == scatter.dtype == np.float64
        assert dense.tobytes() == scatter.tobytes()


def p_at(p):
    """(tilt, exact Pr[v = +1]) with the tilt's Pr[v = +1] near p."""
    t = float(np.arctanh(2.0 * p - 1.0)) if 0.0 < p < 1.0 else \
        math.copysign(1e3, p - 0.5)
    return t, float(plus_prob(np.array(t)))


# Pr[v = +1] grid of the law test: 0 and 1; just below 2^-16 and at 2^-17,
# where every +1 comes from a tie (hi = 0); just above chunk boundaries
# 1, 12345 and 65535 and just below them; and values across (0, 1)
LAW_GRID = ([0.0, 1.0, 0.5] + [2.0 ** -16 * (1 - 1e-6)] * 8
            + [2.0 ** -17] * 4
            + [b / 65536 * (1 + s * 1e-6) for b in (1, 12345, 65535)
               for s in (-1, 1)]
            + [0.3, 0.7, 0.01, 0.99, 1e-3, 0.999, 0.123, 0.25, 0.75,
               2.0 ** -20, 0.5 + 1e-12])
LAW_ROWS = 3_125_000  # 32 coordinates: 1e8 bits


class TestChunkSampler:
    def test_thresholds_split_ceil_exactly(self):
        p = np.array([0.0, 1.0, 0.5, 2.0 ** -16, 2.0 ** -16 * (1 - 1e-9),
                      5e-324, 1e-300, 1 - 2.0 ** -53, 1 - 2.0 ** -16, 0.3])
        hi, lo = tilt_module.chunk_thresholds(p)
        assert hi.dtype == np.uint16 and lo.dtype == np.uint64
        for q, h, l in zip(p, hi.tolist(), lo.tolist()):
            assert h * 2 ** 37 + l == math.ceil(Fraction(q) * 2 ** 53)
            # lo is a 37-bit rest except at p = 1, whose T = 2^53 has no
            # 16-bit top
            assert l < 2 ** 37 or (q == 1.0 and (h, l) == (65535, 2 ** 37))

    def test_law_over_1e8_bits(self):
        # each coordinate's +1 count is Binomial(LAW_ROWS, T / 2^53); it
        # must lie within 6 standard deviations, and the coordinates whose
        # every +1 is a tie's must do so pooled too (a tie decided wrongly
        # shifts them by up to 2^-16, which one coordinate cannot see)
        assert len(LAW_GRID) * LAW_ROWS >= 10 ** 8
        tilts, p = zip(*(p_at(q) for q in LAW_GRID))
        fam = make_family("hypercube", d=len(LAW_GRID))
        counts = sum(tilt_map_blocks(
            tilt(fam, np.array(tilts)), np.random.default_rng(50), LAW_ROWS,
            tilt_module.SAMPLE_BLOCK,
            lambda b: np.count_nonzero(b.v > 0, axis=0)))
        q = np.array([math.ceil(Fraction(x) * 2 ** 53) / 2 ** 53 for x in p])
        assert counts[q == 0].sum() == 0
        assert np.all(counts[q == 1] == LAW_ROWS)
        mid = (q > 0) & (q < 1)
        sd = np.sqrt(LAW_ROWS * q * (1 - q))
        z = (counts - LAW_ROWS * q)[mid] / sd[mid]
        assert np.abs(z).max() <= 6.0
        tie_only = mid & (q < 2.0 ** -16)
        assert tie_only.sum() == 14  # 8 + 4 + 2^-20 + the boundary-1 one
        pooled = (counts[tie_only].sum() - LAW_ROWS * q[tie_only].sum()) \
            / math.sqrt((sd[tie_only] ** 2).sum())
        assert abs(pooled) <= 6.0

    def test_forced_ties_are_a_53_bit_comparison(self):
        # every chunk equals its hi, so every bit is decided by the keyed
        # bits: each must equal U < T for U = chunk * 2^37 + the top 37
        # bits of Philox(key, counter=first + i)
        rng = np.random.default_rng(51)
        rows, d, n_types, first, key = 40, 7, 3, 12345, 2 ** 63 + 17
        lo = rng.integers(0, 2 ** 37 + 1, size=(n_types, d), dtype=np.uint64)
        lo[0, :3] = [0, 2 ** 37, 2 ** 36]
        types = rng.integers(0, n_types, size=rows)
        hi = rng.integers(0, 2 ** 16, size=(n_types, d)).astype(np.uint16)
        hi[0, 1] = 65535  # the p = 1 split
        # bit 3 of row 0 ties at U = T exactly, which must give -1
        lo[types[0], 3] = np.random.Philox(
            key=key, counter=first + 3).random_raw() >> 27
        chunks = hi[types]
        v = tilt_module.chunk_signs(chunks, hi[types], lo, types, first,
                                    np.random.Philox(key=key))
        for i in range(rows * d):
            r, c = divmod(i, d)
            low = np.random.Philox(key=key, counter=first + i).random_raw() >> 27
            u = int(chunks[r, c]) * 2 ** 37 + low
            t = int(hi[types[r], c]) * 2 ** 37 + int(lo[types[r], c])
            assert v[r, c] == (1 if u < t else -1)
        assert v[0, 3] == -1
        # a tie never falls below lo = 0 and always below lo = 2^37 (p = 1)
        assert np.all(v[types == 0, 0] == -1) and np.all(v[types == 0, 1] == 1)

    def test_forced_ties_follow_lo(self):
        # 20000 ties at lo = 2^37 / 4: the keyed bits fall below it with
        # probability 1/4, within 6 standard deviations
        n = 20000
        chunks = np.zeros((n, 1), dtype=np.uint16)
        lo = np.array([[2 ** 35]], dtype=np.uint64)
        v = tilt_module.chunk_signs(chunks, chunks, lo, np.zeros(n, np.int64),
                                    0, np.random.Philox(key=52))
        assert abs(np.count_nonzero(v > 0) - n / 4) <= 6 * math.sqrt(n * 3 / 16)


LANE_FAMILIES = {
    "hypercube": dict(kind="hypercube", d=16),
    "tensor": dict(kind="tensor", m=2, k=4, d=5),
    "matrix-columns": dict(kind="matrix-columns", d=12, n_columns=40,
                           seed=10),
}
LANE_BLOCK = 64
LANE_COUNT = 3 * LANE_BLOCK + 17  # three full blocks and a ragged fourth


def force_lanes(monkeypatch, cpus):
    """One lane per CPU on any draw, with cpus CPUs."""
    monkeypatch.setattr(tilt_module, "LANE_DRAWS", 1)
    monkeypatch.setattr(tilt_module, "_cpus_available", lambda: cpus)


def lane_draw(name, rng):
    """The family's tilt, LANE_COUNT points mapped in LANE_BLOCK blocks,
    and how many blocks ran on the calling thread."""
    fam = make_family(**LANE_FAMILIES[name])
    dist = tilt(fam, np.random.default_rng(40).normal(size=fam.dim))
    caller = threading.get_ident()
    out = tilt_map_blocks(dist, rng, LANE_COUNT, LANE_BLOCK,
                          lambda b: (b, threading.get_ident() == caller))
    blocks, on_caller = zip(*out)
    return dist, blocks, sum(on_caller)


def seen_batches(dist, count, block, seed):
    """What fn is handed, batch by batch, and the generator's end state."""
    rng = np.random.default_rng(seed)
    seen = tilt_map_blocks(dist, rng, count, block,
                           lambda b: (b.types, b.v, b.cols))
    return seen, rng.bit_generator.state


def ungrouped_batches(monkeypatch, dist, count, block, seed):
    """seen_batches with every block drawn on its own, in one lane."""
    with monkeypatch.context() as patch:
        patch.setattr(tilt_module, "SAMPLE_GROUP", 1)
        force_lanes(patch, 1)
        return seen_batches(dist, count, block, seed)


def assert_same_batches(got, want):
    (got_seen, got_state), (want_seen, want_state) = got, want
    assert len(got_seen) == len(want_seen)
    for got_arrays, want_arrays in zip(got_seen, want_seen):
        for a, b in zip(got_arrays, want_arrays):
            assert (a is None) == (b is None)
            assert a is None or (a.dtype == b.dtype and np.array_equal(a, b))
    assert got_state == want_state


class TestLanes:
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("name", sorted(LANE_FAMILIES))
    def test_blocks_match_one_block_draw(self, monkeypatch, name, cpus):
        force_lanes(monkeypatch, cpus)
        rng = np.random.default_rng(41)
        dist, blocks, on_caller = lane_draw(name, rng)
        # lane 0 of cpus holds the first 4 // cpus of the 4 blocks
        assert on_caller == 4 // cpus
        assert [len(b) for b in blocks] == [LANE_BLOCK] * 3 + [17]
        want_rng = np.random.default_rng(41)
        want = tilt_sample_many(dist, want_rng, LANE_COUNT)
        assert np.array_equal(np.concatenate([b.types for b in blocks]),
                              want.types)
        if name == "matrix-columns":
            assert np.array_equal(np.concatenate([b.cols for b in blocks]),
                                  want.cols)
        else:
            assert np.array_equal(np.concatenate([b.v for b in blocks]),
                                  want.v)
        if name == "tensor":
            # the type draw leaves half a word buffered, which must survive
            assert want_rng.bit_generator.state["has_uint32"] == 1
        assert rng.bit_generator.state == want_rng.bit_generator.state
        if name != "matrix-columns":
            # the one-lane draw is the recipe: the types, a key word, then
            # ceil(d / 4) words a row, which is what each lane advances by
            recipe_rng = np.random.default_rng(41)
            types, v = per_point_sample(dist, recipe_rng, LANE_COUNT)
            assert np.array_equal(want.types, types)
            assert np.array_equal(want.v, v)
            assert rng.bit_generator.state == recipe_rng.bit_generator.state

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_ties_in_helper_lanes_match_one_lane(self, monkeypatch, cpus):
        # a tie's keyed bits are indexed by the bit's place in the whole
        # draw, so a helper lane decides its ties as one lane does
        fam = make_family("hypercube", d=64)
        dist = tilt(fam, np.random.default_rng(46).normal(size=fam.dim))
        count = 8 * tilt_module.SAMPLE_BLOCK + 17  # about 8 ties
        want_rng = np.random.default_rng(47)
        want = tilt_sample_many(dist, want_rng, count)
        caller = threading.get_ident()
        helper_ties = []
        decide = tilt_module.chunk_signs

        def spy(chunks, hi, *rest):
            if threading.get_ident() != caller:
                helper_ties.append(np.count_nonzero(chunks == hi))
            return decide(chunks, hi, *rest)

        force_lanes(monkeypatch, cpus)
        monkeypatch.setattr(tilt_module, "chunk_signs", spy)
        rng = np.random.default_rng(47)
        v = np.concatenate(tilt_map_blocks(
            dist, rng, count, tilt_module.SAMPLE_BLOCK, lambda b: b.v))
        assert sum(helper_ties) > 0
        assert np.array_equal(v, want.v)
        assert rng.bit_generator.state == want_rng.bit_generator.state

    def test_philox_runs_one_lane(self, monkeypatch):
        force_lanes(monkeypatch, 3)
        rng = np.random.Generator(np.random.Philox(41))
        dist, blocks, on_caller = lane_draw("hypercube", rng)
        assert on_caller == 4
        want_rng = np.random.Generator(np.random.Philox(41))
        want = tilt_sample_many(dist, want_rng, LANE_COUNT)
        assert np.array_equal(np.concatenate([b.v for b in blocks]), want.v)
        # Philox state holds arrays, which assert_equal compares in dicts
        np.testing.assert_equal(rng.bit_generator.state,
                                want_rng.bit_generator.state)

    def test_helper_lane_failure_reaches_caller(self, monkeypatch):
        force_lanes(monkeypatch, 3)
        fam = make_family("hypercube", d=16)
        dist = tilt(fam, np.zeros(fam.dim))
        caller = threading.get_ident()

        def fn(batch):
            if threading.get_ident() != caller:
                raise RuntimeError("helper lane")
            return batch

        before = threading.active_count()
        with pytest.raises(RuntimeError, match="helper lane"):
            tilt_map_blocks(dist, np.random.default_rng(0), LANE_COUNT,
                            LANE_BLOCK, fn)
        assert threading.active_count() == before

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_gap_matches_one_lane(self, monkeypatch, cpus):
        fam = make_family(**LANE_FAMILIES["tensor"])
        dist = tilt(fam, np.random.default_rng(42).normal(size=fam.dim))
        refs = tilt_sample_many(dist, np.random.default_rng(43), 64)
        w = np.random.default_rng(44).normal(size=fam.d)

        def query(batch):
            return np.tanh(batch.v @ w + batch.types)

        mc_count = 3 * tilt_module.SAMPLE_BLOCK + 17
        want_rng = np.random.default_rng(45)
        want = gap(query, refs, dist, mc_count, want_rng)
        force_lanes(monkeypatch, cpus)
        rng = np.random.default_rng(45)
        assert gap(query, refs, dist, mc_count, rng) == want
        assert rng.bit_generator.state == want_rng.bit_generator.state

    @pytest.mark.parametrize("cpus", [2, 3])
    @pytest.mark.parametrize("block", [1, 7, tilt_module.SAMPLE_BLOCK])
    @pytest.mark.parametrize("name", sorted(LANE_FAMILIES))
    def test_draw_groups_are_invisible(self, monkeypatch, name, block, cpus):
        # 10 blocks, the last ragged unless block = 1: two lanes draw groups
        # of 4 and 1 blocks each; three lanes split at blocks 3 and 6, so
        # they draw groups of 3, 3 and 4 blocks
        assert tilt_module.SAMPLE_GROUP == 4
        fam = make_family(**LANE_FAMILIES[name])
        dist = tilt(fam, np.random.default_rng(40).normal(size=fam.dim))
        count = 9 * block + (block + 1) // 2
        want = ungrouped_batches(monkeypatch, dist, count, block, 60)
        force_lanes(monkeypatch, cpus)
        got = seen_batches(dist, count, block, 60)
        assert [len(types) for types, _, _ in got[0]] == \
            [block] * 9 + [(block + 1) // 2]
        assert_same_batches(got, want)

    def test_ties_across_a_group_boundary(self, monkeypatch):
        # two lanes over 10 blocks: the calling thread draws blocks 0-3 and
        # then block 4; the chunks of the last row of the first group and
        # of the first row of the second are made to tie, and each must be
        # decided by the keyed bits at its index in the whole draw, as when
        # blocks are drawn one at a time
        fam = make_family("hypercube", d=16)
        dist = tilt(fam, np.random.default_rng(40).normal(size=fam.dim))
        block, seed = 7, 61
        edge = tilt_module.SAMPLE_GROUP * block  # first row of group 2
        count = 10 * block - 3
        recipe = np.random.default_rng(seed).bit_generator
        key = int(recipe.random_raw())
        chunks = recipe.random_raw(count * 4).astype("<u8").view("<u2") \
            .reshape(count, fam.d)
        dist.chunk_hi = dist.chunk_hi.copy()
        dist.chunk_hi[0, :2] = chunks[edge - 1, 0], chunks[edge, 1]
        dist.chunk_lo = np.full_like(dist.chunk_lo, 2 ** 36)
        want = ungrouped_batches(monkeypatch, dist, count, block, seed)

        caller = threading.get_ident()
        decide = tilt_module.chunk_signs
        tied_rows = []  # per chunk_signs call of the caller, its tied rows

        def spy(chunks, hi, lo, types, first, philox):
            if threading.get_ident() == caller:
                tied = np.flatnonzero(chunks == hi)
                tied_rows.append(set((first + tied) // fam.d))
            return decide(chunks, hi, lo, types, first, philox)

        force_lanes(monkeypatch, 2)
        monkeypatch.setattr(tilt_module, "chunk_signs", spy)
        got = seen_batches(dist, count, block, seed)
        assert_same_batches(got, want)
        assert len(tied_rows) == 2
        assert edge - 1 in tied_rows[0] and edge in tied_rows[1]
        v = np.concatenate([v for _, v, _ in got[0]])
        for row, col in ((edge - 1, 0), (edge, 1)):
            keyed = np.random.Philox(key=key, counter=row * fam.d + col) \
                .random_raw() >> 27
            assert v[row, col] == (1 if keyed < 2 ** 36 else -1)

    @pytest.mark.parametrize("name", sorted(LANE_FAMILIES))
    def test_count_zero_is_one_empty_batch(self, name):
        fam = make_family(**LANE_FAMILIES[name])
        dist = tilt(fam, np.random.default_rng(40).normal(size=fam.dim))
        seen = tilt_map_blocks(dist, np.random.default_rng(0), 0, LANE_BLOCK,
                               lambda b: b)
        assert len(seen) == 1 and len(seen[0]) == 0
        batch = tilt_sample_many(dist, np.random.default_rng(0), 0)
        assert len(batch) == 0
        if name == "matrix-columns":
            assert batch.cols.shape == (0,)
        else:
            assert batch.v.shape == (0, fam.d)
        assert batch.densify().shape == (0, fam.dim)
