"""Exponential-tilt distributions and the divergence identity.

Oracles:
    - Hypercube closed forms at theta_i = ln(3)/2: Pr[+1] = 3/4, mean 1/2,
      variance 3/4.
    - Exact means and covariances against brute-force enumeration with
      softmax weights (independent route, no tanh shortcut).
    - Divergence check against closed-form divergences for the exact-mean
      mechanism: sum_i sech^2(theta_i) on the hypercube and
      (1/m) sum_{i,j,r} sech^2(T[i,j,r]) for the type-conditioned tensor tilt.
    - Batched sampling against a per-point copy of the sampling recipe, and
      PointBatch.densify against a test-local per-point resolve.
    - Exact tilt means (overall and per type) on random small families
      against softmax-weighted enumeration, as a hypothesis property.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import expit

from tiltlab.errors import CapacityError
from tiltlab.families import make_family, support_batch, support_matrix
from tiltlab.mechanisms import ClampedMean, Dataset, EmpiricalMean
from tiltlab.tilt import (
    divergence_check,
    log_weights,
    score,
    tilt,
    tilt_cov,
    tilt_mean,
    tilt_mean_typed,
    tilt_sample_many,
)


def brute_mean(family, theta):
    dist = tilt(family, theta)
    w = np.exp(log_weights(dist))
    mat = support_matrix(family)
    return w @ mat


def resolve(fam, batch, idx):
    """Dense vector of point idx of batch, built from the family definition
    one point at a time."""
    if fam.kind == "hypercube":
        return batch.v[idx].astype(np.float64)
    if fam.kind == "matrix-columns":
        return fam.matrix[:, batch.cols[idx]].astype(np.float64)
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
        cov = tilt_cov(dist)
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
                    tilt_mean_typed(dist, tid), cond, atol=1e-12
                )

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
        dist = tilt(fam, theta)
        w = np.exp(log_weights(dist))
        mat = support_matrix(fam)
        mu = w @ mat
        brute = (mat - mu).T @ ((mat - mu) * w[:, None])
        np.testing.assert_allclose(tilt_cov(dist), brute, atol=1e-12)


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
            total += wt * score(resolve(fam, batch, idx), q,
                                tilt_mean_typed(dist, int(tid)))
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
            np.testing.assert_allclose(tilt_mean_typed(dist, t), typed[t],
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

        def mech(ds):
            return lin @ ds.points.mean(axis=0)

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
        return rng.choice(fam.n_columns, size=count, p=np.exp(dist.column_logp))
    n_types = dist.type_tilts.shape[0]
    if n_types == 1:
        types = np.zeros(count, dtype=np.int64)
    else:
        types = rng.choice(n_types, size=count, p=np.exp(dist.type_logp))
    p_plus = expit(2.0 * dist.type_tilts[types])
    v = np.where(rng.random((count, fam.d)) < p_plus, 1, -1).astype(np.int8)
    return types, v


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

    @pytest.mark.parametrize("kind", sorted(BATCH_FAMILIES))
    def test_single_points_round_trip(self, kind):
        # a single point is a one-row batch; joining them back in order
        # rebuilds the batch, names included
        fam = make_family(kind, **BATCH_FAMILIES[kind])
        batch = tilt_sample_many(tilt(fam, np.zeros(fam.dim)),
                                 np.random.default_rng(33), 20)
        batch.names = np.arange(100, 120)
        back = batch.take([0])
        for i in range(1, 20):
            back = back.concat(batch.take([i]))
        for field in ("types", "v", "cols", "names"):
            mine, theirs = getattr(batch, field), getattr(back, field)
            assert (mine is None and theirs is None) or \
                np.array_equal(mine, theirs), field
        assert batch.take([-1]).names.tolist() == [119]
        with pytest.raises(IndexError):
            batch.take([20])

    def test_take_and_concat(self):
        fam = make_family("tensor", m=2, k=2, d=3)
        batch = support_batch(fam).take(slice(0, 6))
        picked = batch.take(np.array([4, 1]))
        assert np.array_equal(picked.v, batch.v[[4, 1]])
        assert np.array_equal(picked.types, batch.types[[4, 1]])
        joined = batch.concat(picked)
        assert len(joined) == 8
        assert np.array_equal(joined.densify()[6:], batch.densify()[[4, 1]])
        picked.v[0] = 0  # take copies
        assert np.all(np.abs(batch.v) == 1)


class TestDatasetPlumbing:
    def test_from_refs_densifies_batch(self):
        fam = make_family("tensor", m=2, k=2, d=3)
        batch = support_batch(fam).take(slice(3, 9))
        ds = Dataset.from_refs(batch)
        assert ds.n == 6
        assert ds.batch is batch
        assert np.array_equal(
            ds.points, np.stack([resolve(fam, batch, i) for i in range(6)]))
        assert ds.batch.family is fam
