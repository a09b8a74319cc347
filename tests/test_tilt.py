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
      PointBatch.densify against per-point resolve.
"""

import math

import numpy as np
import pytest

from tiltlab.errors import CapacityError
from scipy.special import expit

from tiltlab.families import (
    PointBatch,
    enumerate_refs,
    make_family,
    resolve,
    support_matrix,
)
from tiltlab.mechanisms import ClampedMean, Dataset, EmpiricalMean
from tiltlab.tilt import (
    divergence_check,
    log_weights,
    pscore,
    score,
    tilt,
    tilt_cov,
    tilt_mean,
    tilt_mean_typed,
    tilt_sample_many,
)


def brute_mean(family, theta, conditioning):
    dist = tilt(family, theta, conditioning)
    w = np.exp(log_weights(dist))
    mat = support_matrix(family)
    return w @ mat


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
            tilt_mean(dist), brute_mean(fam, theta, "plain"), atol=1e-12
        )
        np.testing.assert_allclose(tilt_mean(dist), np.tanh(theta), atol=1e-12)


class TestTensorTilt:
    @pytest.mark.parametrize("conditioning", ["type", "plain"])
    def test_mean_matches_enumeration(self, conditioning):
        fam = make_family("tensor", m=2, k=2, d=2)
        rng = np.random.default_rng(2)
        theta = rng.normal(scale=0.7, size=fam.dim)
        dist = tilt(fam, theta, conditioning)
        np.testing.assert_allclose(
            tilt_mean(dist), brute_mean(fam, theta, conditioning), atol=1e-12
        )

    def test_log_weights_normalized(self):
        fam = make_family("tensor", m=2, k=2, d=3)
        theta = np.random.default_rng(3).normal(size=fam.dim)
        for conditioning in ("type", "plain"):
            lw = log_weights(tilt(fam, theta, conditioning))
            assert math.isclose(np.exp(lw).sum(), 1.0, rel_tol=1e-12)

    def test_typed_mean_bounds(self):
        # |mu_{i,p,r}| <= 1/m and |<mu_{i,*,r}, u_j>| <= 1/m for the
        # type-conditioned tensor tilt.
        fam = make_family("tensor", m=3, k=4, d=2)
        rng = np.random.default_rng(4)
        theta = rng.normal(scale=2.0, size=fam.dim)
        dist = tilt(fam, theta, "type")
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
        dist = tilt(fam, theta, "type")
        refs = enumerate_refs(fam)
        w = np.exp(log_weights(dist))
        mat = support_matrix(fam)
        for i in range(2):
            for j in range(2):
                sel = np.array([r.i == i and r.j == j for r in refs])
                cond = (w[sel] / w[sel].sum()) @ mat[sel]
                tid = i * fam.k + j
                np.testing.assert_allclose(
                    tilt_mean_typed(dist, tid), cond, atol=1e-12
                )

    def test_sampling_matches_mean(self):
        fam = make_family("tensor", m=2, k=2, d=4)
        theta = np.random.default_rng(6).normal(scale=0.5, size=fam.dim)
        dist = tilt(fam, theta, "type")
        rng = np.random.default_rng(7)
        refs = tilt_sample_many(dist, rng, 40000)
        emp = np.mean([resolve(fam, r) for r in refs], axis=0)
        np.testing.assert_allclose(emp, tilt_mean(dist), atol=0.03)

    def test_mc_mean_interface(self):
        fam = make_family("tensor", m=2, k=2, d=3)
        theta = np.random.default_rng(8).normal(size=fam.dim)
        dist = tilt(fam, theta, "type")
        est, stderr, count = tilt_mean(
            dist, mode="mc", samples=5000, rng=np.random.default_rng(9)
        )
        assert count == 5000
        assert est.shape == stderr.shape == (fam.dim,)
        exact = tilt_mean(dist)
        assert np.all(np.abs(est - exact) < 6 * stderr + 1e-9)


class TestMatrixColumns:
    def test_mean_matches_enumeration(self):
        fam = make_family("matrix-columns", d=6, n_columns=30, seed=10)
        theta = np.random.default_rng(11).normal(scale=0.3, size=6)
        dist = tilt(fam, theta, "plain")
        np.testing.assert_allclose(
            tilt_mean(dist), brute_mean(fam, theta, "plain"), atol=1e-12
        )

    def test_cov_matches_enumeration(self):
        fam = make_family("matrix-columns", d=5, n_columns=20, seed=12)
        theta = np.random.default_rng(13).normal(scale=0.4, size=5)
        dist = tilt(fam, theta, "plain")
        w = np.exp(log_weights(dist))
        mat = support_matrix(fam)
        mu = w @ mat
        brute = (mat - mu).T @ ((mat - mu) * w[:, None])
        np.testing.assert_allclose(tilt_cov(dist), brute, atol=1e-12)
        lmax = tilt_cov(dist, summary="lambda_max")
        assert lmax == pytest.approx(np.linalg.eigvalsh(brute)[-1], rel=1e-6)


class TestScore:
    def test_fresh_score_mean_zero(self):
        fam = make_family("tensor", m=2, k=2, d=3)
        theta = np.random.default_rng(14).normal(size=fam.dim)
        dist = tilt(fam, theta, "type")
        q = np.random.default_rng(15).normal(size=fam.dim)
        refs = enumerate_refs(fam)
        w = np.exp(log_weights(dist))
        total = 0.0
        for wt, ref in zip(w, refs):
            tid = ref.i * fam.k + ref.j
            total += wt * score(resolve(fam, ref), q, tilt_mean_typed(dist, tid))
        assert abs(total) < 1e-12

    def test_pscore_prefix_structure(self):
        fam = make_family("tensor", m=2, k=2, d=4)
        theta = np.random.default_rng(16).normal(size=fam.dim)
        dist = tilt(fam, theta, "type")
        ref = enumerate_refs(fam)[7]
        q = np.random.default_rng(17).normal(size=fam.dim)
        assert pscore(dist, ref, q, 0) == 0.0
        tid = ref.i * fam.k + ref.j
        full = score(resolve(fam, ref), q, tilt_mean_typed(dist, tid))
        assert pscore(dist, ref, q, fam.d) == pytest.approx(full, abs=1e-12)
        # prefix sums are monotone in coverage: each extension adds one slice
        parts = [pscore(dist, ref, q, r) for r in range(fam.d + 1)]
        deltas = np.diff(parts)
        q3 = q.reshape(2, 2, 4)
        mu = tilt_mean_typed(dist, tid).reshape(2, 2, 4)
        x = resolve(fam, ref).reshape(2, 2, 4)
        for r in range(fam.d):
            want = float(((x - mu)[:, :, r] * q3[:, :, r]).sum())
            assert deltas[r] == pytest.approx(want, abs=1e-12)


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
        dist = tilt(fam, theta, "type")
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
    "marginal": dict(k=2, d=4),
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
        refs = enumerate_refs(fam)
        batch = PointBatch.from_refs(fam, refs)
        dense = batch.densify()
        assert dense.dtype == np.float64 and dense.flags.c_contiguous
        assert np.array_equal(dense, np.stack([resolve(fam, r) for r in refs]))
        sampled = tilt_sample_many(tilt(fam, np.full(fam.dim, 0.3)),
                                   np.random.default_rng(32), 50)
        assert np.array_equal(
            sampled.densify(),
            np.stack([resolve(fam, sampled[i]) for i in range(50)]))

    @pytest.mark.parametrize("kind", sorted(BATCH_FAMILIES))
    def test_single_points_round_trip(self, kind):
        fam = make_family(kind, **BATCH_FAMILIES[kind])
        batch = tilt_sample_many(tilt(fam, np.zeros(fam.dim)),
                                 np.random.default_rng(33), 20)
        batch.names = np.arange(100, 120)
        back = PointBatch.from_refs(fam, [batch[i] for i in range(20)])
        for field in ("types", "v", "cols", "names"):
            mine, theirs = getattr(batch, field), getattr(back, field)
            assert (mine is None and theirs is None) or \
                np.array_equal(mine, theirs), field
        assert batch[-1].name == 119
        with pytest.raises(IndexError):
            batch[20]

    def test_take_and_concat(self):
        fam = make_family("tensor", m=2, k=2, d=3)
        batch = PointBatch.from_refs(fam, enumerate_refs(fam)[:6])
        picked = batch.take(np.array([4, 1]))
        assert np.array_equal(picked.v, batch.v[[4, 1]])
        assert np.array_equal(picked.types, batch.types[[4, 1]])
        joined = batch.concat(picked)
        assert len(joined) == 8
        assert np.array_equal(joined.densify()[6:], batch.densify()[[4, 1]])
        picked.v[0] = 0  # take copies
        assert np.all(np.abs(batch.v) == 1)


class TestDatasetPlumbing:
    def test_from_refs_accepts_batch_or_refs(self):
        fam = make_family("marginal", k=2, d=3)
        refs = enumerate_refs(fam)[3:9]
        from_list = Dataset.from_refs(fam, refs)
        from_batch = Dataset.from_refs(fam, PointBatch.from_refs(fam, refs))
        assert from_list.n == from_batch.n == 6
        assert np.array_equal(from_list.points, from_batch.points)
        assert from_list.batch.family is fam

    def test_replace_one(self):
        fam = make_family("hypercube", d=3)
        refs = enumerate_refs(fam)
        ds = Dataset.from_refs(fam, refs[:4])
        swapped = ds.replace_one(2, refs[7])
        assert swapped.n == 4
        np.testing.assert_array_equal(swapped.points[2], resolve(fam, refs[7]))
        np.testing.assert_array_equal(swapped.points[0], ds.points[0])
        # original untouched
        np.testing.assert_array_equal(ds.points[2], resolve(fam, refs[2]))
