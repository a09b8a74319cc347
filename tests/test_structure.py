"""K-functional, Rademacher tails, and random-matrix structure checks.

Oracles:
    - k12 (tests/lemmas.py) against a per-segment stationary-point formula
      and a refined grid.
    - Exact sign-sum tails (tests/lemmas.py) against binomial closed forms.
    - Column-sum second moment against its exact expectation kd.
    - Expanding-check values against tilt_mean of the matrix-columns tilt,
      and against the plain inner product for one column, at the thetas
      the check draws, redrawn from a copy of its generator.
    - Regular-check verdicts against eigvalsh of the same covariances.
    - Two-point closed form for the exponential-reweighting bound.

The K-functional, the exact tails, the joint tail constant and the
exponential-reweighting shift are lemma checks, not library features, so
their helpers live in the tests: here, or in tests/lemmas.py where another
test file needs them too.
"""

import copy
import math
import threading
from collections import Counter
from dataclasses import dataclass
from typing import Optional

import numpy as np
import pytest

from tiltlab import structure as structure_module, tilt as tilt_module
from tiltlab.errors import CapacityError
from tiltlab.structure import (
    ETA_PROBE_SCALE,
    check_column_sums,
    check_expanding,
    check_regular,
    sample_k_subsets,
    tilt_weights,
    tilted_column_cov,
)
from tiltlab.families import make_family
from tiltlab.tilt import tilt, tilt_mean

from lemmas import (
    exact_sign_tail,
    grid_k12,
    is_good_vector,
    k12,
    k12_sandwich_constant,
    rademacher_tail,
)


def segment_k12(a, t):
    """Independent k12 oracle: evaluate the threshold objective at every
    breakpoint and at each segment's stationary point c^2 = Q/(t^2 - N)."""
    mags = np.sort(np.abs(np.asarray(a, dtype=float)))
    d = len(mags)

    def g(c):
        above = mags[mags > c]
        below = np.minimum(mags, c)
        return above.sum() - c * len(above) + t * math.sqrt(
            float((below ** 2).sum())
        )

    candidates = [0.0] + list(mags)
    edges = [0.0] + list(mags)
    for i in range(d):
        lo, hi = edges[i], edges[i + 1]
        n_above = d - i
        q_below = float((mags[:i] ** 2).sum())
        if t ** 2 > n_above:
            c_star = math.sqrt(q_below / (t ** 2 - n_above))
            if lo < c_star < hi:
                candidates.append(c_star)
    return min(g(c) for c in candidates)


class TestK12:
    def test_zero_t(self):
        assert k12(np.array([3.0, -1.0, 2.0]), 0.0) == 0.0

    def test_large_t_reaches_l1(self):
        assert k12(np.ones(4), 10.0) == pytest.approx(4.0, abs=1e-9)

    def test_single_spike(self):
        assert k12(np.array([1.0, 0, 0, 0]), 0.5) == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("d", [2, 5, 17])
    def test_matches_segment_oracle(self, d):
        rng = np.random.default_rng(d)
        for _ in range(20):
            a = rng.normal(size=d) * rng.uniform(0.1, 3)
            for t in [0.1, 0.7, 1.3, 3.0, 10.0]:
                assert k12(a, t) == pytest.approx(
                    segment_k12(a, t), abs=1e-8
                )

    def test_matches_grid_oracle_small_d(self):
        rng = np.random.default_rng(0)
        for _ in range(15):
            d = int(rng.integers(1, 4))
            a = rng.normal(size=d)
            t = float(rng.uniform(0.1, 4))
            assert abs(k12(a, t) - grid_k12(a, t)) <= 1e-4

    def test_monotone_concave_bounded(self):
        rng = np.random.default_rng(1)
        ts = np.linspace(0.0, 6.0, 25)
        for _ in range(10):
            a = rng.normal(size=12)
            vals = np.array([k12(a, t) for t in ts])
            assert np.all(np.diff(vals) >= -1e-10)
            mids = np.array([k12(a, t) for t in (ts[:-1] + ts[1:]) / 2])
            assert np.all(mids >= (vals[:-1] + vals[1:]) / 2 - 1e-9)
            l1 = np.abs(a).sum()
            l2 = np.linalg.norm(a)
            assert np.all(vals <= np.minimum(l1, ts * l2) + 1e-9)

    def test_good_vector_sandwich_constant(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            a = rng.uniform(0.5, 1.5, size=20) * rng.choice([-1, 1], size=20)
            assert is_good_vector(a)
            assert k12_sandwich_constant(a) >= 0.05


class TestRademacherTail:
    def test_all_ones_exact_binomial(self):
        d = 20
        a = np.ones(d)
        report = rademacher_tail(a, [1.0])
        # threshold sqrt(20): need at least 13 of 20 positive signs
        want = sum(math.comb(d, j) for j in range(13, d + 1)) / 2 ** d
        assert report.probabilities[0] == pytest.approx(want, abs=1e-15)
        assert report.hoeffding_ok[0]
        assert report.fitted_c[0] <= 4.0

    def test_zero_threshold_majority(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            a = rng.normal(size=12)
            report = rademacher_tail(a, [0.0])
            assert report.probabilities[0] >= 0.5

    def test_hoeffding_never_violated_on_good_vectors(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            a = rng.uniform(0.3, 1.0, size=16) * rng.choice([-1, 1], size=16)
            report = rademacher_tail(a, [0.5, 1.0, 2.0])
            assert report.good_vector
            assert all(report.hoeffding_ok)

    def test_not_good_vector_skips_lower_fit(self):
        a = np.concatenate([[1.0], np.full(15, 1e-6)])
        report = rademacher_tail(a, [1.0])
        assert not report.good_vector
        assert not report.lower_checked
        assert report.notice

    def test_exact_capacity(self):
        with pytest.raises(CapacityError):
            rademacher_tail(np.ones(23), [1.0])

    def test_exact_sign_tail_matches_brute_force(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=10)
        thresholds = np.array([-1.0, 0.0, 2.5])
        probs = exact_sign_tail(a, thresholds)
        signs = np.array(
            [[1 if (i >> c) & 1 == 0 else -1 for c in range(10)]
             for i in range(2 ** 10)]
        )
        sums = signs @ a
        want = [(sums >= t).mean() for t in thresholds]
        np.testing.assert_allclose(probs, want, atol=1e-15)


def fit_joint_tail_constant(vectors, t_values, hi: float = 64.0) -> float:
    """Smallest c >= 1 with Pr[<x,a> >= K12(a, t||a||_2)/c] >= e^{-c t^2}/c
    across every (vector, t) pair; +inf when even ``hi`` fails."""
    t_values = list(t_values)
    prepared = []
    for a in vectors:
        a = np.asarray(a, dtype=float)
        l2 = np.linalg.norm(a)
        kvals = np.array([k12(a, t * l2) for t in t_values])
        prepared.append((a, kvals))

    def ok(c):
        for a, kvals in prepared:
            probs = exact_sign_tail(a, kvals / c)
            for t, p in zip(t_values, probs):
                if p < math.exp(-c * t * t) / c:
                    return False
        return True

    if not ok(hi):
        return math.inf
    lo_c, hi_c = 1.0, hi
    if ok(lo_c):
        return lo_c
    for _ in range(50):
        mid = 0.5 * (lo_c + hi_c)
        if ok(mid):
            hi_c = mid
        else:
            lo_c = mid
    return hi_c


class TestJointTailFit:
    def test_single_constant_covers_grid(self):
        rng = np.random.default_rng(8)
        vectors = [
            rng.uniform(0.4, 1.2, size=16) * rng.choice([-1, 1], size=16)
            for _ in range(20)
        ]
        ts = [0.5, 0.75, 1.0, 1.5, 2.0]
        c_hat = fit_joint_tail_constant(vectors, ts)
        assert math.isfinite(c_hat) and c_hat >= 1
        for a in vectors:
            norm = np.linalg.norm(a)
            for t in ts:
                p = exact_sign_tail(a, [k12(a, t * norm) / c_hat])[0]
                assert p >= math.exp(-c_hat * t ** 2) / c_hat - 1e-12


def random_pm1_matrix(rng, d, n):
    return np.where(rng.random((d, n)) < 0.5, -1, 1).astype(np.int8)


class TestColumnSums:
    def test_k_one_exact(self):
        rng = np.random.default_rng(9)
        a = random_pm1_matrix(rng, 32, 64)
        report = check_column_sums(a, k=1, subset_trials=500, rng=rng)
        assert report.max_ratio == pytest.approx(1.0, abs=1e-12)
        assert report.violations == 0
        assert report.mean_sq == pytest.approx(32.0, abs=1e-9)

    def test_second_moment_identity(self):
        rng = np.random.default_rng(10)
        a = random_pm1_matrix(rng, 256, 1024)
        report = check_column_sums(a, k=8, subset_trials=10_000, rng=rng,
                                   cap_scale=0.25)
        assert abs(report.mean_sq - 8 * 256) <= 4 * report.stderr_sq

    def test_no_violations_at_capped_k(self):
        rng = np.random.default_rng(11)
        a = random_pm1_matrix(rng, 256, 1024)
        report = check_column_sums(a, k=3, subset_trials=10_000, rng=rng)
        assert report.violations == 0

    def test_k_out_of_range(self):
        rng = np.random.default_rng(12)
        a = random_pm1_matrix(rng, 256, 1024)
        with pytest.raises(ValueError):
            check_column_sums(a, k=4, subset_trials=10, rng=rng)
        with pytest.raises(ValueError):
            check_column_sums(a, k=0, subset_trials=10, rng=rng)

    def test_no_subsets_rejected(self):
        rng = np.random.default_rng(12)
        a = random_pm1_matrix(rng, 32, 64)
        with pytest.raises(ValueError, match="subset_trials must be >= 1"):
            check_column_sums(a, k=1, subset_trials=0, rng=rng)


class TestSampleKSubsets:
    @pytest.mark.parametrize("n,k", [(2, 1), (7, 1), (7, 3), (7, 7),
                                     (1024, 8), (50, 50)])
    def test_rows_are_distinct_in_range(self, n, k):
        idx = sample_k_subsets(np.random.default_rng(30), n, k, 2000)
        assert idx.shape == (2000, k)
        assert idx.min() >= 0 and idx.max() < n
        ordered = np.sort(idx, axis=1)
        assert np.all(np.diff(ordered, axis=1) > 0)
        if k == n:
            assert np.all(ordered == np.arange(n))

    def test_all_subsets_uniform(self):
        n, k, draws = 6, 3, 20_000
        idx = sample_k_subsets(np.random.default_rng(31), n, k, draws)
        keys = (1 << idx).sum(axis=1)  # distinct indices: one bitmask each
        _, counts = np.unique(keys, return_counts=True)
        n_sets = math.comb(n, k)
        assert len(counts) == n_sets
        p = 1.0 / n_sets
        sd = math.sqrt(p * (1 - p) / draws)
        assert np.all(np.abs(counts / draws - p) <= 5 * sd)


def expanding_thetas(r, trials, rng, d):
    """The thetas ``check_expanding(a, r, eta, trials, rng)`` draws, from a
    copy of its generator."""
    g = rng.normal(size=(trials, d))
    return g / np.linalg.norm(g, axis=1, keepdims=True) * r


class TestExpanding:
    def test_single_column_value_is_plain_inner_product(self):
        rng = np.random.default_rng(13)
        a = random_pm1_matrix(rng, 16, 1)
        thetas = expanding_thetas(1.0, 40, copy.deepcopy(rng), 16)
        report = check_expanding(a, r=1.0, eta_probe=-10.0, trials=40,
                                 rng=rng)
        want = thetas @ a[:, 0].astype(float)
        np.testing.assert_allclose(report.values, want, atol=1e-12)

    def test_value_vanishes_as_r_to_zero(self):
        rng = np.random.default_rng(15)
        a = random_pm1_matrix(rng, 32, 128)
        report = check_expanding(a, r=1e-9, eta_probe=-1.0, trials=20, rng=rng)
        assert np.max(np.abs(report.values)) < 1e-7

    def test_desk_scale_failure_rate(self):
        rng = np.random.default_rng(16)
        d, n_cols = 128, 2048
        a = random_pm1_matrix(rng, d, n_cols)
        r = 0.3 * math.sqrt(math.log(n_cols))
        eta = ETA_PROBE_SCALE * math.log(n_cols)
        report = check_expanding(a, r=r, eta_probe=eta, trials=300, rng=rng)
        assert report.fail_fraction <= 0.01

    def test_values_match_tilt_mean(self):
        # E_{v ~ D_theta}[<v, theta>] is <tilt_mean, theta>, and tilt_mean is
        # a separate softmax over the same columns
        fam = make_family("matrix-columns", d=24, n_columns=200, seed=17)
        rng = np.random.default_rng(18)
        thetas = expanding_thetas(1.0, 10, copy.deepcopy(rng), 24)
        report = check_expanding(fam.matrix, r=1.0, eta_probe=0.0, trials=10,
                                 rng=rng)
        want = [tilt_mean(tilt(fam, th)) @ th for th in thetas]
        np.testing.assert_allclose(report.values, want, rtol=1e-12)


def cov_at(a, theta):
    """The tilted column covariance at one theta, passed as a 1-row block."""
    (p,), (mu,) = tilt_weights(a, np.asarray(theta, dtype=float)[None])
    return tilted_column_cov(a, p, mu)


def regular_thetas(r, trials, rng, d):
    """The thetas ``check_regular(a, r, trials, rng)`` draws, from a copy of
    its generator: eigenvalues are taken here, not by the check."""
    g = rng.normal(size=(trials, d))
    unit = g / np.linalg.norm(g, axis=1, keepdims=True)
    return unit * (r * rng.random(trials) ** (1.0 / d))[:, None]


def lambda_max(a, theta):
    return np.linalg.eigvalsh(cov_at(a, theta))[-1]


class TestRegular:
    def test_full_hypercube_identity_cov(self):
        from tiltlab.families import make_family, support_batch

        fam = make_family("hypercube", d=8)
        cols = support_batch(fam).densify().T.astype(np.int8)  # (8, 256)
        frac = check_regular(cols, r=0.0, trials=1,
                             rng=np.random.default_rng(18))
        assert lambda_max(cols, np.zeros(8)) == pytest.approx(1.0, abs=1e-9)
        assert frac == 0.0

    def test_thetas_are_uniform_in_the_ball(self, monkeypatch):
        # a uniform point of the radius-r ball in R^d is a uniform direction
        # times r U^(1/d), as Pr[|theta| <= s] = (s / r)^d: the check weighs
        # exactly the thetas regular_thetas draws so, at d = 3, where
        # U^(1/4) in place of U^(1/3) moves every radius
        weighed = []

        def weights(a, thetas):
            weighed.append(thetas)
            return tilt_weights(a, thetas)

        monkeypatch.setattr(structure_module, "tilt_weights", weights)
        rng = np.random.default_rng(23)
        a = random_pm1_matrix(rng, 3, 16)
        want = regular_thetas(0.7, 50, copy.deepcopy(rng), 3)
        check_regular(a, 0.7, 50, rng)
        assert len(weighed) == 1 and np.array_equal(weighed[0], want)

    def test_lambda_max_dominates_diagonal(self):
        rng = np.random.default_rng(19)
        a = random_pm1_matrix(rng, 20, 150)
        theta = rng.normal(size=20) * 0.2
        cov = cov_at(a, theta)
        drawn = regular_thetas(0.6, 30, rng, 20)
        lam = np.linalg.eigvalsh(cov)[-1]
        assert lam >= np.max(np.diag(cov)) - 1e-9
        assert np.all(np.asarray([lambda_max(a, th) for th in drawn]) > 0)
        # the top eigenvalue dominates its covariance diagonal at flat theta
        flat_cov = cov_at(a, np.zeros(20))
        assert lambda_max(a, np.zeros(20)) >= np.max(np.diag(flat_cov)) - 1e-9

    def test_verdict_matches_eigvalsh(self, monkeypatch):
        # threshold at the median top eigenvalue, so both verdicts occur:
        # the Cholesky certificate must agree with eigvalsh on every theta
        rng = np.random.default_rng(21)
        d, n_cols, trials = 64, 2048, 200
        a = random_pm1_matrix(rng, d, n_cols)
        r = 0.3 * math.sqrt(math.log(n_cols))
        thetas = regular_thetas(r, trials, copy.deepcopy(rng), d)
        lams = np.array([lambda_max(a, th) for th in thetas])
        threshold = float(np.median(lams))
        monkeypatch.setattr(structure_module, "REGULAR_THRESHOLD", threshold)
        frac = check_regular(a, r=r, trials=trials, rng=rng)
        assert 0.0 < frac < 1.0
        assert frac == np.mean(lams >= threshold)
        # the batched weights give each theta's single-row covariance
        p, mu = tilt_weights(a, thetas)
        for i, theta in enumerate(thetas):
            np.testing.assert_allclose(tilted_column_cov(a, p[i], mu[i]),
                                       cov_at(a, theta), rtol=0, atol=1e-14)

    def test_desk_scale_fraction(self):
        rng = np.random.default_rng(20)
        d, n_cols = 64, 4096
        a = random_pm1_matrix(rng, d, n_cols)
        r = 0.3 * math.sqrt(math.log(n_cols))
        frac = check_regular(a, r=r, trials=200, rng=rng)
        assert frac <= 0.01


def force_threads(monkeypatch, cpus=3):
    """One theta thread per CPU on any regular check, with cpus CPUs and
    tilt.thread_budget told BLAS runs one thread (whatever BLAS really runs)
    by the environment rule: no BLAS control is found."""
    monkeypatch.setattr(tilt_module, "_cpus_available", lambda: cpus)
    monkeypatch.setattr(tilt_module, "_BLAS_THREADS", 1)
    monkeypatch.setattr(tilt_module, "_blas_control", lambda: None)
    monkeypatch.setattr(structure_module, "THETA_WORK", 1)


class FakeBlas:
    """A BLAS control (get, set) whose thread count starts at ``threads``;
    ``seen`` records the count each range of in_ranges saw."""

    def __init__(self, threads):
        self.threads, self.sets, self.seen = threads, [], []

    def control(self):
        return (lambda: self.threads), self.put

    def put(self, threads):
        self.sets.append(threads)
        self.threads = threads


def record_threads(monkeypatch, fail_off_caller=False):
    """List of the tilted covariances computed, True on the calling thread
    and False off it; with fail_off_caller, each call off it raises."""
    caller, calls = threading.get_ident(), []

    def cov(a, p, mu):
        on_caller = threading.get_ident() == caller
        calls.append(on_caller)  # atomic, unlike a shared counter's +=
        if fail_off_caller and not on_caller:
            raise RuntimeError("helper range failed")
        return tilted_column_cov(a, p, mu)

    monkeypatch.setattr(structure_module, "tilted_column_cov", cov)
    return calls


def duplicated_row_matrix():
    # row 15 repeats row 0, which puts lambda_max near 2: at r = 1, 35 of
    # 60 thetas are above the threshold
    a = make_family("matrix-columns", d=16, n_columns=256, seed=0).matrix
    return np.vstack([a[:15], a[:1]])


class TestRegularThreads:
    def test_threads_match_serial(self, monkeypatch):
        a = duplicated_row_matrix()
        serial = check_regular(a, 1.0, 60, np.random.default_rng(1))
        assert 0.0 < serial < 1.0
        force_threads(monkeypatch)
        calls = record_threads(monkeypatch)
        threaded = check_regular(a, 1.0, 60, np.random.default_rng(1))
        # the caller takes the first of three ranges, helpers the others
        assert Counter(calls) == {True: 20, False: 40}
        assert threaded == serial

    def test_serial_below_work_floor_or_with_blas_threads(self, monkeypatch):
        a = duplicated_row_matrix()
        force_threads(monkeypatch)
        calls = record_threads(monkeypatch)
        monkeypatch.setattr(tilt_module, "_BLAS_THREADS", 3)
        check_regular(a, 1.0, 60, np.random.default_rng(1))
        monkeypatch.setattr(tilt_module, "_BLAS_THREADS", 1)
        monkeypatch.setattr(structure_module, "THETA_WORK", 16 * 16 * 256 + 1)
        check_regular(a, 1.0, 60, np.random.default_rng(1))
        assert calls == [True] * 120

    def test_threads_whatever_the_environment_when_blas_is_held(
            self, monkeypatch):
        # with a BLAS control found, BLAS threads in the environment do not
        # keep the regular check serial: in_ranges holds BLAS at one thread
        a = duplicated_row_matrix()
        serial = check_regular(a, 1.0, 60, np.random.default_rng(1))
        force_threads(monkeypatch)
        blas = FakeBlas(4)
        monkeypatch.setattr(tilt_module, "_BLAS_THREADS", 4)
        monkeypatch.setattr(tilt_module, "_blas_control", blas.control)
        calls = record_threads(monkeypatch)
        threaded = check_regular(a, 1.0, 60, np.random.default_rng(1))
        assert Counter(calls) == {True: 20, False: 40}
        assert threaded == serial
        assert blas.sets == [1, 4]

    @pytest.mark.parametrize("start, sets", [(4, [1, 4]), (1, [])])
    def test_ranges_hold_blas_at_one_thread(self, monkeypatch, start, sets):
        blas = FakeBlas(start)
        monkeypatch.setattr(tilt_module, "_blas_control", blas.control)

        def fn(first, last):
            blas.seen.append(blas.threads)
            return first, last

        assert tilt_module.in_ranges(1, 1, fn) == [(0, 1)]
        assert blas.seen == [start] and blas.sets == []
        assert tilt_module.in_ranges(6, 3, fn) == [(0, 2), (2, 4), (4, 6)]
        assert blas.seen == [start, 1, 1, 1]
        # the count is restored, also when a range raises
        assert blas.sets == sets and blas.threads == start

        def fail(first, last):
            raise RuntimeError("range failed")

        with pytest.raises(RuntimeError, match="range failed"):
            tilt_module.in_ranges(6, 2, fail)
        assert blas.sets == sets * 2 and blas.threads == start

    def test_blas_control_finds_numpy_openblas(self):
        # numpy's wheels ship OpenBLAS; another BLAS leaves the control None
        # and the environment rule above in force
        control = tilt_module._blas_control()
        if control is None:
            pytest.skip("numpy loaded no OpenBLAS that _blas_control finds")
        get, put = control
        old = get()
        assert old >= 1
        try:
            put(1)
            assert get() == 1
        finally:
            put(old)
        assert get() == old
        assert tilt_module._blas_control() is control

    @pytest.mark.parametrize("env,threads", [
        ({}, 5),
        ({"OMP_NUM_THREADS": "4"}, 4),
        ({"GOTO_NUM_THREADS": "2", "OMP_NUM_THREADS": "4"}, 2),
        ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "4"}, 4),
        ({"OPENBLAS_NUM_THREADS": "x", "GOTO_NUM_THREADS": "3"}, 3),
        ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, 1),
    ])
    def test_blas_threads_as_openblas_reads_them(self, monkeypatch, env,
                                                 threads):
        # the first positive variable in OpenBLAS's order, else every CPU
        monkeypatch.setattr(tilt_module, "_cpus_available", lambda: 5)
        for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                    "OMP_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        assert tilt_module._blas_threads() == threads

    def test_helper_exception_reaches_caller(self, monkeypatch):
        force_threads(monkeypatch)
        calls = record_threads(monkeypatch, fail_off_caller=True)
        with pytest.raises(RuntimeError, match="helper range failed"):
            check_regular(duplicated_row_matrix(), 1.0, 60,
                          np.random.default_rng(1))
        # the caller finished its own range first
        assert calls.count(True) == 20 and False in calls


class TestTiltedColumnCov:
    def test_matches_direct_product(self):
        rng = np.random.default_rng(32)
        for d, n_cols, scale in [(8, 40, 0.3), (64, 2048, 0.5), (20, 7, 3.0)]:
            a = random_pm1_matrix(rng, d, n_cols).astype(float)
            theta = rng.normal(size=d) * scale
            z = a.T @ theta
            p = np.exp(z - z.max())
            p /= p.sum()
            mu = a @ p
            want = (a * p) @ a.T - np.outer(mu, mu)
            got = cov_at(a, theta)
            # each entry is a difference of two moments of size <= 1
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
            assert np.array_equal(got, got.T)


@dataclass
class TiltShiftReport:
    premise_ok: bool
    value: Optional[float]
    bound: float
    passed: Optional[bool]
    notice: str = ""


def tilt_shift_check(samples, eta: float,
                     delta_mass: float) -> TiltShiftReport:
    """Exponentially reweight samples of X and test
    E[Y] >= eta - 2 ln(1/delta).

    Requires the empirical premise Pr[X >= eta] >= delta_mass; when it fails
    the check is skipped with a notice instead of passing or failing.
    """
    x = np.asarray(samples, dtype=float).reshape(-1)
    bound = eta - 2 * math.log(1 / delta_mass)
    premise = float(np.mean(x >= eta))
    if premise < delta_mass:
        return TiltShiftReport(
            premise_ok=False, value=None, bound=bound, passed=None,
            notice=f"premise failed: Pr[X >= eta] = {premise:.4g} "
                   f"< {delta_mass}",
        )
    w = np.exp(x - x.max())
    wsum = w.sum()
    value = float((w @ x) / wsum)
    ess = wsum ** 2 / float(w @ w)
    wvar = float((w @ (x - value) ** 2) / wsum)
    stderr = math.sqrt(wvar / ess) if ess > 1 else math.inf
    return TiltShiftReport(premise_ok=True, value=value, bound=bound,
                           passed=bool(value >= bound - 4 * stderr))


class TestTiltShift:
    def test_constant_samples(self):
        report = tilt_shift_check(np.full(100, 3.0), eta=3.0, delta_mass=0.5)
        assert report.premise_ok
        assert report.value == pytest.approx(3.0, abs=1e-12)
        assert report.passed

    def test_two_point_closed_form(self):
        eta, delta = 5.0, 0.1
        samples = np.concatenate([np.zeros(9000), np.full(1000, eta)])
        report = tilt_shift_check(samples, eta=eta, delta_mass=delta)
        want = eta * delta * math.exp(eta) / ((1 - delta) + delta * math.exp(eta))
        assert report.value == pytest.approx(want, rel=1e-12)
        assert report.bound == pytest.approx(eta - 2 * math.log(1 / delta))
        assert report.passed

    def test_uniform_samples(self):
        rng = np.random.default_rng(21)
        samples = rng.uniform(0, 1, size=100_000)
        report = tilt_shift_check(samples, eta=0.9, delta_mass=0.095)
        assert report.premise_ok
        assert report.passed

    def test_premise_violation_skips(self):
        report = tilt_shift_check(np.zeros(50), eta=5.0, delta_mass=0.5)
        assert not report.premise_ok
        assert report.passed is None
        assert report.notice
