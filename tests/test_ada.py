"""Staged-protocol tests: obfuscation, evaluators, analysts, transcripts."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import expit

from tiltlab.ada import (
    ClampedMeanAnalyst,
    ExactMeanAnalyst,
    FinalQuery,
    GaussianNoisedAnalyst,
    Obfuscation,
    SampleSplitAnalyst,
    ScoreField,
    StageQueryBatch,
    builtin_analysts,
    default_tau,
    deobfuscate_many,
    gap,
    obfuscate_many,
    run_ada_protocol,
)
from tiltlab.attack import ThetaSampler
from tiltlab.errors import ProtocolAbort
from tiltlab.families import make_family, predicate_matrix, support_batch
from tiltlab.tilt import log_weights, tilt, tilt_sample_many


def small_family():
    return make_family("tensor", m=2, k=4, d=6)


def surface_theta(family, rng):
    radius = family.dim / math.sqrt(family.k)
    return ThetaSampler("l1-surface", family.dim, radius).sample(rng)


def named_sample(dist, rng, n, W):
    points = tilt_sample_many(dist, rng, n)
    points.names = rng.choice(W, size=n, replace=False)
    return points


class TestObfuscation:
    def test_identity_hook(self):
        rng = np.random.default_rng(0)
        v = rng.choice([-1, 1], size=(50, 8)).astype(np.int8)
        obf = Obfuscation(seed=7, W=1000, identity=True)
        names = rng.integers(0, 1000, 50)
        ti = rng.integers(0, 3, 50)
        tj = rng.integers(0, 4, 50)
        assert np.array_equal(obfuscate_many(obf, names, ti, tj, v), v)

    def test_roundtrip_many_points(self):
        rng = np.random.default_rng(1)
        n = 10_000
        v = rng.choice([-1, 1], size=(n, 16)).astype(np.int8)
        names = rng.integers(0, 10 ** 9, n)
        ti = rng.integers(0, 6, n)
        tj = rng.integers(0, 64, n)
        obf = Obfuscation(seed=123456, W=10 ** 9)
        masked = obfuscate_many(obf, names, ti, tj, v)
        assert not np.array_equal(masked, v)
        back = deobfuscate_many(obf, names, ti, tj, masked)
        assert np.array_equal(back, v)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.data())
    def test_roundtrip_property(self, data):
        n = data.draw(st.integers(1, 20))
        d = data.draw(st.integers(1, 12))
        W = data.draw(st.integers(n, 10 ** 12))
        names = data.draw(st.lists(st.integers(0, W - 1), min_size=n,
                                   max_size=n, unique=True))
        ti = data.draw(st.lists(st.integers(0, 20), min_size=n, max_size=n))
        tj = data.draw(st.lists(st.integers(0, 64), min_size=n, max_size=n))
        v = np.array(data.draw(st.lists(
            st.lists(st.sampled_from([-1, 1]), min_size=d, max_size=d),
            min_size=n, max_size=n)), dtype=np.int8)
        obf = Obfuscation(seed=data.draw(st.integers(0, 2 ** 63 - 1)), W=W)
        masked = obfuscate_many(obf, names, ti, tj, v)
        assert np.array_equal(deobfuscate_many(obf, names, ti, tj, masked), v)

    def test_mask_flips_are_balanced(self):
        # a fixed +1 input should come out roughly half flipped
        obf = Obfuscation(seed=3, W=10 ** 6)
        n = 4000
        v = np.ones((n, 8), dtype=np.int8)
        names = np.arange(n)
        masked = obfuscate_many(obf, names, np.zeros(n, int), np.zeros(n, int), v)
        frac = (masked == -1).mean()
        assert abs(frac - 0.5) < 0.02

    def test_prefix_structure(self):
        # same name, same bits below slice r: outputs agree below r
        rng = np.random.default_rng(4)
        d, r = 10, 4
        v1 = rng.choice([-1, 1], size=d).astype(np.int8)
        v2 = v1.copy()
        v2[r] = -v2[r]
        obf = Obfuscation(seed=11, W=50)
        args = (np.array([5]), np.array([0]), np.array([2]))
        m1 = obfuscate_many(obf, *args, v1[None, :])[0]
        m2 = obfuscate_many(obf, *args, v2[None, :])[0]
        assert np.array_equal(m1[:r], m2[:r])
        assert m1[r] != m2[r]

    def test_distinct_names_mask_independently(self):
        obf = Obfuscation(seed=5, W=1000)
        v = np.ones((2, 32), dtype=np.int8)
        ti = np.zeros(2, int)
        tj = np.zeros(2, int)
        masked = obfuscate_many(obf, np.array([1, 2]), ti, tj, v)
        assert not np.array_equal(masked[0], masked[1])

    def test_name_out_of_range(self):
        obf = Obfuscation(seed=6, W=10)
        v = np.ones((1, 4), dtype=np.int8)
        with pytest.raises(ValueError, match="names"):
            obfuscate_many(obf, np.array([10]), np.array([0]), np.array([0]), v)

    def test_bad_name_space(self):
        with pytest.raises(ValueError):
            Obfuscation(seed=0, W=0)


class TestFinalQuery:
    def test_zero_field_gives_zero(self):
        fld = ScoreField(c_hat=np.zeros((2, 4, 6)), ref_shift=np.zeros((2, 4, 6)))
        fq = FinalQuery(fld, m=2, d=6, alpha=0.25, C=2.0)
        vals = fq.evaluate_bits(np.array([0, 1]), np.array([1, 2]),
                                np.ones((2, 6), dtype=np.int8))
        assert np.array_equal(vals, np.zeros(2))

    def test_clamp_hits_boundary(self):
        m, d, alpha, C = 2, 6, 0.25, 2.0
        target = 2.0 * C * math.sqrt(d * math.log(1.0 / alpha)) / m
        c_hat = np.full((m, 1, d), target / d)
        fld = ScoreField(c_hat=c_hat, ref_shift=np.zeros((m, 1, d)))
        fq = FinalQuery(fld, m=m, d=d, alpha=alpha, C=C)
        v = np.ones((1, d), dtype=np.int8)
        at = fq.evaluate_bits(np.array([0]), np.array([0]), v)[0]
        assert at == pytest.approx(1.0, abs=1e-12)
        # doubling the field saturates the clamp exactly
        fld2 = ScoreField(c_hat=2 * c_hat, ref_shift=np.zeros((m, 1, d)))
        fq2 = FinalQuery(fld2, m=m, d=d, alpha=alpha, C=C)
        assert fq2.evaluate_bits(np.array([0]), np.array([0]), v)[0] == 1.0
        assert fq2.evaluate_bits(np.array([0]), np.array([0]), -v)[0] == -1.0

    def test_scale_formula(self):
        fld = ScoreField(c_hat=np.zeros((6, 2, 32)), ref_shift=np.zeros((6, 2, 32)))
        fq = FinalQuery(fld, m=6, d=32, alpha=1 / 8, C=2.0)
        assert fq.scale == pytest.approx(6 / (4 * math.sqrt(32 * math.log(8))))

    def test_default_tau(self):
        assert default_tau(32, 1 / 8, 2.0, 6) == pytest.approx(
            2.0 * math.sqrt(32 * math.log(8)) / 6
        )


class TestGap:
    def test_constant_query_zero_gap(self):
        fam = small_family()
        rng = np.random.default_rng(10)
        dist = tilt(fam, surface_theta(fam, rng))
        refs = tilt_sample_many(dist, rng, 40)

        def const_query(batch):
            return np.ones(len(batch))

        res = gap(const_query, refs, dist, 2000, np.random.default_rng(11))
        assert res.value == 0.0
        assert res.stderr == 0.0

    def test_indicator_matches_exact_mass(self):
        fam = make_family("tensor", m=1, k=1, d=2)
        theta = np.array([0.3, -0.7])
        dist = tilt(fam, theta)
        support = support_batch(fam)
        probs = np.exp(log_weights(dist))
        target = 2
        key = support.v[target]

        def indicator(batch):
            return np.all(batch.v == key, axis=1).astype(float)

        res = gap(indicator, support.take([target]),
                  dist, 200_000, np.random.default_rng(12))
        assert abs(res.value - (1.0 - probs[target])) <= 5 * res.stderr + 1e-3

    def test_random_sign_query_small_gap(self):
        fam = small_family()
        rng = np.random.default_rng(13)
        dist = tilt(fam, surface_theta(fam, rng))
        n = 100
        refs = tilt_sample_many(dist, rng, n)

        def hash_sign(batch):
            ti, tj = np.divmod(batch.types, fam.k)
            return np.array([
                1.0 if (hash(v.tobytes()) + i + j) % 2 else -1.0
                for v, i, j in zip(batch.v, ti.tolist(), tj.tolist())
            ])

        res = gap(hash_sign, refs, dist, 20_000, np.random.default_rng(14))
        assert res.value <= 4 / math.sqrt(n) + 4 * res.stderr


def eval_query(fam, h, p, q, ti, tj, v):
    """Workload row (predicate mask h, basis row p, slice q) at the tensor
    point of type (ti, tj) with bits v: h(ti) * u_tj[p] * v[q]."""
    sign = -1 if (h >> ti) & 1 else 1
    return float(sign * fam.basis[tj, p] * v[q])


def eval_point(batch, idx):
    """All of a stage's query values on one point, one query at a time in
    closed form: the constant 1 on a compromised point, otherwise
    u_j[p] * h(i) * v_r at index p * 2^m + h."""
    if batch._comp[idx]:
        return np.ones(batch.n_queries)
    col = np.outer(batch._basis[:, batch._tj[idx]],
                   batch._hmat[:, batch._ti[idx]]) * batch._vr[idx]
    return col.reshape(-1)


class TestStageQueryBatch:
    def _make(self, rng, fam, n, comp_idx=()):
        dist = tilt(fam, surface_theta(fam, rng))
        refs = tilt_sample_many(dist, rng, n)
        ti, tj = np.divmod(refs.types, fam.k)
        bits = refs.v
        comp = np.zeros(n, dtype=bool)
        comp[list(comp_idx)] = True
        r = 1
        batch = StageQueryBatch(ti, tj, bits[:, r],
                                comp, predicate_matrix(fam.m).astype(float),
                                fam.basis.astype(float))
        return batch, refs, r

    def test_point_values_match_family_queries(self):
        fam = small_family()
        batch, refs, r = self._make(np.random.default_rng(20), fam, 9)
        ti, tj = np.divmod(refs.types, fam.k)
        for idx in (0, 4):
            vals = eval_point(batch, idx)
            one = batch.eval_mean([idx])
            for p in range(fam.k):
                for h in range(2 ** fam.m):
                    expect = eval_query(fam, h, p, r, ti[idx], tj[idx],
                                        refs.v[idx])
                    assert vals[p * 2 ** fam.m + h] == expect
                    assert one[p * 2 ** fam.m + h] == expect

    def test_compromised_point_is_constant_one(self):
        fam = small_family()
        batch, _, _ = self._make(np.random.default_rng(21), fam, 5, comp_idx=(2,))
        assert np.array_equal(eval_point(batch, 2), np.ones(batch.n_queries))
        assert np.array_equal(batch.eval_mean([2]), np.ones(batch.n_queries))

    def test_mean_is_average_of_point_values(self):
        fam = small_family()
        batch, _, _ = self._make(np.random.default_rng(22), fam, 13, comp_idx=(3,))
        stacked = np.stack([eval_point(batch, i) for i in range(13)])
        assert np.allclose(batch.eval_mean(), stacked.mean(axis=0))

    def test_subset_mean(self):
        fam = small_family()
        batch, _, _ = self._make(np.random.default_rng(23), fam, 12)
        idx = np.array([1, 5, 7])
        stacked = np.stack([eval_point(batch, i) for i in idx])
        assert np.allclose(batch.eval_mean(idx), stacked.mean(axis=0))
        with pytest.raises(ValueError, match="empty"):
            batch.eval_mean(np.array([], dtype=int))


def eval_mean_add_at(ti, tj, vr, comp, hmat, basis):
    """The per-type sums by np.add.at, as eval_mean once computed them."""
    sums = np.zeros((hmat.shape[1], basis.shape[0]))
    live = ~comp
    np.add.at(sums, (ti[live], tj[live]), vr[live].astype(float))
    vals = hmat @ sums @ basis.T
    return (vals.T.reshape(-1) + float(comp.sum())) / len(ti)


class TestEvalMeanOracle:
    def test_matches_add_at_formula(self):
        fam = make_family("tensor", m=3, k=8, d=4)
        rng = np.random.default_rng(24)
        n = 500
        types = rng.integers(0, fam.m * fam.k, size=n)
        ti, tj = np.divmod(types, fam.k)
        vr = rng.choice(np.array([-1, 1], dtype=np.int8), size=n)
        comp = rng.random(n) < 0.3
        hmat = predicate_matrix(fam.m).astype(float)
        basis = fam.basis.astype(float)
        batch = StageQueryBatch(ti, tj, vr, comp, hmat, basis)
        assert np.array_equal(batch.eval_mean(),
                              eval_mean_add_at(ti, tj, vr, comp, hmat, basis))
        idx = rng.choice(n, size=77, replace=False)
        want = eval_mean_add_at(ti[idx], tj[idx], vr[idx], comp[idx], hmat,
                                basis)
        assert np.array_equal(batch.eval_mean(idx), want)

    def test_all_compromised(self):
        fam = small_family()
        ti = np.array([0, 1, 1])
        tj = np.array([3, 0, 2])
        batch = StageQueryBatch(ti, tj, np.array([1, -1, 1], dtype=np.int8),
                                np.ones(3, dtype=bool),
                                predicate_matrix(fam.m).astype(float),
                                fam.basis.astype(float))
        assert np.array_equal(batch.eval_mean(), np.ones(batch.n_queries))


def walk_max_oracle(field, ti, tj, v, upto):
    """Largest prefix sum of lengths 1..upto, point by point in Python."""
    out = np.zeros(len(v))
    for p in range(len(v)):
        psum, best = 0.0, -math.inf
        for c in range(upto):
            psum += ((float(v[p, c]) - field.ref_shift[ti[p], tj[p], c])
                     * field.c_hat[ti[p], tj[p], c])
            best = max(best, psum)
        out[p] = best if upto else 0.0
    return out


def advanced_state(field, ti, tj, v, upto, check=None):
    """psum and run_max after advancing a zero state over slices 0..upto-1;
    ``check(r, psum, run_max)`` runs after each slice."""
    psum, run_max = np.zeros(len(v)), np.zeros(len(v))
    for r in range(upto):
        field.advance(ti, tj, v[:, r], r, psum, run_max)
        if check:
            check(r, psum, run_max)
    return psum, run_max


class TestWalkMax:
    """ScoreField.advance, one slice per stage, against the per-point walk."""

    def _field(self, seed, m=3, k=4, d=9, n=400):
        rng = np.random.default_rng(seed)
        # coefficients of mixed sizes and signs, so a different summation
        # order rounds differently on some points
        scale = 10.0 ** rng.integers(-3, 2, size=(m, k, d))
        c_hat = rng.normal(size=(m, k, d)) * scale
        field = ScoreField(c_hat=c_hat,
                           ref_shift=np.tanh(rng.normal(size=(m, k, d))))
        ti = rng.integers(0, m, size=n)
        tj = rng.integers(0, k, size=n)
        v = rng.choice(np.array([-1, 1], dtype=np.int8), size=(n, d))
        return field, ti, tj, v

    @pytest.mark.parametrize("upto", [0, 1, 2, 5, 9])
    def test_matches_per_point_oracle(self, upto):
        field, ti, tj, v = self._field(40)
        inc = field.increments(ti, tj, v)

        def check(r, psum, run_max):
            want = walk_max_oracle(field, ti, tj, v, r + 1)
            # the state starts at 0 and the oracle at -inf: points whose
            # prefix sums are all negative sit at 0, and no tau > 0 sees it
            assert (want < 0).any()
            assert np.array_equal(run_max, np.maximum(want, 0.0))
            assert np.array_equal(psum, np.cumsum(inc[:, :r + 1], axis=1)[:, -1])

        psum, run_max = advanced_state(field, ti, tj, v, upto, check)
        if upto == 0:
            assert not psum.any() and not run_max.any()

    def test_reads_only_columns_below_upto(self):
        field, ti, tj, v = self._field(41)
        upto = 4
        want = advanced_state(field, ti, tj, v, upto)
        flipped = v.copy()
        flipped[:, upto:] *= -1
        for bits in (v[:, :upto], flipped):
            got = advanced_state(field, ti, tj, bits, upto)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_crossing_points_match_oracle(self):
        field, ti, tj, v = self._field(42, d=12)
        _, run_max = advanced_state(field, ti, tj, v, 12)
        want = walk_max_oracle(field, ti, tj, v, 12)
        assert np.array_equal(run_max, np.maximum(want, 0.0))
        # a point whose running max equals tau exactly is not compromised
        tau = float(np.sort(want[want > 0])[(want > 0).sum() // 2])
        at_tau = run_max == tau
        assert at_tau.any() and tau > 0
        crossed = run_max > tau
        assert crossed.any() and not crossed[at_tau].any()
        assert np.array_equal(crossed, want > tau)


class RecordingAnalyst:
    """Wraps an analyst and keeps a copy of every stage's answers."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.answers = []

    def begin(self, obf_dataset, rng):
        self.inner.begin(obf_dataset, rng)

    def answer_stage(self, stage, batch):
        ans = np.asarray(self.inner.answer_stage(stage, batch), dtype=float)
        self.answers.append(ans.copy())
        return ans


class ZeroAnalyst:
    name = "zero"

    def begin(self, obf_dataset, rng):
        pass

    def answer_stage(self, stage, batch):
        return np.zeros(batch.n_queries)


class OutOfRangeAnalyst:
    name = "out-of-range"

    def begin(self, obf_dataset, rng):
        pass

    def answer_stage(self, stage, batch):
        return np.full(batch.n_queries, 2.0)


class WrongShapeAnalyst:
    name = "wrong-shape"

    def begin(self, obf_dataset, rng):
        pass

    def answer_stage(self, stage, batch):
        return np.zeros(batch.n_queries + 1)


class TestRunProtocol:
    def test_transcript_structure(self):
        fam = small_family()
        theta = surface_theta(fam, np.random.default_rng(30))
        tr = run_ada_protocol(ExactMeanAnalyst(), fam, theta, n=48, seed=31,
                              alpha=0.25)
        assert len(tr.stages) == fam.d
        counts = [rec.compromised_count for rec in tr.stages]
        assert all(a <= b for a, b in zip(counts, counts[1:]))
        assert all(0.0 <= rec.pop_compromised_frac <= 1.0 for rec in tr.stages)
        assert np.all(np.abs(tr.c_hat) <= 1.0 / fam.m + 1e-12)
        assert tr.W == 48 ** 3
        assert tr.name_collisions == 0
        assert tr.final_gap.stderr > 0
        lines = tr.log_lines()
        assert len(lines) == fam.d + 1
        assert lines[0].startswith("stage=0 ")
        assert "gap=" in lines[-1]

    def test_determinism(self):
        fam = small_family()
        theta = surface_theta(fam, np.random.default_rng(32))
        tr1 = run_ada_protocol(ExactMeanAnalyst(), fam, theta, n=40, seed=33)
        tr2 = run_ada_protocol(ExactMeanAnalyst(), fam, theta, n=40, seed=33)
        assert [r.answer_digest for r in tr1.stages] == \
               [r.answer_digest for r in tr2.stages]
        assert np.array_equal(tr1.c_hat, tr2.c_hat)
        assert tr1.final_gap.value == tr2.final_gap.value

    def test_reconstruction_population_fixpoint(self):
        # with many samples per type, the exact-mean analyst's reconstructed
        # coefficients converge on the tilted typed means tanh(T)/m
        fam = small_family()
        theta = surface_theta(fam, np.random.default_rng(70))
        n = 4096
        tr = run_ada_protocol(ExactMeanAnalyst(), fam, theta, n=n, seed=71)
        target = tr.ref_shift / fam.m
        tol = 5.0 * math.sqrt(fam.m * fam.k / n) / fam.m
        assert np.abs(tr.c_hat - target).max() <= tol

    def test_compromise_crossing_cap(self):
        # low tau forces compromises; crossing pscores stay within tau + 2/m
        fam = small_family()
        theta = surface_theta(fam, np.random.default_rng(34))
        tr = run_ada_protocol(ExactMeanAnalyst(), fam, theta, n=64, seed=35,
                              tau=0.05, alpha=0.25)
        comp = tr.dataset_compromised
        assert comp.any()
        crossings = tr.dataset_crossing_pscore[comp]
        assert np.all(crossings > tr.tau)
        assert np.all(crossings <= tr.tau + 2.0 / fam.m + 1e-9)
        assert np.all(tr.dataset_crossing_stage[comp] >= 0)
        assert np.all(tr.dataset_crossing_stage[~comp] == -1)

    def test_zero_analyst_flagged_inaccurate(self):
        fam = small_family()
        theta = np.zeros(fam.dim)
        th = theta.reshape(fam.m, fam.k, fam.d)
        th[0, 0, 0] = 2.0
        th[1, 0, 0] = -2.0
        tr = run_ada_protocol(ZeroAnalyst(), fam, theta.reshape(-1), n=32,
                              seed=36, alpha=0.25)
        assert not tr.stages[0].accuracy_ok
        assert 0 in tr.inaccurate_stages

    def test_exact_mean_not_flagged_when_oversampled(self):
        fam = small_family()
        theta = surface_theta(fam, np.random.default_rng(37))
        tr = run_ada_protocol(ExactMeanAnalyst(), fam, theta, n=512, seed=38,
                              alpha=0.25)
        assert tr.inaccurate_stages == []

    def test_population_check_matches_oracle(self):
        # the accuracy branch draws one population per run (types, then all
        # d slices as uniforms below Pr[v = +1]); stage r reads slice r on
        # the points whose walk over slices 0..r-1 stays at or below tau
        fam = small_family()
        m, k, d = fam.m, fam.k, fam.d
        theta = surface_theta(fam, np.random.default_rng(80))
        alpha, tau, mc, seed = 0.1, 0.05, 256, 81
        analyst = RecordingAnalyst(ExactMeanAnalyst())
        tr = run_ada_protocol(analyst, fam, theta, n=32, seed=seed, tau=tau,
                              alpha=alpha, mc_accuracy=mc)

        ss_acc = np.random.SeedSequence(seed).spawn(5)[2]
        rng = np.random.default_rng(ss_acc)
        types = rng.integers(0, m * k, size=mc)
        p_plus = expit(2.0 * tilt(fam, theta).type_tilts)
        v = np.where(rng.random((mc, d)) < p_plus[types], 1, -1)
        ti, tj = np.divmod(types, k)
        hmat = predicate_matrix(m).astype(float)
        basis = fam.basis.astype(float)
        n_queries = 2 ** m * k
        slack = math.sqrt(2.0 * math.log(2.0 * n_queries / 1e-3) / mc)
        field = tr.score_field()  # slice s of c_hat is fixed after stage s
        for r, rec in enumerate(tr.stages):
            comp = walk_max_oracle(field, ti, tj, v, r) > tau
            assert rec.pop_compromised_frac == comp.mean()
            pop_vals = eval_mean_add_at(ti, tj, v[:, r], comp, hmat, basis)
            dev = float(np.abs(analyst.answers[r] - pop_vals).max())
            assert rec.max_population_dev == dev
            assert rec.accuracy_ok == (dev <= alpha + slack)
        assert sum(rec.pop_compromised_frac > 0 for rec in tr.stages) >= 3
        assert 0 < len(tr.inaccurate_stages) < d

    @pytest.mark.parametrize("tau", [0.0, -1.0, math.nan])
    def test_nonpositive_tau_rejected(self, tau):
        fam = small_family()
        theta = surface_theta(fam, np.random.default_rng(82))
        with pytest.raises(ValueError, match="tau must be > 0"):
            run_ada_protocol(ExactMeanAnalyst(), fam, theta, n=8, seed=83,
                             tau=tau)

    def test_out_of_range_answer_aborts(self):
        fam = small_family()
        theta = surface_theta(fam, np.random.default_rng(39))
        with pytest.raises(ProtocolAbort) as err:
            run_ada_protocol(OutOfRangeAnalyst(), fam, theta, n=16, seed=40)
        assert err.value.stage == 0
        assert "[-1, 1]" in err.value.reason

    def test_wrong_shape_aborts(self):
        fam = small_family()
        theta = surface_theta(fam, np.random.default_rng(41))
        with pytest.raises(ProtocolAbort):
            run_ada_protocol(WrongShapeAnalyst(), fam, theta, n=16, seed=42)

    def test_name_space_validation(self):
        fam = small_family()
        theta = surface_theta(fam, np.random.default_rng(43))
        with pytest.raises(ValueError, match="W >= n"):
            run_ada_protocol(ExactMeanAnalyst(), fam, theta, n=32, W=100,
                             seed=44)
        with pytest.raises(ValueError, match="tensor"):
            run_ada_protocol(ExactMeanAnalyst(),
                             make_family("hypercube", d=4),
                             np.zeros(4), n=8, seed=45)

    @pytest.mark.parametrize("alpha", [0, 1, 2])
    def test_alpha_out_of_range_rejected(self, alpha):
        fam = small_family()
        theta = surface_theta(fam, np.random.default_rng(47))
        with pytest.raises(ValueError, match="alpha"):
            run_ada_protocol(ExactMeanAnalyst(), fam, theta, n=8, seed=48,
                             alpha=alpha)

    def test_fresh_population_mean_near_zero(self):
        # the final query is exactly centered on the population up to clamping
        fam = small_family()
        theta = surface_theta(fam, np.random.default_rng(46))
        alpha, C = 0.25, 2.0
        tr = run_ada_protocol(ExactMeanAnalyst(), fam, theta, n=64, seed=47,
                              alpha=alpha, C=C)
        fq = FinalQuery(tr.score_field(), fam.m, fam.d, alpha, C)
        dist = tilt(fam, theta)
        pop_refs = tilt_sample_many(dist, np.random.default_rng(48), 100_000)
        vals = fq(pop_refs)
        stderr = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean()) <= 2 * alpha ** (C * C) + 4 * stderr

    def test_oversampled_gap_is_small(self):
        fam = small_family()
        theta = surface_theta(fam, np.random.default_rng(49))
        tr = run_ada_protocol(ExactMeanAnalyst(), fam, theta, n=2000, seed=50,
                              alpha=0.25)
        assert tr.final_gap.value <= 2 * 0.25

    def test_fairness_replay_exact(self):
        # resampling a compromised point's post-crossing bits cannot change
        # the interaction: every stage record and the final field replay
        fam = small_family()
        rng = np.random.default_rng(51)
        theta = surface_theta(fam, rng)
        dist = tilt(fam, theta)
        n, W = 64, 64 ** 3
        refs = named_sample(dist, rng, n, W)
        kw = dict(tau=0.05, alpha=0.25, seed=52, W=W)
        tr_a = run_ada_protocol(ExactMeanAnalyst(), fam, theta, n=n,
                                dataset_override=refs, **kw)
        comp = np.flatnonzero(tr_a.dataset_compromised)
        early = comp[tr_a.dataset_crossing_stage[comp] < fam.d - 1]
        assert early.size > 0
        idx = int(early[0])
        stage = int(tr_a.dataset_crossing_stage[idx])

        refs_b = refs.take(slice(None))
        suffix = np.random.default_rng(53).choice(
            [-1, 1], size=fam.d - stage - 1).astype(np.int8)
        refs_b.v[idx, stage + 1:] = suffix
        assert not np.array_equal(refs_b.v[idx], refs.v[idx])

        tr_b = run_ada_protocol(ExactMeanAnalyst(), fam, theta, n=n,
                                dataset_override=refs_b, **kw)
        for rec_a, rec_b in zip(tr_a.stages, tr_b.stages):
            assert rec_a.query_digest == rec_b.query_digest
            assert rec_a.answer_digest == rec_b.answer_digest
            assert rec_a.compromised_count == rec_b.compromised_count
            assert rec_a.pop_compromised_frac == rec_b.pop_compromised_frac
        assert np.array_equal(tr_a.c_hat, tr_b.c_hat)
        assert tr_a.final_scale == tr_b.final_scale
        assert tr_a.final_gap.population_mean == tr_b.final_gap.population_mean


class TestAnalysts:
    def test_gaussian_sigma_zero_matches_exact_mean(self):
        fam = small_family()
        theta = surface_theta(fam, np.random.default_rng(60))
        tr_e = run_ada_protocol(ExactMeanAnalyst(), fam, theta, n=48, seed=61)
        tr_g = run_ada_protocol(GaussianNoisedAnalyst(0.0), fam, theta, n=48,
                                seed=61)
        assert [r.answer_digest for r in tr_e.stages] == \
               [r.answer_digest for r in tr_g.stages]
        assert tr_e.final_gap.value == tr_g.final_gap.value

    def test_gaussian_noise_stays_in_range(self):
        fam = small_family()
        theta = surface_theta(fam, np.random.default_rng(62))
        tr = run_ada_protocol(GaussianNoisedAnalyst(0.5), fam, theta, n=48,
                              seed=63)
        assert len(tr.stages) == fam.d

    def test_sample_split_stage_isolation(self):
        # stage r sees fold r mod folds only: editing a fold-1 point at a
        # late slice leaves stage-0 answers untouched but changes stage 1
        fam = small_family()
        rng = np.random.default_rng(64)
        theta = surface_theta(fam, rng)
        dist = tilt(fam, theta)
        n, W = 40, 40 ** 3
        refs_a = named_sample(dist, rng, n, W)
        refs_b = refs_a.take(slice(None))
        victim = n - 1  # second fold under a two-way split
        refs_b.v[victim, 1] = -refs_b.v[victim, 1]

        kw = dict(n=n, W=W, seed=65, alpha=0.25)
        tr_a = run_ada_protocol(SampleSplitAnalyst(2), fam, theta,
                                dataset_override=refs_a, **kw)
        tr_b = run_ada_protocol(SampleSplitAnalyst(2), fam, theta,
                                dataset_override=refs_b, **kw)
        assert tr_a.stages[0].answer_digest == tr_b.stages[0].answer_digest
        assert tr_a.stages[1].answer_digest != tr_b.stages[1].answer_digest

    def test_clamped_mean_clips(self):
        fam = small_family()
        rng = np.random.default_rng(66)
        dist = tilt(fam, surface_theta(fam, rng))
        refs = tilt_sample_many(dist, rng, 10)
        ti, tj = np.divmod(refs.types, fam.k)
        batch = StageQueryBatch(ti, tj, refs.v[:, 0], np.zeros(10, bool),
                                predicate_matrix(fam.m).astype(float),
                                fam.basis.astype(float))
        analyst = ClampedMeanAnalyst(bound=0.05)
        ans = analyst.answer_stage(0, batch)
        assert np.abs(ans).max() <= 0.05
        assert np.allclose(ans, np.clip(batch.eval_mean(), -0.05, 0.05))

    def test_builtin_registry(self):
        reg = builtin_analysts()
        assert set(reg) == {"exact-mean", "gaussian-noised", "sample-split",
                            "clamped-mean"}
        assert reg["exact-mean"]().name == "exact-mean"
        assert reg["gaussian-noised"](0.25).name == "gaussian-noised(0.25)"
        assert reg["sample-split"](4).name == "sample-split(4)"
        assert reg["clamped-mean"](0.5).name == "clamped-mean(0.5)"
        with pytest.raises(ValueError):
            GaussianNoisedAnalyst(-1.0)
        with pytest.raises(ValueError):
            SampleSplitAnalyst(0)
        with pytest.raises(ValueError):
            ClampedMeanAnalyst(0.0)
