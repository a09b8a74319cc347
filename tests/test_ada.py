"""Staged-protocol tests: obfuscation, evaluators, analysts, transcripts.

The obfuscation round trip decodes with a test-local inverse built on the
mask PRF (``_prf_key``, ``_prf_bit``), which keys slice r by the prefix of
bits it has already decoded: an independent route back to the clear bits.
"""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import expit

from tiltlab import ada
from tiltlab.ada import (
    ClampedMeanAnalyst,
    ExactMeanAnalyst,
    FinalQuery,
    GapResult,
    GaussianNoisedAnalyst,
    Obfuscation,
    SampleSplitAnalyst,
    ScoreField,
    StageQueryBatch,
    builtin_analysts,
    default_tau,
    gap,
    obfuscate_many,
    _prf_bit,
    _prf_key,
    run_ada_protocol,
)
from tiltlab.attack import ThetaSampler
from tiltlab.errors import ProtocolAbort
from tiltlab.families import PointBatch, make_family, predicate_matrix, \
    support_batch
from tiltlab.tilt import SAMPLE_BLOCK, log_weights, tilt, tilt_sample_many

from tilt_enumeration import recipe_bits


def small_family():
    return make_family("tensor", m=2, k=4, d=6)


def surface_theta(family, rng):
    radius = family.dim / math.sqrt(family.k)
    return ThetaSampler("l1-surface", family.dim, radius).sample(rng)


def named_sample(dist, rng, n, W):
    points = tilt_sample_many(dist, rng, n)
    points.names = rng.choice(W, size=n, replace=False)
    return points


def deobfuscate_many(obf, names, ti, tj, masked):
    """Decode slice by slice: the prefix keying slice r is the clear bits
    decoded so far."""
    key = _prf_key(obf.seed, names, ti, tj)
    out = np.empty_like(masked)
    prefix = np.zeros(len(masked), dtype=np.uint64)
    for r in range(masked.shape[1]):
        flip = _prf_bit(key, r, prefix)
        out[:, r] = np.where(flip, -masked[:, r], masked[:, r])
        prefix |= (out[:, r] == -1).astype(np.uint64) << np.uint64(r)
    return out


class TestObfuscation:
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

    def test_masks_match_five_round_reference(self):
        # the mask bit of slice r is five splitmix64 rounds over seed ^ name,
        # type i, type j, r and the clear prefix; the masks must keep these
        # bits however the rounds are scheduled
        u64 = np.uint64

        def mix(z):
            z = z + u64(0x9E3779B97F4A7C15)
            z = (z ^ (z >> u64(30))) * u64(0xBF58476D1CE4E5B9)
            z = (z ^ (z >> u64(27))) * u64(0x94D049BB133111EB)
            return z ^ (z >> u64(31))

        rng = np.random.default_rng(12)
        n, seed = 500, 2 ** 61 + 12345
        # past 64 slices the prefix stops growing: numpy shifts a uint64
        # by 64 or more to 0
        for d in (20, 70):
            names = rng.integers(0, 10 ** 9, n)
            ti, tj = rng.integers(0, 6, n), rng.integers(0, 64, n)
            v = rng.choice([-1, 1], size=(n, d)).astype(np.int8)
            want = np.empty_like(v)
            prefix = np.zeros(n, dtype=u64)
            for r in range(d):
                h = mix(u64(seed) ^ names.astype(u64))
                h = mix(h ^ ti.astype(u64))
                h = mix(h ^ tj.astype(u64))
                h = mix(h ^ u64(r))
                h = mix(h ^ prefix)
                flip = (h >> u64(63)).astype(bool)
                want[:, r] = np.where(flip, -v[:, r], v[:, r])
                prefix |= (v[:, r] == -1).astype(u64) << u64(r)
            obf = Obfuscation(seed=seed, W=10 ** 9)
            assert np.array_equal(obfuscate_many(obf, names, ti, tj, v),
                                  want)


class TestFinalQuery:
    def test_zero_field_gives_zero(self):
        # flat per-type rows: m * k = 2 * 4 types of d = 6 slices
        fld = ScoreField(c_hat=np.zeros((8, 6)), ref_shift=np.zeros((8, 6)))
        fq = FinalQuery(fld, m=2, d=6, alpha=0.25, C=2.0)
        # flat type ids of the types (0, 1) and (1, 2) at k = 4
        vals = fq.evaluate_bits(np.array([1, 6]),
                                np.ones((2, 6), dtype=np.int8))
        assert np.array_equal(vals, np.zeros(2))

    def test_clamp_hits_boundary(self):
        m, d, alpha, C = 2, 6, 0.25, 2.0
        target = 2.0 * C * math.sqrt(d * math.log(1.0 / alpha)) / m
        # flat per-type rows of the m types at k = 1
        c_hat = np.full((m, d), target / d)
        fld = ScoreField(c_hat=c_hat, ref_shift=np.zeros((m, d)))
        fq = FinalQuery(fld, m=m, d=d, alpha=alpha, C=C)
        v = np.ones((1, d), dtype=np.int8)
        at = fq.evaluate_bits(np.array([0]), v)[0]
        assert at == pytest.approx(1.0, abs=1e-12)
        # doubling the field saturates the clamp exactly
        fld2 = ScoreField(c_hat=2 * c_hat, ref_shift=np.zeros((m, d)))
        fq2 = FinalQuery(fld2, m=m, d=d, alpha=alpha, C=C)
        assert fq2.evaluate_bits(np.array([0]), v)[0] == 1.0
        assert fq2.evaluate_bits(np.array([0]), -v)[0] == -1.0

    def test_scale_formula(self):
        fld = ScoreField(c_hat=np.zeros((12, 32)), ref_shift=np.zeros((12, 32)))
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

        res = gap(indicator, PointBatch(fam, support.types[[target]],
                                        v=support.v[[target]]),
                  dist, 200_000, np.random.default_rng(12))
        assert abs(res.value - (1.0 - probs[target])) <= 5 * res.stderr + 1e-3

    def test_random_sign_query_small_gap(self):
        fam = small_family()
        rng = np.random.default_rng(13)
        dist = tilt(fam, surface_theta(fam, rng))
        n = 100
        refs = tilt_sample_many(dist, rng, n)

        def hash_sign(batch):
            # a digest, not hash(): str/bytes hashing is salted per process
            ti, tj = np.divmod(batch.types, fam.k)
            return np.array([
                1.0 if (hashlib.sha256(v.tobytes()).digest()[0] + i + j) % 2
                else -1.0
                for v, i, j in zip(batch.v, ti.tolist(), tj.tolist())
            ])

        res = gap(hash_sign, refs, dist, 20_000, np.random.default_rng(14))
        assert res.value <= 4 / math.sqrt(n) + 4 * res.stderr

    @pytest.mark.parametrize("mc_count",
                             [3 * SAMPLE_BLOCK, 2 * SAMPLE_BLOCK + 77])
    @pytest.mark.parametrize("block", [1, 7, SAMPLE_BLOCK, 4 * SAMPLE_BLOCK])
    def test_streamed_population_matches_one_block(self, monkeypatch,
                                                   mc_count, block):
        # the final query of a real run, on a population drawn in blocks,
        # against the same population drawn as one batch
        fam = small_family()
        theta = surface_theta(fam, np.random.default_rng(15))
        tr = run_ada_protocol(ExactMeanAnalyst(), fam, theta, n=64, seed=16,
                              tau=0.05, alpha=0.25)
        fq = FinalQuery(ScoreField(tr.c_hat, tr.ref_shift), fam.m, fam.d,
                        0.25, 2.0)
        dist = tilt(fam, theta)
        refs = tilt_sample_many(dist, np.random.default_rng(17), 64)

        want_rng = np.random.default_rng(18)
        pop = fq(tilt_sample_many(dist, want_rng, mc_count))
        ds_mean, pop_mean = float(fq(refs).mean()), float(pop.mean())
        want = GapResult(
            value=abs(ds_mean - pop_mean), dataset_mean=ds_mean,
            population_mean=pop_mean,
            stderr=float(pop.std(ddof=1) / math.sqrt(mc_count)))

        calls = []

        def query(batch):
            calls.append(len(batch))
            return fq(batch)

        monkeypatch.setattr(ada, "SAMPLE_BLOCK", block)
        rng = np.random.default_rng(18)
        assert gap(query, refs, dist, mc_count, rng) == want
        assert np.array_equal(rng.random(3), want_rng.random(3))
        # once on the dataset, then once per population block
        assert calls[0] == 64 and sum(calls[1:]) == mc_count
        assert len(calls) == 1 + -(-mc_count // block)


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
    ti, tj = divmod(int(batch._types[idx]), batch._basis.shape[0])
    col = np.outer(batch._basis[:, tj], batch._hmat[:, ti]) * batch._vr[idx]
    return col.reshape(-1)


class TestStageQueryBatch:
    def _make(self, rng, fam, n, comp_idx=()):
        dist = tilt(fam, surface_theta(fam, rng))
        refs = tilt_sample_many(dist, rng, n)
        comp = np.zeros(n, dtype=bool)
        comp[list(comp_idx)] = True
        r = 1
        batch = StageQueryBatch(refs.types, refs.v[:, r],
                                comp, predicate_matrix(fam.m),
                                fam.basis)
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


def eval_mean_sums_first(types, vr, comp, hmat, basis):
    """eval_mean with its products grouped basis @ (sums.T @ hmat.T)."""
    m, k = hmat.shape[1], basis.shape[0]
    sums = np.bincount(types, weights=np.where(comp, 0.0, vr),
                       minlength=m * k).reshape(m, k)
    vals = basis @ (sums.T @ hmat.T)
    return ((vals + float(comp.sum())) / len(types)).reshape(-1)


class TestEvalMeanOracle:
    def test_matches_add_at_formula(self):
        fam = make_family("tensor", m=3, k=8, d=4)
        rng = np.random.default_rng(24)
        n = 500
        types = rng.integers(0, fam.m * fam.k, size=n)
        ti, tj = np.divmod(types, fam.k)
        vr = rng.choice(np.array([-1, 1], dtype=np.int8), size=n)
        comp = rng.random(n) < 0.3
        hmat = predicate_matrix(fam.m)
        basis = fam.basis
        batch = StageQueryBatch(types, vr, comp, hmat, basis)
        assert np.array_equal(batch.eval_mean(),
                              eval_mean_add_at(ti, tj, vr, comp, hmat, basis))
        idx = rng.choice(n, size=77, replace=False)
        want = eval_mean_add_at(ti[idx], tj[idx], vr[idx], comp[idx], hmat,
                                basis)
        assert np.array_equal(batch.eval_mean(idx), want)

    @pytest.mark.parametrize("m", range(1, 7))
    @pytest.mark.parametrize("k", [1, 8, 64])
    def test_product_order_moves_no_bit(self, m, k):
        # per-type sums and both tables are small integers, so every
        # product is exact and any grouping gives the same floats; the
        # largest sums come from one type holding every live +1
        rng = np.random.default_rng(1000 * m + k)
        hmat = predicate_matrix(m)
        basis = make_family("tensor", m=m, k=k, d=1).basis
        for n in (1, 97, 4096):
            for case in ("random", "one-type"):
                if case == "random":
                    types = rng.integers(0, m * k, size=n)
                    vr = rng.choice(np.array([-1, 1], dtype=np.int8),
                                    size=n)
                    comp = rng.random(n) < rng.random()
                else:
                    types = np.full(n, rng.integers(0, m * k))
                    vr = np.ones(n, dtype=np.int8)
                    comp = np.zeros(n, dtype=bool)
                batch = StageQueryBatch(types, vr, comp, hmat, basis)
                assert np.array_equal(
                    batch.eval_mean(),
                    eval_mean_sums_first(types, vr, comp, hmat, basis))
                idx = rng.choice(n, size=rng.integers(1, n + 1),
                                 replace=False)
                assert np.array_equal(
                    batch.eval_mean(idx),
                    eval_mean_sums_first(types[idx], vr[idx], comp[idx],
                                         hmat, basis))

    def test_all_compromised(self):
        fam = small_family()
        types = np.array([0, 1, 1]) * fam.k + np.array([3, 0, 2])
        batch = StageQueryBatch(types, np.array([1, -1, 1], dtype=np.int8),
                                np.ones(3, dtype=bool),
                                predicate_matrix(fam.m),
                                fam.basis)
        assert np.array_equal(batch.eval_mean(), np.ones(batch.n_queries))


def walk_max_oracle(field, t, v, upto):
    """Largest prefix sum of lengths 1..upto, point by point in Python;
    ``t`` holds the points' flat type ids."""
    out = np.zeros(len(v))
    for p in range(len(v)):
        psum, best = 0.0, -math.inf
        for c in range(upto):
            psum += ((float(v[p, c]) - field.ref_shift[t[p], c])
                     * field.c_hat[t[p], c])
            best = max(best, psum)
        out[p] = best if upto else 0.0
    return out


def advanced_state(field, t, v, upto, check=None):
    """psum and run_max after advancing a zero state over slices 0..upto-1;
    ``check(r, psum, run_max)`` runs after each slice."""
    psum, run_max = np.zeros(len(v)), np.zeros(len(v))
    for r in range(upto):
        field.advance(t, v[:, r], r, psum, run_max)
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
        ref_shift = np.tanh(rng.normal(size=(m, k, d)))
        # flat per-type rows: type (i, j) is row i * k + j
        field = ScoreField(c_hat=c_hat.reshape(m * k, d),
                           ref_shift=ref_shift.reshape(m * k, d))
        ti = rng.integers(0, m, size=n)
        tj = rng.integers(0, k, size=n)
        v = rng.choice(np.array([-1, 1], dtype=np.int8), size=(n, d))
        return field, ti * k + tj, v

    @pytest.mark.parametrize("upto", [0, 1, 2, 5, 9])
    def test_matches_per_point_oracle(self, upto):
        field, t, v = self._field(40)
        inc = (v - field.ref_shift[t]) * field.c_hat[t]

        def check(r, psum, run_max):
            want = walk_max_oracle(field, t, v, r + 1)
            # the state starts at 0 and the oracle at -inf: points whose
            # prefix sums are all negative sit at 0, and no tau > 0 sees it
            assert (want < 0).any()
            assert np.array_equal(run_max, np.maximum(want, 0.0))
            assert np.array_equal(psum, np.cumsum(inc[:, :r + 1], axis=1)[:, -1])

        psum, run_max = advanced_state(field, t, v, upto, check)
        if upto == 0:
            assert not psum.any() and not run_max.any()

    def test_reads_only_columns_below_upto(self):
        field, t, v = self._field(41)
        upto = 4
        want = advanced_state(field, t, v, upto)
        flipped = v.copy()
        flipped[:, upto:] *= -1
        for bits in (v[:, :upto], flipped):
            got = advanced_state(field, t, bits, upto)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_crossing_points_match_oracle(self):
        field, t, v = self._field(42, d=12)
        _, run_max = advanced_state(field, t, v, 12)
        want = walk_max_oracle(field, t, v, 12)
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


class StridedAnalyst(RecordingAnalyst):
    """Exact means returned as a non-contiguous float64 view."""

    def __init__(self, step):
        super().__init__(ExactMeanAnalyst())
        self.step = step

    def answer_stage(self, stage, batch):
        ans = super().answer_stage(stage, batch)
        view = np.repeat(ans, abs(self.step))[::self.step]
        if self.step < 0:
            view = view[::-1]
        assert not view.flags.c_contiguous
        assert np.array_equal(view, ans)
        return view


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

    @pytest.mark.parametrize("step", [2, -3])
    def test_strided_answers_hash_like_their_bytes(self, step):
        # the digest reads the answers' buffer; a strided view is hashed
        # as its C-order bytes, with no BufferError
        fam = small_family()
        theta = surface_theta(fam, np.random.default_rng(30))
        plain = run_ada_protocol(ExactMeanAnalyst(), fam, theta, n=48,
                                 seed=31, alpha=0.25)
        analyst = StridedAnalyst(step)
        tr = run_ada_protocol(analyst, fam, theta, n=48, seed=31,
                              alpha=0.25)
        assert len(analyst.answers) == fam.d
        for rec, ans, ref in zip(tr.stages, analyst.answers, plain.stages):
            want = hashlib.sha256(ans.tobytes()).hexdigest()[:16]
            assert rec.answer_digest == ref.answer_digest == want
        assert tr.log_lines() == plain.log_lines()

    def test_ref_shift_is_the_tilts_typed_means(self):
        # flat per-type rows, in the tilt's own layout and bits
        fam = small_family()
        theta = surface_theta(fam, np.random.default_rng(30))
        tr = run_ada_protocol(ExactMeanAnalyst(), fam, theta, n=48, seed=31,
                              alpha=0.25)
        want = np.tanh(tilt(fam, theta).type_tilts)
        assert tr.c_hat.shape == tr.ref_shift.shape == (fam.m * fam.k, fam.d)
        assert tr.ref_shift.dtype == want.dtype
        assert tr.ref_shift.tobytes() == want.tobytes()

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
        # d slices by the v-bit recipe); stage r reads slice r on
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
        v = recipe_bits(rng, p_plus[types])
        ti, tj = np.divmod(types, k)
        hmat = predicate_matrix(m)
        basis = fam.basis
        n_queries = 2 ** m * k
        slack = math.sqrt(2.0 * math.log(2.0 * n_queries / 1e-3) / mc)
        # slice s of c_hat is fixed after stage s
        field = ScoreField(tr.c_hat, tr.ref_shift)
        for r, rec in enumerate(tr.stages):
            comp = walk_max_oracle(field, types, v, r) > tau
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
                             make_family("matrix-columns", d=4, n_columns=8,
                                         seed=45),
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
        field = ScoreField(tr.c_hat, tr.ref_shift)
        fq = FinalQuery(field, fam.m, fam.d, alpha, C)
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

        refs_b = replace(refs, v=refs.v.copy())
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


class MaskReadingAnalyst(ExactMeanAnalyst):
    """The exact-mean analyst that also reads its masked bits."""

    def begin(self, obf_dataset, rng):
        self.seen = obf_dataset
        self.masked = obf_dataset.masked_bits


class TestLazyMasks:
    def _run(self, analyst, names=None, seed=90):
        fam = small_family()
        rng = np.random.default_rng(seed)
        theta = surface_theta(fam, rng)
        n, W = 24, 24 ** 3
        refs = named_sample(tilt(fam, theta), rng, n, W)
        if names is not None:
            refs.names = names
        run_ada_protocol(analyst, fam, theta, n=n, W=W, seed=seed + 1,
                         alpha=0.25, dataset_override=refs)
        return fam, refs, W

    def test_masked_bits_equal_obfuscate_many(self):
        analyst = MaskReadingAnalyst()
        fam, refs, W = self._run(analyst)
        ss_obf = np.random.SeedSequence(91).spawn(5)[1]
        obf = Obfuscation(seed=int(ss_obf.generate_state(1, np.uint64)[0]),
                          W=W)
        ti, tj = np.divmod(refs.types, fam.k)
        seen = analyst.seen
        assert seen.n == len(refs)
        assert np.array_equal(seen.names, refs.names)
        assert np.array_equal(seen.types_i, ti)
        assert np.array_equal(seen.types_j, tj)
        want = obfuscate_many(obf, refs.names, ti, tj, refs.v)
        assert np.array_equal(analyst.masked, want)
        assert seen.masked_bits is analyst.masked  # computed once

    def test_exact_mean_run_builds_no_masks(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(1)
            return obfuscate_many(*args)

        monkeypatch.setattr(ada, "obfuscate_many", counting)
        self._run(ExactMeanAnalyst())
        assert calls == []
        self._run(MaskReadingAnalyst())
        assert calls == [1]

    def test_name_out_of_range_still_raises(self):
        n, W = 24, 24 ** 3
        names = np.arange(n)
        names[5] = W
        with pytest.raises(ValueError, match=r"names must lie in \[0, "):
            self._run(ExactMeanAnalyst(), names=names)
        names[5] = -1
        with pytest.raises(ValueError, match="names must lie"):
            self._run(ExactMeanAnalyst(), names=names)


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
        refs_b = replace(refs_a, v=refs_a.v.copy())
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
        batch = StageQueryBatch(refs.types, refs.v[:, 0], np.zeros(10, bool),
                                predicate_matrix(fam.m),
                                fam.basis)
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
