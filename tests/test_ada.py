"""Staged-protocol tests: obfuscation, evaluators, analysts, transcripts."""

import math

import numpy as np
import pytest

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
    deobfuscate,
    deobfuscate_many,
    gap,
    obfuscate,
    obfuscate_many,
    run_ada_protocol,
)
from tiltlab.attack import ThetaSampler
from tiltlab.errors import ProtocolAbort
from tiltlab.families import (
    PointBatch,
    PointRef,
    QueryId,
    enumerate_refs,
    eval_query,
    make_family,
    predicate_matrix,
)
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

    def test_single_ref_roundtrip(self):
        rng = np.random.default_rng(2)
        ref = PointRef(v=rng.choice([-1, 1], size=12).astype(np.int8),
                       i=1, j=3, name=77)
        obf = Obfuscation(seed=9, W=100)
        masked = obfuscate(obf, ref)
        assert masked.name == 77 and masked.i == 1 and masked.j == 3
        back = deobfuscate(obf, masked)
        assert np.array_equal(back.v, ref.v)

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
        with pytest.raises(ValueError, match="named"):
            obfuscate(obf, PointRef(v=np.ones(4, dtype=np.int8), i=0, j=0))

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
        refs_all = enumerate_refs(fam)
        probs = np.exp(log_weights(dist))
        target = 2
        key = refs_all[target].v.tobytes()

        def indicator(batch):
            return np.array([1.0 if r.v.tobytes() == key else 0.0
                             for r in batch])

        res = gap(indicator, PointBatch.from_refs(fam, [refs_all[target]]),
                  dist, 200_000, np.random.default_rng(12))
        assert abs(res.value - (1.0 - probs[target])) <= 5 * res.stderr + 1e-3

    def test_random_sign_query_small_gap(self):
        fam = small_family()
        rng = np.random.default_rng(13)
        dist = tilt(fam, surface_theta(fam, rng))
        n = 100
        refs = tilt_sample_many(dist, rng, n)

        def hash_sign(batch):
            return np.array([
                1.0 if (hash(r.v.tobytes()) + r.i + r.j) % 2 else -1.0
                for r in batch
            ])

        res = gap(hash_sign, refs, dist, 20_000, np.random.default_rng(14))
        assert res.value <= 4 / math.sqrt(n) + 4 * res.stderr


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
        for idx in (0, 4):
            vals = batch.eval_point(idx)
            for p in range(fam.k):
                for h in range(2 ** fam.m):
                    expect = eval_query(fam, QueryId(h=h, p=p, q=r), refs[idx])
                    assert vals[p * 2 ** fam.m + h] == expect

    def test_compromised_point_is_constant_one(self):
        fam = small_family()
        batch, _, _ = self._make(np.random.default_rng(21), fam, 5, comp_idx=(2,))
        assert np.array_equal(batch.eval_point(2), np.ones(batch.n_queries))

    def test_mean_is_average_of_point_values(self):
        fam = small_family()
        batch, _, _ = self._make(np.random.default_rng(22), fam, 13, comp_idx=(3,))
        stacked = np.stack([batch.eval_point(i) for i in range(13)])
        assert np.allclose(batch.eval_mean(), stacked.mean(axis=0))

    def test_subset_mean(self):
        fam = small_family()
        batch, _, _ = self._make(np.random.default_rng(23), fam, 12)
        idx = np.array([1, 5, 7])
        stacked = np.stack([batch.eval_point(i) for i in idx])
        assert np.allclose(batch.eval_mean(idx), stacked.mean(axis=0))
        with pytest.raises(ValueError, match="empty"):
            batch.eval_mean(np.array([], dtype=int))


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
