"""End-to-end acceptance checks at the frozen operating points.

Each class pins one headline property of the library at full scale, with
every seed fixed so reruns are bitwise-stable:

    - divergence identity on the enumerable-instance catalog
    - sparse histogram mass/sup-norm bounds and the 1e6-run privacy audit
    - query release at d=512, N=4096 under the frozen mass constant
    - column-sum concentration and spectral structure of random matrices
    - score separation for exact and noised mean mechanisms
    - staged-protocol gap behavior at the desk point (m=6, k=64, d=32)
    - exact Rademacher tails, the K-functional sandwich, and reductions
    - bitwise CSV determinism across worker counts and against the golden
      digests in tests/golden/

The four full-scale runs that take most of the suite's time carry the
``slow`` marker; ``pytest -m "not slow"`` skips them for a quick loop.

The desk point, the mass constant, and the probe level were frozen by the
recorded runs in scripts/calibration.py (master seed 1234); the quantitative
assertions here re-run those configurations in full.
"""

import hashlib
import math
from pathlib import Path

import numpy as np
import pytest

from tiltlab.ada import ExactMeanAnalyst, run_ada_protocol
from tiltlab.attack import (
    ThetaSampler,
    aggregate_separation,
    run_attack_trial,
    run_shifted_attack_trial,
)
from tiltlab.config import parse_config
from tiltlab.experiments import THETA_STREAM_TAG, run_experiment
from tiltlab.families import make_family
from tiltlab.mechanisms import (
    QUERY_RELEASE_CPRIME,
    Dataset,
    EmpiricalMean,
    GaussianMechanism,
    GroupPrivacyWrapped,
    HistogramVector,
    PaddedMechanism,
    audit_frequency_ratio,
    histogram_query_release,
    required_mass,
    sparse_histogram,
    sparse_histogram_many,
)
from tiltlab.seeds import trial_seed_sequence
from tiltlab.structure import (
    ETA_PROBE_SCALE,
    check_column_sums,
    check_expanding,
    check_regular,
    is_good_vector,
    k12,
    k12_sandwich_constant,
    rademacher_tail,
)
from tiltlab.tilt import divergence_check, tilt, tilt_sample_many

MASTER_SEED = 1234
GOLDEN_DIGESTS = Path(__file__).parent / "golden" / "csv_sha256.txt"


def seeded_matrix_family(d, n_columns, trial):
    """The experiment suite's matrix derivation: one branch seeds the
    matrix, the sibling drives the trial's sampling."""
    mat_seq, rng_seq = trial_seed_sequence(MASTER_SEED, trial).spawn(2)
    family = make_family(
        "matrix-columns", d=d, n_columns=n_columns,
        seed=int(mat_seq.generate_state(1, dtype=np.uint64)[0]),
    )
    return family, np.random.default_rng(rng_seq)


class TestDivergenceIdentity:
    # every enumerable instance: finite-difference divergence of the mean
    # map equals the exact expected total score
    INSTANCES = (
        ("hypercube", {"d": 2}, 1),
        ("hypercube", {"d": 2}, 2),
        ("hypercube", {"d": 3}, 1),
        ("hypercube", {"d": 3}, 2),
        ("hypercube", {"d": 4}, 1),
        ("hypercube", {"d": 4}, 2),
        ("tensor", {"m": 1, "k": 2, "d": 2}, 1),
        ("tensor", {"m": 1, "k": 2, "d": 2}, 2),
        ("tensor", {"m": 2, "k": 1, "d": 2}, 1),
        ("tensor", {"m": 2, "k": 1, "d": 2}, 2),
        ("tensor", {"m": 2, "k": 2, "d": 2}, 1),
        ("tensor", {"m": 2, "k": 2, "d": 2}, 2),
    )

    @pytest.mark.parametrize("idx", range(len(INSTANCES)))
    def test_identity_on_catalog(self, idx):
        kind, kwargs, n = self.INSTANCES[idx]
        family = make_family(kind, **kwargs)
        rng = np.random.default_rng(trial_seed_sequence(MASTER_SEED, idx))
        theta = rng.normal(scale=0.5, size=family.dim)
        report = divergence_check(family, theta, EmpiricalMean(), n)
        assert report.abs_err <= 1e-6


class TestSparseHistogramRelease:
    def test_mass_and_sup_norm_on_random_inputs(self):
        # 1e4 random sparse inputs across finite and unbounded universes:
        # mass preserved at float-sum resolution (measured <= 2 ulp) and
        # ||x - xhat||_inf <= 2v = 10 ln(1/delta)/eps on every run
        rng = np.random.default_rng(5678)
        for _ in range(10_000):
            support = int(rng.integers(1, 24))
            eps = float(rng.uniform(0.3, 3.0))
            delta = float(rng.uniform(1e-7, 1e-3))
            universe = None if rng.random() < 0.5 \
                else support + int(rng.integers(0, 40))
            w = rng.uniform(0.1, 5.0, size=support)
            hist = HistogramVector(
                weights={int(j): float(x) for j, x in enumerate(w)},
                universe_size=universe,
            )
            out = sparse_histogram(hist, eps, delta, rng)
            assert abs(out.total - hist.total) <= 4 * np.spacing(hist.total)
            bound = 10.0 * math.log(1.0 / delta) / eps
            size = universe if universe is not None else support
            dense_in = np.zeros(size)
            dense_out = np.full(size, out.background)
            for u, x in hist.weights.items():
                dense_in[u] = x
            for u, x in out.weights.items():
                dense_out[u] = x
            assert float(np.abs(dense_in - dense_out).max()) <= bound

    @pytest.mark.slow
    def test_two_element_frequency_audit_never_rejects(self):
        # mass-preserving adjacent pair at l1 distance 1 on a 2-element
        # universe; 1e6 runs per side at significance 1e-3
        rng = np.random.default_rng(4321)
        hist_a = HistogramVector(weights={0: 6.0, 1: 4.0}, universe_size=2)
        hist_b = HistogramVector(weights={0: 6.5, 1: 3.5}, universe_size=2)
        report = audit_frequency_ratio(
            lambda r, n: sparse_histogram_many(hist_a, 1.0, 1e-4, r, n)[:, 0],
            lambda r, n: sparse_histogram_many(hist_b, 1.0, 1e-4, r, n)[:, 0],
            epsilon=1.0, delta=1e-4, runs=1_000_000,
            bin_edges=np.linspace(0.0, 10.0, 21), rng=rng,
        )
        assert not report.rejected


class TestQueryReleaseAccuracy:
    def test_l2_error_within_budget(self):
        # d=512, N=4096, alpha=0.5, eps=1, delta=1e-6 at the frozen mass
        # constant: l2 error <= alpha sqrt(d) in at least 99/100 trials
        d, n_cols, alpha, eps, delta = 512, 4096, 0.5, 1.0, 1e-6
        support = 64
        budget = alpha * math.sqrt(d)
        n_req = required_mass(eps, delta, alpha, QUERY_RELEASE_CPRIME)
        passes = 0
        for t in range(100):
            family, rng = seeded_matrix_family(d, n_cols, t)
            ids = rng.choice(n_cols, size=support, replace=False)
            raw = rng.uniform(0.2, 1.0, size=support)
            raw *= n_req / raw.sum()
            hist = HistogramVector(
                weights={int(u): float(w) for u, w in zip(ids, raw)},
                universe_size=n_cols,
            )
            yhat, _ = histogram_query_release(
                family, hist, epsilon=eps, delta=delta, alpha=alpha, rng=rng,
            )
            dense = np.zeros(n_cols)
            for u, w in hist.weights.items():
                dense[u] = w
            truth = family.matrix.astype(float) @ dense / hist.total
            passes += float(np.linalg.norm(yhat - truth)) <= budget
        assert passes >= 99


class TestColumnSumConcentration:
    @pytest.mark.slow
    def test_subset_sums_within_cap_and_mean(self):
        # d=256, N=1024, k=3 (under the 0.1 d/ln N cap): no subset-sum
        # norm above sqrt(2kd) on at least 19/20 matrices, and the pooled
        # second moment stays within 4 stderr of its exact expectation kd
        d, n_cols, k, subsets = 256, 1024, 3, 100_000
        assert k <= 0.1 * d / math.log(n_cols)
        clean = 0
        means, stderrs = [], []
        for t in range(20):
            family, rng = seeded_matrix_family(d, n_cols, t)
            report = check_column_sums(family.matrix, k, subsets, rng)
            clean += report.violations == 0
            means.append(report.mean_sq)
            stderrs.append(report.stderr_sq)
        assert clean >= 19
        pooled_mean = float(np.mean(means))
        pooled_se = float(np.sqrt(np.sum(np.square(stderrs)))) / len(means)
        assert abs(pooled_mean - k * d) <= 4 * pooled_se


class TestTiltStructureChecks:
    @pytest.mark.slow
    def test_expanding_and_regular_fail_fractions(self):
        # r = 0.3 sqrt(ln N): tilts of random matrices stay expanding at
        # the frozen probe level and spectrally regular (lambda_max <= 2)
        # except on <= 1% of theta draws, on at least 19/20 matrices
        bad = 0
        for d, n_cols in ((64, 2048), (128, 4096)):
            r = 0.3 * math.sqrt(math.log(n_cols))
            probe = ETA_PROBE_SCALE * math.log(n_cols)
            for t in range(10):
                family, rng = seeded_matrix_family(d, n_cols, t)
                expanding = check_expanding(family.matrix, r, probe, 2000, rng)
                regular = check_regular(family.matrix, r, 2000, rng)
                bad += (expanding.fail_fraction > 0.01
                        or regular.fraction_above > 0.01)
        assert bad <= 1


class TestHypercubeScoreSeparation:
    def _aggregate(self, mechanism):
        family = make_family("hypercube", d=64)
        sampler = ThetaSampler("l2-sphere", family.dim, 5.0 * math.sqrt(64))
        reports = [
            run_attack_trial(
                family, sampler, mechanism, 4, 400,
                np.random.default_rng(trial_seed_sequence(MASTER_SEED, t)),
            )
            for t in range(200)
        ]
        return aggregate_separation(reports)

    def test_exact_mean_separates_and_noise_suppresses(self):
        exact = self._aggregate(EmpiricalMean())
        noised = self._aggregate(GaussianMechanism(0.1, 1e-6))
        assert exact > 5.0
        assert noised < exact / 2


class TestShiftedScoreMoment:
    def test_fresh_second_moment_bounded(self):
        # every trial: the fresh-score second moment at 1e5 draws stays
        # under 1.1 lambda_max ||answer - mu||^2
        family = make_family("matrix-columns", d=64, n_columns=2048, seed=11)
        sampler = ThetaSampler(
            "l2-sphere", 64, 2.0 * math.sqrt(math.log(2048)))
        for t in range(20):
            rng = np.random.default_rng(trial_seed_sequence(MASTER_SEED, t))
            report = run_shifted_attack_trial(
                family, sampler, EmpiricalMean(), 8, rng, fresh_count=100_000)
            second = float((report.fresh_scores ** 2).mean())
            bound = report.diagnostics["lambda_max"] * float(
                ((report.answer - report.shift) ** 2).sum())
            assert second <= 1.1 * bound


def desk_family_and_sampler():
    family = make_family("tensor", m=6, k=64, d=32)
    sampler = ThetaSampler(
        "l1-surface", family.dim, family.dim / math.sqrt(family.k))
    return family, sampler


def desk_theta(sampler, trial):
    seq = np.random.SeedSequence(
        entropy=(MASTER_SEED, THETA_STREAM_TAG), spawn_key=(trial,))
    return sampler.sample(np.random.default_rng(seq))


class TestStagedProtocolDesk:
    ALPHA = 0.125

    @pytest.mark.slow
    def test_under_and_over_sampled_gaps(self):
        # under-sampled runs (one point per type) leak a detectable gap;
        # 10x the data drives the gap under 2 alpha; the obfuscated
        # population never has more than 5% compromised at any stage
        family, sampler = desk_family_and_sampler()
        trials, n_under = 500, family.m * family.k
        under, over, max_pop = [], [], 0.0
        for t in range(trials):
            theta = desk_theta(sampler, t)
            for n, out, offset in ((n_under, under, 0),
                                   (10 * n_under, over, trials)):
                tr = run_ada_protocol(
                    ExactMeanAnalyst(), family, theta, n=n,
                    seed=trial_seed_sequence(MASTER_SEED, offset + t),
                    alpha=self.ALPHA,
                )
                out.append(tr.final_gap.value)
                max_pop = max(max_pop, max(
                    rec.pop_compromised_frac for rec in tr.stages))
        under = np.array(under)
        over = np.array(over)
        assert (under >= self.ALPHA / 2).mean() >= 0.05
        assert (over <= 2 * self.ALPHA).mean() >= 0.95
        assert max_pop <= 0.05

    def test_fairness_replay_exact_at_desk(self):
        # resampling a compromised point's post-crossing slices leaves the
        # whole interaction bitwise unchanged at the desk operating point
        family, sampler = desk_family_and_sampler()
        theta = desk_theta(sampler, 0)
        dist = tilt(family, theta)
        rng = np.random.default_rng(777)
        n, W = family.m * family.k, (family.m * family.k) ** 3
        refs = tilt_sample_many(dist, rng, n)
        refs.names = rng.choice(W, size=n, replace=False)
        # spawning advances a SeedSequence, so each run needs its own
        # identically derived copy for the branches to replay
        def run(dataset):
            return run_ada_protocol(
                ExactMeanAnalyst(), family, theta, n=n,
                seed=trial_seed_sequence(MASTER_SEED, 0), alpha=self.ALPHA,
                dataset_override=dataset,
            )

        tr_a = run(refs)
        comp = np.flatnonzero(tr_a.dataset_compromised)
        early = comp[tr_a.dataset_crossing_stage[comp] < family.d - 1]
        assert early.size > 0
        idx = int(early[0])
        stage = int(tr_a.dataset_crossing_stage[idx])

        refs_b = refs.take(slice(None))
        suffix = np.random.default_rng(778).choice(
            [-1, 1], size=family.d - stage - 1).astype(np.int8)
        refs_b.v[idx, stage + 1:] = suffix
        assert not np.array_equal(refs_b.v[idx], refs.v[idx])

        tr_b = run(refs_b)
        for rec_a, rec_b in zip(tr_a.stages, tr_b.stages):
            assert rec_a.query_digest == rec_b.query_digest
            assert rec_a.answer_digest == rec_b.answer_digest
            assert rec_a.compromised_count == rec_b.compromised_count
            assert rec_a.pop_compromised_frac == rec_b.pop_compromised_frac
        assert np.array_equal(tr_a.c_hat, tr_b.c_hat)
        assert tr_a.final_scale == tr_b.final_scale
        assert tr_a.final_gap.population_mean == tr_b.final_gap.population_mean


def grid_k12(a, t, levels=4, res=41):
    """Refined-grid oracle over the componentwise split, d <= 3."""
    a = np.abs(np.asarray(a, dtype=float))
    d = len(a)
    lo, hi = np.zeros(d), a.copy()
    best = math.inf
    for _ in range(levels):
        axes = [np.linspace(lo[i], hi[i], res) for i in range(d)]
        grids = np.meshgrid(*axes, indexing="ij")
        part = np.stack([g.ravel() for g in grids], axis=1)
        obj = part.sum(axis=1) + t * np.sqrt(
            ((a[None, :] - part) ** 2).sum(axis=1)
        )
        j = int(np.argmin(obj))
        best = min(best, float(obj[j]))
        span = (hi - lo) / (res - 1)
        lo = np.maximum(0, part[j] - 2 * span)
        hi = np.minimum(a, part[j] + 2 * span)
    return best


class TestTailAndKFunctional:
    def test_hoeffding_never_violated_exact_d20(self):
        # exact enumeration of all 2^20 sign patterns for a spread of
        # vectors; the exp(-t^2/2) bound holds at every threshold
        rng = np.random.default_rng(90)
        vectors = [np.ones(20)]
        vectors += [rng.normal(size=20) for _ in range(8)]
        vectors += [np.r_[3.0, np.ones(19)], np.r_[5.0, 2.0, np.ones(18)]]
        t_grid = np.linspace(0.25, 4.0, 16)
        for a in vectors:
            report = rademacher_tail(a, t_grid, mode="exact")
            assert all(report.hoeffding_ok)

    def test_sandwich_constant_on_good_vectors(self):
        # c t ||a||_2 <= k12(a, t) <= t ||a||_2 with fitted c >= 0.05
        rng = np.random.default_rng(91)
        for _ in range(10):
            a = rng.uniform(0.5, 1.5, size=20) * rng.choice([-1, 1], size=20)
            assert is_good_vector(a)
            assert k12_sandwich_constant(a) >= 0.05
            l2 = float(np.linalg.norm(a))
            for t in np.linspace(0.05, math.sqrt(20), 12):
                assert k12(a, t) <= t * l2 + 1e-9

    def test_k12_matches_small_d_grid_oracle(self):
        rng = np.random.default_rng(92)
        for _ in range(15):
            d = int(rng.integers(1, 4))
            a = rng.normal(size=d)
            t = float(rng.uniform(0.1, 4))
            assert abs(k12(a, t) - grid_k12(a, t)) <= 1e-4


class TestMeanReductions:
    @pytest.mark.parametrize("p", [1, 2, 3, 5])
    @pytest.mark.parametrize("eps,delta", [(0.7, 1e-6), (2.0, 1e-5)])
    def test_group_privacy_metadata_closed_form(self, p, eps, delta):
        family = make_family("hypercube", d=8)
        rng = np.random.default_rng(93)
        refs = tilt_sample_many(tilt(family, np.zeros(8)), rng, 6)
        ds = Dataset.from_refs(refs)
        wrapped = GroupPrivacyWrapped(GaussianMechanism(eps, delta), p)
        ans = wrapped(ds, rng)
        assert ans.epsilon == pytest.approx(p * eps, rel=1e-12)
        expected_delta = delta if p == 1 else \
            delta * math.expm1(p * eps) / math.expm1(eps)
        assert ans.delta == pytest.approx(expected_delta, rel=1e-12)

    def test_padding_reproduces_small_mean(self):
        # padded exact-mean undoes the anchor contribution exactly for
        # 100 random anchors
        family = make_family("hypercube", d=16)
        rng = np.random.default_rng(94)
        dist = tilt(family, np.zeros(family.dim))
        for _ in range(100):
            anchor = tilt_sample_many(dist, rng, 1)
            refs = tilt_sample_many(dist, rng, 5)
            ds = Dataset.from_refs(refs)
            padded = PaddedMechanism(EmpiricalMean(), 3, anchor)
            est = padded(ds).estimate
            np.testing.assert_allclose(
                est, ds.points.mean(axis=0), atol=1e-12)


DETERMINISM_CONFIGS = {
    "attack-hypercube": """
        kind = attack-hypercube
        trials = 4
        d = 8
        n = 2
        fresh = 50
    """,
    "attack-random": """
        kind = attack-random
        trials = 3
        d = 16
        n_columns = 32
        n = 2
        fresh = 100
    """,
    "ada-run": """
        kind = ada-run
        trials = 2
        m = 2
        k = 4
        d = 6
        n = 32
        mc_accuracy = 256
        mc_gap = 512
    """,
    "mech-bench": """
        kind = mech-bench
        trials = 3
        support = 8
    """,
    "verify-structure": """
        kind = verify-structure
        trials = 2
        d = 24
        n_columns = 512
        n_theta = 60
        n_subsets = 300
        k_subset = 2
        cap_scale = 1.0
    """,
    "divergence-check": """
        kind = divergence-check
        trials = 6
    """,
}


class TestSuiteDeterminism:
    @pytest.mark.parametrize("kind", sorted(DETERMINISM_CONFIGS))
    def test_csv_bytes_stable_across_workers(self, kind, tmp_path):
        cfg = parse_config(DETERMINISM_CONFIGS[kind])
        outputs = []
        for label, workers in (("a", 1), ("b", 3), ("c", 3)):
            result = run_experiment(cfg, 99, tmp_path / label, workers=workers)
            assert result.exit_code == 0
            outputs.append(result.csv_path.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    @pytest.mark.parametrize("kind", sorted(DETERMINISM_CONFIGS))
    def test_csv_bytes_match_golden_digest(self, kind, tmp_path):
        # pins the bytes across code changes, not only across worker counts
        golden = {}
        for line in GOLDEN_DIGESTS.read_text().splitlines():
            digest, name = line.split()
            golden[name] = digest
        result = run_experiment(parse_config(DETERMINISM_CONFIGS[kind]), 99,
                                tmp_path)
        assert result.exit_code == 0
        got = hashlib.sha256(result.csv_path.read_bytes()).hexdigest()
        assert got == golden[f"{kind}.csv"]
        # kinds that write a log (ada-run) pin its bytes too
        log_name = f"{kind}.log"
        assert result.log_path.exists() == (log_name in golden)
        if log_name in golden:
            got = hashlib.sha256(result.log_path.read_bytes()).hexdigest()
            assert got == golden[log_name]
