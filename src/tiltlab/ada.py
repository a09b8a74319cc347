"""Staged adaptive-data-analysis adversary with prefix obfuscation.

The adversary samples a dataset from a type-conditioned tensor tilt, hands
the analyst an obfuscated copy, and then runs one stage per coordinate
slice.  Each stage exposes the full (predicate, basis-row) query batch for
that slice through black-box evaluators, reconstructs the per-type slice
means from the analyst's answers, and tracks a partial score for every
point.  Points whose running partial score crosses the threshold tau are
compromised: from the next stage on, every query answers the constant 1 on
them, so the rest of their bits can never influence the transcript.  After
the last stage the clamped, scaled total score becomes the final
distinguishing query, and the sample-vs-population gap is measured.

Universe points are never enumerated: a point's partial score depends only
on its type, its revealed bits, and the reconstructed field, so dataset
points and one Monte Carlo population per run are tracked by the same
running walk, advanced one slice per stage.

Seeding is split into fixed, independent branches (dataset, obfuscation,
accuracy checks, gap estimation, analyst noise), so replaying a run with
the same seed and a dataset override keeps every non-dataset draw coupled.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.special import expit

from .errors import ProtocolAbort
from .families import PointBatch, PointFamily, predicate_matrix
from .mechanisms import project_to_H, reconstruct_slices_batch
from .tilt import TiltedDistribution, sign_bits, tilt, tilt_sample_many

# --------------------------------------------------------------------------
# seeded pseudorandom masks

_U64 = np.uint64
_GAMMA = _U64(0x9E3779B97F4A7C15)
_MIX1 = _U64(0xBF58476D1CE4E5B9)
_MIX2 = _U64(0x94D049BB133111EB)


def _mix64(z: np.ndarray) -> np.ndarray:
    z = (z + _GAMMA) & _U64(0xFFFFFFFFFFFFFFFF)
    z = (z ^ (z >> _U64(30))) * _MIX1
    z = (z ^ (z >> _U64(27))) * _MIX2
    return z ^ (z >> _U64(31))


def _prf_bit(seed: int, names, ti, tj, r: int, prefix) -> np.ndarray:
    h = _mix64(_U64(seed) ^ np.asarray(names, dtype=_U64))
    h = _mix64(h ^ np.asarray(ti, dtype=_U64))
    h = _mix64(h ^ np.asarray(tj, dtype=_U64))
    h = _mix64(h ^ _U64(r))
    h = _mix64(h ^ np.asarray(prefix, dtype=_U64))
    return (h >> _U64(63)).astype(bool)


@dataclass(frozen=True)
class Obfuscation:
    """Prefix-dependent random sign masks keyed by (name, type, slice).

    The mask for slice r is a seeded pseudorandom function of the name, the
    type pair, the slice index, and the true bits before r, so masks for
    distinct names are independent and decoding must proceed slice by
    slice.  ``identity=True`` is a test hook that masks nothing.
    """

    seed: int
    W: int
    identity: bool = False

    def __post_init__(self):
        if self.W < 1:
            raise ValueError("name space must be positive")


def _check_names(obf: Obfuscation, names) -> np.ndarray:
    names = np.asarray(names)
    if names.size and (names.min() < 0 or names.max() >= obf.W):
        raise ValueError(f"names must lie in [0, {obf.W})")
    return names


def _apply_masks(obf: Obfuscation, names, ti, tj, bits, decode: bool):
    """Flip bits by the masks; the prefix keying slice r is read from the
    clear bits, which are the input when encoding and the output when
    decoding."""
    names = _check_names(obf, names)
    bits = np.asarray(bits, dtype=np.int8)
    if obf.identity:
        return bits.copy()
    out = np.empty_like(bits)
    prefix = np.zeros(len(bits), dtype=_U64)
    for r in range(bits.shape[1]):
        flip = _prf_bit(obf.seed, names, ti, tj, r, prefix)
        out[:, r] = np.where(flip, -bits[:, r], bits[:, r])
        clear = out[:, r] if decode else bits[:, r]
        prefix |= (clear == -1).astype(_U64) << _U64(r)
    return out


def obfuscate_many(obf: Obfuscation, names, ti, tj, v: np.ndarray) -> np.ndarray:
    """Mask the sign matrix v (rows are points, columns are slices)."""
    return _apply_masks(obf, names, ti, tj, v, decode=False)


def deobfuscate_many(obf: Obfuscation, names, ti, tj, masked: np.ndarray) -> np.ndarray:
    return _apply_masks(obf, names, ti, tj, masked, decode=True)


# --------------------------------------------------------------------------
# score field and final query


@dataclass
class ScoreField:
    """Reconstructed per-type slice coefficients plus the reference means.

    ``c_hat[i, j, r]`` multiplies (v_r - ref_shift[i, j, r]) in the score of
    a type-(i, j) point, so scores of whole batches reduce to table lookups.
    """

    c_hat: np.ndarray  # (m, k, d)
    ref_shift: np.ndarray  # (m, k, d)

    def increments(self, ti, tj, v: np.ndarray) -> np.ndarray:
        return (v - self.ref_shift[ti, tj, :]) * self.c_hat[ti, tj, :]

    def score(self, ti, tj, v: np.ndarray) -> np.ndarray:
        return self.increments(ti, tj, v).sum(axis=1)

    def advance(self, ti, tj, v_r: np.ndarray, r: int, psum: np.ndarray,
                run_max: np.ndarray) -> None:
        """Add slice r's increments to psum and raise run_max to it, in place.

        Started at zero and advanced over slices 0..r-1, run_max is the
        largest prefix sum of lengths 0..r of each point's partial score.
        The empty prefix counts, so it differs from the largest non-empty
        prefix only below zero, which no threshold tau > 0 tells apart.
        """
        psum += (v_r - self.ref_shift[ti, tj, r]) * self.c_hat[ti, tj, r]
        np.maximum(run_max, psum, out=run_max)


class FinalQuery:
    """clamp(score * m / (2 C sqrt(d ln(1/alpha))), -1, 1) on any point."""

    def __init__(self, score_field: ScoreField, m: int, d: int,
                 alpha: float, C: float):
        self.field = score_field
        self.scale = m / (2.0 * C * math.sqrt(d * math.log(1.0 / alpha)))

    def evaluate_bits(self, ti, tj, v: np.ndarray) -> np.ndarray:
        return np.clip(self.field.score(ti, tj, v) * self.scale, -1.0, 1.0)

    def __call__(self, points: PointBatch) -> np.ndarray:
        ti, tj = np.divmod(points.types, self.field.c_hat.shape[1])
        return self.evaluate_bits(ti, tj, points.v)


@dataclass
class GapResult:
    value: float
    dataset_mean: float
    population_mean: float
    stderr: float


def gap(query: Callable, points: PointBatch, dist: TiltedDistribution,
        mc_count: int, rng: np.random.Generator) -> GapResult:
    """|dataset mean - Monte Carlo population mean| of a [-1,1] query.

    ``query`` is called with a PointBatch and must return one value per
    point."""
    ds_vals = np.asarray(query(points), dtype=float)
    pop_vals = np.asarray(query(tilt_sample_many(dist, rng, mc_count)),
                          dtype=float)
    pop_mean = float(pop_vals.mean())
    stderr = float(pop_vals.std(ddof=1) / math.sqrt(mc_count))
    ds_mean = float(ds_vals.mean())
    return GapResult(
        value=abs(ds_mean - pop_mean),
        dataset_mean=ds_mean,
        population_mean=pop_mean,
        stderr=stderr,
    )


# --------------------------------------------------------------------------
# analyst-facing query batch


class StageQueryBatch:
    """Black-box evaluators for one stage's (basis-row, predicate) queries.

    Queries are indexed p * 2^m + h: basis row p against predicate mask h.
    Values on compromised points are the constant 1.  Only query values are
    exposed; the underlying clear bits stay private to the protocol.
    """

    def __init__(self, ti, tj, v_r, compromised, hmat, basis):
        self._ti = ti
        self._tj = tj
        self._vr = v_r.astype(float)
        self._comp = compromised
        self._hmat = hmat
        self._basis = basis
        self.n_points = len(ti)
        self.n_queries = hmat.shape[0] * basis.shape[0]

    def eval_mean(self, indices=None) -> np.ndarray:
        """Mean of every query over the dataset (or a subset of indices)."""
        if indices is None:
            ti, tj, vr, comp = self._ti, self._tj, self._vr, self._comp
        else:
            idx = np.asarray(indices)
            if idx.size == 0:
                raise ValueError("empty index subset")
            ti, tj = self._ti[idx], self._tj[idx]
            vr, comp = self._vr[idx], self._comp[idx]
        m = self._hmat.shape[1]
        k = self._basis.shape[0]
        live = ~comp
        # per-type sums of +-1 bits: exact integers in any order
        sums = np.bincount(ti[live] * k + tj[live], weights=vr[live],
                           minlength=m * k).reshape(m, k)
        vals = self._hmat @ sums @ self._basis.T  # (2^m, k)
        flat = vals.T.reshape(-1)
        return (flat + float(comp.sum())) / len(ti)


# --------------------------------------------------------------------------
# analysts


class ExactMeanAnalyst:
    """Answers every query with its exact dataset mean."""

    name = "exact-mean"

    def begin(self, obf_dataset, rng):
        pass

    def answer_stage(self, stage: int, batch: StageQueryBatch) -> np.ndarray:
        return batch.eval_mean()


class GaussianNoisedAnalyst:
    """Dataset mean plus N(0, sigma^2) noise, clipped back into [-1, 1]."""

    def __init__(self, sigma: float):
        if not sigma >= 0:
            raise ValueError("sigma must be nonnegative")
        self.sigma = sigma
        self.name = f"gaussian-noised({sigma:g})"
        self._rng = None

    def begin(self, obf_dataset, rng):
        self._rng = rng

    def answer_stage(self, stage: int, batch: StageQueryBatch) -> np.ndarray:
        # scale 0 draws exact zeros, so sigma=0 matches exact-mean bitwise
        ans = batch.eval_mean() + self._rng.normal(scale=self.sigma,
                                                   size=batch.n_queries)
        return np.clip(ans, -1.0, 1.0)


class SampleSplitAnalyst:
    """Answers stage r from fold r mod folds of its dataset only."""

    def __init__(self, folds: int):
        if folds < 1:
            raise ValueError("folds must be positive")
        self.folds = folds
        self.name = f"sample-split({folds})"
        self._fold_indices = None

    def begin(self, obf_dataset, rng):
        self._fold_indices = np.array_split(np.arange(obf_dataset.n),
                                            self.folds)

    def answer_stage(self, stage: int, batch: StageQueryBatch) -> np.ndarray:
        return batch.eval_mean(self._fold_indices[stage % self.folds])


class ClampedMeanAnalyst:
    """Dataset mean with coordinates clamped to [-bound, bound]."""

    def __init__(self, bound: float = 0.5):
        if not bound > 0:
            raise ValueError("bound must be positive")
        self.bound = bound
        self.name = f"clamped-mean({bound:g})"

    def begin(self, obf_dataset, rng):
        pass

    def answer_stage(self, stage: int, batch: StageQueryBatch) -> np.ndarray:
        return np.clip(batch.eval_mean(), -self.bound, self.bound)


def builtin_analysts() -> dict:
    return {
        "exact-mean": ExactMeanAnalyst,
        "gaussian-noised": GaussianNoisedAnalyst,
        "sample-split": SampleSplitAnalyst,
        "clamped-mean": ClampedMeanAnalyst,
    }


# --------------------------------------------------------------------------
# protocol


@dataclass(frozen=True)
class ObfDataset:
    """What the analyst sees: names, types, and masked bits only."""

    names: np.ndarray
    types_i: np.ndarray
    types_j: np.ndarray
    masked_bits: np.ndarray

    @property
    def n(self) -> int:
        return len(self.names)


@dataclass
class StageRecord:
    stage: int
    query_digest: str
    answer_digest: str
    compromised_count: int
    pop_compromised_frac: float
    accuracy_ok: bool
    max_population_dev: float


@dataclass
class AdaTranscript:
    n: int
    tau: float
    alpha: float
    C: float
    W: int
    analyst: str
    stages: list
    c_hat: np.ndarray
    ref_shift: np.ndarray
    dataset_compromised: np.ndarray
    dataset_crossing_stage: np.ndarray
    dataset_crossing_pscore: np.ndarray
    inaccurate_stages: list
    name_collisions: int
    final_scale: float
    final_gap: GapResult

    def score_field(self) -> ScoreField:
        return ScoreField(c_hat=self.c_hat, ref_shift=self.ref_shift)

    def log_lines(self) -> list:
        lines = []
        for rec in self.stages:
            lines.append(
                f"stage={rec.stage} queries={rec.query_digest} "
                f"answers={rec.answer_digest} "
                f"compromised={rec.compromised_count} "
                f"pop_compromised={rec.pop_compromised_frac:.6f} "
                f"accuracy_ok={int(rec.accuracy_ok)}"
            )
        lines.append(
            f"final scale={self.final_scale:.12g} "
            f"gap={self.final_gap.value:.12g} "
            f"dataset_mean={self.final_gap.dataset_mean:.12g} "
            f"population_mean={self.final_gap.population_mean:.12g}"
        )
        return lines


def default_tau(d: int, alpha: float, C: float, m: int) -> float:
    return C * math.sqrt(d * math.log(1.0 / alpha)) / m


def _digest(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()[:16]


def run_ada_protocol(
    analyst,
    family: PointFamily,
    theta: np.ndarray,
    n: int,
    tau: Optional[float] = None,
    W: Optional[int] = None,
    seed=0,
    *,
    alpha: float = 1 / 8,
    C: float = 2.0,
    mc_accuracy: int = 2048,
    mc_gap: int = 8192,
    reconstruct_iters: int = 400,
    accuracy_significance: float = 1e-3,
    dataset_override: Optional[PointBatch] = None,
) -> AdaTranscript:
    """Run the d-stage protocol against an analyst and measure the gap.

    ``seed`` (an int or a SeedSequence) is split into independent branches:
    dataset draw, obfuscation masks, the accuracy-check population (types,
    then all d slices, drawn once per run), final gap Monte Carlo, and
    analyst noise.  ``dataset_override`` replaces the dataset draw with an
    explicit named PointBatch while keeping the other branches coupled,
    which is what the fairness replay test relies on.
    """
    if family.kind != "tensor":
        raise ValueError("the staged protocol needs a tensor family")
    m, k, d = family.m, family.k, family.d
    if n < 1:
        raise ValueError("need n >= 1")
    if W is None:
        W = n ** 3
    if W < n ** 2:
        raise ValueError("need W >= n^2 for collision-safe names")
    if not 0 < alpha < 1:
        raise ValueError("alpha must be in (0, 1)")
    if tau is None:
        tau = default_tau(d, alpha, C, m)
    if not tau > 0:
        raise ValueError(f"tau must be > 0, got {tau}")

    ss = seed if isinstance(seed, np.random.SeedSequence) \
        else np.random.SeedSequence(seed)
    ss_data, ss_obf, ss_acc, ss_gap, ss_analyst = ss.spawn(5)

    dist = tilt(family, theta)
    ref_shift = np.tanh(dist.type_tilts).reshape(m, k, d)
    # Pr[v_r = +1] per flat type id, as in tilt sampling
    p_flat = expit(2.0 * dist.type_tilts)

    if dataset_override is None:
        rng_data = np.random.default_rng(ss_data)
        points = tilt_sample_many(dist, rng_data, n)
        points.names = rng_data.integers(0, W, size=n)
    else:
        points = dataset_override
        if len(points) != n:
            raise ValueError("dataset_override must have exactly n points")
        if points.names is None:
            raise ValueError("override points must carry names")
    names = points.names
    ti, tj = np.divmod(points.types, k)
    bits = points.v
    collisions = int(n - len(np.unique(names)))

    obf_seed = int(ss_obf.generate_state(1, dtype=np.uint64)[0])
    obf = Obfuscation(seed=obf_seed, W=W)
    masked = obfuscate_many(obf, names, ti, tj, bits)
    analyst.begin(
        ObfDataset(names=names.copy(), types_i=ti.copy(), types_j=tj.copy(),
                   masked_bits=masked),
        np.random.default_rng(ss_analyst),
    )

    hmat = predicate_matrix(m).astype(float)
    basis = family.basis.astype(float)
    n_queries = 2 ** m * k
    acc_slack = math.sqrt(
        2.0 * math.log(2.0 * n_queries / accuracy_significance) / mc_accuracy
    )
    # one population per run, walked with the dataset (rows first) as one
    # stacked state; it is independent of all the analyst sees and each
    # stage's slack bounds that stage alone, so stages may share it
    rng_acc = np.random.default_rng(ss_acc)
    pop_types = rng_acc.integers(0, m * k, size=mc_accuracy)
    pop_bits = sign_bits(rng_acc.random((mc_accuracy, d)) < p_flat[pop_types])
    wi, wj = np.divmod(np.concatenate([points.types, pop_types]), k)
    wbits = np.concatenate([bits, pop_bits])
    psum = np.zeros(n + mc_accuracy)
    run_max = np.zeros(n + mc_accuracy)

    c_hat = np.zeros((m, k, d))
    field = ScoreField(c_hat, ref_shift)
    comp = np.zeros(n, dtype=bool)
    crossing_stage = np.full(n, -1, dtype=np.int64)
    crossing_pscore = np.full(n, np.nan)
    stages = []
    inaccurate = []

    for r in range(d):
        batch = StageQueryBatch(ti, tj, bits[:, r], comp, hmat, basis)
        answers = np.asarray(analyst.answer_stage(r, batch), dtype=float)
        if answers.shape != (n_queries,):
            raise ProtocolAbort(r, f"expected {n_queries} answers, "
                                   f"got shape {answers.shape}")
        if not np.all(np.isfinite(answers)) or np.abs(answers).max() > 1 + 1e-9:
            raise ProtocolAbort(r, "analyst answer outside [-1, 1]")

        # population accuracy check under the same masked-query rule
        pop_comp = run_max[n:] > tau
        pop_vals = StageQueryBatch(wi[n:], wj[n:], pop_bits[:, r], pop_comp,
                                   hmat, basis).eval_mean()
        max_dev = float(np.abs(answers - pop_vals).max())
        accuracy_ok = max_dev <= alpha + acc_slack
        if not accuracy_ok:
            inaccurate.append(r)

        # the evaluators already answered in terms of the clear queries, so
        # the analyst's values feed the slice reconstruction directly
        per_p = answers.reshape(k, 2 ** m)
        recon = reconstruct_slices_batch(per_p, alpha, m,
                                         iters=reconstruct_iters)  # (k, m)
        # recon[p, i] estimates mean coordinate (i, p) of the slice, so
        # recon[:, i] is already the coordinate vector that projects onto H
        for i in range(m):
            _, lam = project_to_H(recon[:, i], basis, 1.0 / m, mode="fast")
            c_hat[i, :, r] = lam / m

        field.advance(wi, wj, wbits[:, r], r, psum, run_max)
        crossed = run_max[:n] > tau
        newly = crossed & ~comp
        crossing_stage[newly] = r
        crossing_pscore[newly] = psum[:n][newly]

        stages.append(StageRecord(
            stage=r,
            query_digest=_digest(np.array([r], dtype=np.int64).tobytes()
                                 + np.packbits(comp).tobytes()),
            answer_digest=_digest(answers.tobytes()),
            compromised_count=int(crossed.sum()),
            pop_compromised_frac=float(pop_comp.mean()),
            accuracy_ok=accuracy_ok,
            max_population_dev=max_dev,
        ))
        comp = crossed

    fq = FinalQuery(field, m, d, alpha, C)
    gap_res = gap(fq, points, dist, mc_gap, np.random.default_rng(ss_gap))

    return AdaTranscript(
        n=n,
        tau=tau,
        alpha=alpha,
        C=C,
        W=W,
        analyst=getattr(analyst, "name", type(analyst).__name__),
        stages=stages,
        c_hat=c_hat,
        ref_shift=ref_shift,
        dataset_compromised=comp,
        dataset_crossing_stage=crossing_stage,
        dataset_crossing_pscore=crossing_pscore,
        inaccurate_stages=inaccurate,
        name_collisions=collisions,
        final_scale=fq.scale,
        final_gap=gap_res,
    )
