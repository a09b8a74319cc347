"""Exponential tilts of point families and the score/divergence toolkit.

A tilt D_theta reweights a family by Pr[x] proportional to exp(<theta, x>).
On the tensor family (the hypercube is its m = k = 1 case) the tilt is
type-conditioned: the type (i, j) is uniform and only the v-bits are
tilted.  Within a type the v-bits are independent with
Pr[v_c = +1] = e^{t_c} / (e^{t_c} + e^{-t_c}) where t is the type's tilt
block, so exact means are tanh(t) laws and never require enumeration.  A
tensor tilt keeps flat (n_types, d) rows, type (i, j) at row i * k + j, and
no log-partition: log_weights, its one reader, sums the log 2cosh terms
itself, so building a tilt at a large radius has no such sum to overflow.
Matrix-columns tilts are one softmax over the columns, tilt_weights, which
the structure checks batch over many thetas; tilt() keeps one row of it,
the column probabilities and the mean.  typed_means is the one table of
per-type means E[x | type], and tilt_mean averages its rows.

Sampling draws all types (or columns) first and then the v-bits, row block
by row block: tilt_map_blocks maps a function over the blocks, and
tilt_sample_many is its one-block case.  A v-bit is one 16-bit chunk of a
64-bit generator word, four bits per word, compared against the top 16 bits
of T = ceil(Pr[v = +1] * 2^53); a chunk that ties them (probability 2^-16)
compares 37 more bits, from Philox keyed by one word of the stream at a
counter of the bit's index, against the rest of T.  So Pr[v = +1] is
exactly T / 2^53, the law of a float64 uniform below Pr[v = +1].  A large
draw is split into lanes at PCG64 jump-ahead points and runs on every CPU
with the same bits, SAMPLE_GROUP blocks per numpy call (each hands the GIL
over): on 2 CPUs, 1.36-1.40x as fast as one lane, against 1.07-1.12x singly.

The score <x - mu_ref, q> measures the correlation between a point and a
mechanism answer; under a fresh draw its mean is exactly zero. The divergence
identity ties the sum of in-sample scores to the divergence of the mechanism's
expectation g(theta) = E[A(x^1..x^n)], and divergence_check verifies it
numerically with central finite differences against exact enumeration.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import CapacityError
from .families import ENUMERATION_CAP, PointBatch, PointFamily, support_batch

DATASET_PRODUCT_CAP = 10 ** 6
DIVERGENCE_STEP = 1e-4  # divergence_check's central-difference step


@dataclass
class TiltedDistribution:
    family: PointFamily
    theta: np.ndarray
    # per-type coordinate tilts: (n_types, d) for tensor families, else None
    type_tilts: Optional[np.ndarray] = None
    # the sampler's Pr[v = +1] thresholds per type and coordinate, split by
    # chunk_thresholds (tensor families) or None
    chunk_hi: Optional[np.ndarray] = None
    chunk_lo: Optional[np.ndarray] = None
    # matrix-columns: one row of tilt_weights, the column probabilities and
    # the tilt mean
    column_p: Optional[np.ndarray] = None
    column_mean: Optional[np.ndarray] = None


def plus_prob(t: np.ndarray) -> np.ndarray:
    """Pr[v = +1] = e^t / (e^t + e^-t) for tilts t (0 where exp overflows)."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-2.0 * t))


def tilt(family: PointFamily, theta) -> TiltedDistribution:
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (family.dim,):
        raise ValueError(f"theta must have shape ({family.dim},)")

    if family.kind == "matrix-columns":
        (p,), (mu,) = tilt_weights(family.matrix, theta[None])
        return TiltedDistribution(family, theta, column_p=p, column_mean=mu)

    # theta viewed as (m, k, d); the (i, j) type tilts the v-bits with
    # t_c = sum_b u_j[b] * theta[i, b, c], one GEMM per i; the +-1 products
    # are exact, so the bits rest only on summing b in order, which it does
    th = theta.reshape(family.m, family.k, family.d)
    tilts = np.matmul(family.basis, th).reshape(-1, family.d)
    hi, lo = chunk_thresholds(plus_prob(tilts))
    return TiltedDistribution(family, theta, type_tilts=tilts,
                              chunk_hi=hi, chunk_lo=lo)


def tilt_weights(a: np.ndarray, thetas: np.ndarray) -> tuple:
    """Tilt weights over the columns of ``a`` and tilt means, one row each per
    row of ``thetas``: two GEMMs per block; one theta is a 1-row block."""
    a = np.asarray(a, dtype=float)
    p = thetas @ a  # (trials, N) inner products with columns
    p -= p.max(axis=1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=1, keepdims=True)
    return p, p @ a.T


SAMPLE_BLOCK = 1024  # rows per tilt_map_blocks batch of streamed draws
SAMPLE_GROUP = 4  # blocks a lane draws at once, if a draw has 2+ lanes
# a lane is worth a thread only with at least this many v-bits to draw
# (a quarter as many 64-bit words)
LANE_DRAWS = 2 ** 20
CHUNK_BITS = 16  # v-bits are 16-bit chunks of 64-bit words, four per word
TIE_BITS = 53 - CHUNK_BITS  # keyed bits that decide a chunk tie


def tilt_sample_many(dist: TiltedDistribution, rng: np.random.Generator,
                     count: int) -> PointBatch:
    """Draw count points as one batch (tilt_map_blocks in one block)."""
    return tilt_map_blocks(dist, rng, count, max(count, 1), lambda b: b)[0]


def _cpus_available() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _blas_threads() -> int:
    """Threads OpenBLAS starts with: the first positive of the variables it
    reads at load, else one per CPU."""
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            threads = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if threads > 0:
            return threads
    return _cpus_available()


# read once, as OpenBLAS did when numpy loaded it: a later change to these
# variables does not reach BLAS
_BLAS_THREADS = _blas_threads()


# get and set of the thread count, in the OpenBLAS builds numpy ships or
# links: scipy-openblas (numpy's wheels), and plain OpenBLAS with or without
# 64-bit integers
_OPENBLAS_CALLS = ("scipy_openblas_{}_num_threads64_",
                   "openblas_{}_num_threads64_", "openblas_{}_num_threads")
_BLAS_CONTROL = []  # the result of the first _blas_control call


def _blas_control():
    """(get, set) of the thread count of the OpenBLAS this process loaded,
    or None when none is found (another BLAS, or no /proc/self/maps to
    find it in).  Found through ctypes on the first call, then kept."""
    if _BLAS_CONTROL:
        return _BLAS_CONTROL[0]
    import ctypes  # threaded runs only

    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split(None, 5)[-1].strip() for line in fh
                            if "openblas" in line})
    except OSError:
        paths = []
    found = None
    for path, name in [(p, n) for p in paths for n in _OPENBLAS_CALLS]:
        try:  # only a library already loaded, never a new one
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
            get, put = (getattr(lib, name.format(op)) for op in ("get", "set"))
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = (), ctypes.c_int
        put.argtypes, put.restype = (ctypes.c_int,), None
        found = (get, put)
        break
    _BLAS_CONTROL.append(found)
    return found


def thread_budget() -> int:
    """Python threads a run of BLAS-calling ranges may use: one per CPU when
    _blas_control finds BLAS, as in_ranges then holds it at one thread, else
    one per CPU that the environment's BLAS thread count leaves free, since
    Python threads on top of BLAS threads run slower than one thread."""
    return _cpus_available() // (1 if _blas_control() else _BLAS_THREADS)


def in_ranges(n: int, parts: int, fn: Callable) -> list:
    """[fn(first, last) for the parts contiguous ranges that split
    range(n)], run at once: the first range in the calling thread, the
    others in helper threads.  A range's exception reaches the caller once
    every range has stopped.

    While two or more ranges run, an OpenBLAS found by _blas_control that
    reports more than one thread is held at one, so the ranges' BLAS calls
    do not compete for CPUs, and its count is restored when they stop.
    The count is per process: a BLAS call that another thread makes
    meanwhile runs on one thread too."""
    if parts == 1:
        return [fn(0, n)]
    from concurrent.futures import ThreadPoolExecutor  # threaded runs only

    blas = _blas_control()
    blas_threads = blas[0]() if blas else 1
    if blas_threads > 1:
        blas[1](1)
    try:
        firsts = [n * part // parts for part in range(parts + 1)]
        with ThreadPoolExecutor(parts - 1) as pool:
            helpers = [pool.submit(fn, first, last)
                       for first, last in zip(firsts[1:-1], firsts[2:])]
            return [fn(0, firsts[1])] + [h.result() for h in helpers]
    finally:
        if blas_threads > 1:
            blas[1](blas_threads)


def tilt_map_blocks(dist: TiltedDistribution, rng: np.random.Generator,
                    count: int, block: int, fn: Callable) -> list:
    """fn of each batch of at most block rows of count points, in block order.

    All types (or columns) are drawn first on rng, then one tie key word,
    then the v-bits, ceil(d / 4) words per row by random_raw (see
    chunk_signs), so every block size gives the same rows and rng state;
    count = 0 is one empty batch.  Contiguous runs of blocks go to lanes
    that run at once (in_ranges), one per CPU while each has LANE_DRAWS
    v-bits to draw: lane 0 on rng in the calling thread, lane l > 0 on a
    copy of rng's PCG64 advanced past the words of the rows before it; each
    of two or more lanes draws SAMPLE_GROUP blocks at a time.  The rows,
    fn's inputs and rng's end state are those of one lane, whatever the
    lane and group counts; a lane's exception reaches the caller once every
    lane has stopped."""
    fam = dist.family
    types = np.zeros(count, dtype=np.int64)
    if fam.kind == "matrix-columns":
        cols = rng.choice(fam.n_columns, size=count, p=dist.column_p)
        words = 0  # words per row after the columns
    else:
        hi, lo = dist.chunk_hi, dist.chunk_lo
        if len(hi) > 1:
            # tilt makes every tensor type equally likely
            types = rng.integers(0, len(hi), size=count)
        key = int(rng.bit_generator.random_raw())
        words = -(-fam.d // 4)

    n_blocks = max(-(-count // block), 1)
    lanes = 1
    if type(rng.bit_generator) is np.random.PCG64:
        # Philox advances in 4-word blocks; MT19937 and SFC64 cannot advance
        lanes = max(1, min(_cpus_available(), n_blocks,
                           count * fam.d // LANE_DRAWS))
    group = SAMPLE_GROUP if lanes > 1 else 1  # one lane page-faults less
    gens = {0: rng.bit_generator}  # by each lane's first block
    for lane in range(1, lanes):
        first = n_blocks * lane // lanes
        gens[first] = np.random.PCG64()
        gens[first].state = rng.bit_generator.state
        gens[first].advance(first * block * words)

    def run(first, last):  # blocks [first, last) on the lane's generator
        out = []
        if fam.kind != "matrix-columns":
            raw = gens[first].random_raw
            philox = np.random.Philox(key=key)
        for g in range(first, last, group):
            rows = slice(g * block, min(g + group, last) * block)
            t = types[rows]
            if fam.kind == "matrix-columns":
                field, drawn = "cols", cols[rows]
            else:  # fixed little-endian chunk order, whatever the host's
                chunks = raw(len(t) * words).astype("<u8", copy=False) \
                    .view("<u2").reshape(len(t), 4 * words)[:, :fam.d]
                field, drawn = "v", chunk_signs(
                    chunks, hi[t] if len(hi) > 1 else hi, lo, t,
                    rows.start * fam.d, philox)
                if group > 1:  # fn may reuse the words; one lane holds them,
                    del chunks  # as freeing them page-faulted its fn calls
            for s in range(0, rows.stop - rows.start, block):
                out.append(fn(PointBatch(fam, t[s:s + block],
                                         **{field: drawn[s:s + block]})))
        return out

    out = [batch for lane in in_ranges(n_blocks, lanes, run)
           for batch in lane]
    if lanes > 1:
        # rng ends where the last lane did; the type draw may leave half a
        # word buffered, which random_raw never touches
        end = rng.bit_generator.state
        end["state"] = gens[max(gens)].state["state"]
        rng.bit_generator.state = end
    return out


def chunk_thresholds(p_plus: np.ndarray) -> tuple:
    """(hi, lo) with T = hi * 2^37 + lo = ceil(p_plus * 2^53), exact since
    p_plus * 2^53 is: hi the uint16 top of T, lo the uint64 rest.  T = 2^53
    (p_plus = 1) has no 16-bit top, so it is split as hi = 2^16 - 1 and
    lo = 2^37, which every tie's 37 bits fall below; p_plus = 0 gives
    hi = lo = 0, which no chunk falls below and no tie's bits do."""
    t = np.ceil(p_plus * 2.0 ** 53).astype(np.uint64)
    hi = np.minimum(t >> np.uint64(TIE_BITS), np.uint64(2 ** CHUNK_BITS - 1))
    return hi.astype(np.uint16), t - (hi << np.uint64(TIE_BITS))


def chunk_signs(chunks: np.ndarray, hi: np.ndarray, lo: np.ndarray,
                types: np.ndarray, first: int,
                philox: np.random.Philox) -> np.ndarray:
    """int8 v-bits of one (rows, d) block of 16-bit chunks: +1 below hi,
    -1 above it.  A chunk equal to hi ties; the tie at flat index i, bit
    first + i of the draw, takes the top 37 bits U of philox's first word at
    counter first + i (a fresh Philox(key, counter=first + i)) and gives +1
    iff U < lo[types[i // d], i % d].  So v = +1 iff chunk * 2^37 + U < T,
    and a tie's bits depend on its index alone, not on lane or block."""
    plus = np.equal(chunks, hi)  # the ties, then chunks < hi in their bytes
    tied = np.flatnonzero(plus)
    np.less(chunks, hi, out=plus)
    if len(tied):
        d = chunks.shape[1]
        state = philox.state
        keyed = np.empty(len(tied), dtype=np.uint64)
        for i, at in enumerate(tied):
            state["state"]["counter"][0] = first + at
            state["buffer_pos"] = 4  # the next word comes from the counter
            philox.state = state
            keyed[i] = philox.random_raw() >> (64 - TIE_BITS)
        plus.flat[tied] = keyed < lo[types[tied // d], tied % d]
    return sign_bits(plus)


def sign_bits(plus: np.ndarray) -> np.ndarray:
    """int8 +1 where ``plus`` is True, else -1: 2*b - 1 on the bool bytes,
    which numpy runs far faster than np.where with int8 scalars."""
    v = plus.view(np.int8)
    v *= 2
    v -= 1
    return v


def typed_means(dist: TiltedDistribution) -> np.ndarray:
    """(n_types, dim) table of the exact means E[x | type], in closed form:
    the tilt mean for matrix-columns, the type's point with its v-bits
    replaced by their tanh means for tensor families (products by +-1 and 0
    only, so exact)."""
    fam = dist.family
    if fam.kind == "matrix-columns":
        return dist.column_mean[None]
    return PointBatch(fam, np.arange(fam.n_types),
                      v=np.tanh(dist.type_tilts)).densify()


def tilt_mean(dist: TiltedDistribution) -> np.ndarray:
    """Exact mean of D_theta: the average of the typed means, as every
    tensor type is equally likely."""
    return typed_means(dist).mean(axis=0)


def log_weights(dist: TiltedDistribution) -> np.ndarray:
    """Log-probability of every point in canonical enumeration order."""
    fam = dist.family
    if fam.size > ENUMERATION_CAP:
        raise CapacityError("log_weights requires an enumerable family")
    if fam.kind == "matrix-columns":
        with np.errstate(divide="ignore"):  # a column of mass 0 has log -inf
            return np.log(dist.column_p)
    block = 2 ** fam.d
    signs = support_batch(fam).v[:block].astype(np.float64)  # type-0 bits
    type_logp = -np.log(fam.n_types)  # every tensor type is equally likely
    tilts = dist.type_tilts
    logz = np.logaddexp(tilts, -tilts).sum(axis=1)  # log 2cosh(t) per bit
    out = np.empty(fam.size)
    for t in range(fam.n_types):
        scores = signs @ tilts[t]
        out[t * block : (t + 1) * block] = type_logp - logz[t] + scores
    return out


@dataclass
class DivergenceReport:
    lhs: float
    rhs: float
    abs_err: float
    n_datasets: int
    dim: int


def divergence_check(
    family: PointFamily,
    theta,
    mechanism: Callable,
    n: int,
) -> DivergenceReport:
    """Verify div g(theta) = E[sum_j <x^j - mu_j, A(x)>] by exact enumeration.

    g(theta) = E_{x ~ D_theta^n}[A(x)]; the left side sums central finite
    differences of g_i in theta_i at step DIVERGENCE_STEP, the right side is
    the exact expectation of the summed scores, centred on typed_means. The
    mechanism maps an (n, dim) points array to its (dim,) answer and must be
    deterministic (pass an exactly averaged version of a randomized
    mechanism).
    """
    theta = np.asarray(theta, dtype=np.float64)
    if n < 1:
        raise ValueError("n must be positive")
    size = family.size
    if size ** n > DATASET_PRODUCT_CAP:
        raise CapacityError(
            f"|K|^n = {size ** n} exceeds the {DATASET_PRODUCT_CAP} dataset cap"
        )
    support = support_batch(family)
    mat = support.densify()
    dist0 = tilt(family, theta)

    tuples = np.indices((size,) * n).reshape(n, -1).T  # (size^n, n)
    outputs = np.empty((len(tuples), family.dim))
    for t, row in enumerate(tuples):
        outputs[t] = mechanism(mat[row])

    def dataset_weights(dist):
        lw = log_weights(dist)
        return np.exp(lw[tuples].sum(axis=1))

    lhs = 0.0
    for i in range(family.dim):
        bump = np.zeros(family.dim)
        bump[i] = DIVERGENCE_STEP
        w_hi = dataset_weights(tilt(family, theta + bump))
        w_lo = dataset_weights(tilt(family, theta - bump))
        lhs += float((w_hi - w_lo) @ outputs[:, i]) / (2.0 * DIVERGENCE_STEP)

    centered = mat - typed_means(dist0)[support.types]
    summed = centered[tuples].sum(axis=1)  # (size^n, dim)
    w0 = dataset_weights(dist0)
    rhs = float(np.einsum("t,td,td->", w0, summed, outputs))

    return DivergenceReport(
        lhs=lhs, rhs=rhs, abs_err=abs(lhs - rhs), n_datasets=len(tuples), dim=family.dim
    )
