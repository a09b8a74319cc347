"""Structured point families and their query workloads.

A point family is a finite subset of {-1, 0, +1}^dim together with the query
rows used against it:

    hypercube       {+-1}^d, queried coordinatewise
    tensor          e_i (x) u_j (x) v for a +-1 orthogonal basis u_1..u_k and
                    v in {+-1}^d, queried by (predicate mask h, p, q) rows
    marginal        u_j (x) v, queried by (p, q) rows
    matrix-columns  the columns of a seeded random +-1 matrix, queried by row

Points are stored structurally (type indices plus v-bits, or a column index)
because the dense dimension m*k*d is mostly zeros for tensor points; dense
resolution is an explicit call.  Many points travel as one PointBatch of
arrays (flat type ids, int8 v-bits or column ids, optional names) that
densifies in one vectorised step; PointRef is the single-point view used by
enumeration, query evaluation and anchors.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import CapacityError

ENUMERATION_CAP = 2 ** 24

_KINDS = ("hypercube", "tensor", "marginal", "matrix-columns")


def hadamard_orthogonal_set(k: int) -> np.ndarray:
    """Return k pairwise-orthogonal vectors in {+-1}^k as rows.

    Sylvester construction, unscaled entries. Requires k a power of two.
    """
    if k < 1 or (k & (k - 1)) != 0:
        raise ValueError(f"k must be a positive power of two, got {k}")
    h = np.ones((1, 1), dtype=np.int64)
    while h.shape[0] < k:
        h = np.block([[h, h], [h, -h]])
    return h


def predicate_matrix(m: int) -> np.ndarray:
    """All 2^m predicates [m] -> {+-1} as rows; mask bit i set means h(i) = -1.

    Coordinate columns are orthogonal: sum_h h(i) h(j) = 2^m [i == j].
    """
    if m < 1:
        raise ValueError("m must be positive")
    if m > 20:
        raise CapacityError(f"predicate grid 2^{m} exceeds enumeration limits")
    masks = np.arange(2 ** m, dtype=np.int64)
    bits = (masks[:, None] >> np.arange(m)) & 1
    return (1 - 2 * bits).astype(np.int64)


@dataclass
class PointRef:
    """Structural reference to one family point.

    Fields are kind-specific: hypercube uses v only; tensor uses (i, j, v);
    marginal uses (j, v); matrix-columns uses col. The name field exists only
    when a protocol has name-extended the family.
    """

    v: Optional[np.ndarray] = None
    i: Optional[int] = None
    j: Optional[int] = None
    col: Optional[int] = None
    name: Optional[int] = None


@dataclass(frozen=True)
class QueryId:
    """Workload row identifier. Tensor rows are (h, p, q) with h a predicate
    mask over [m]; marginal rows are (p, q); hypercube rows are single
    coordinates q; matrix-columns rows index the matrix."""

    h: Optional[int] = None
    p: Optional[int] = None
    q: Optional[int] = None
    row: Optional[int] = None


@dataclass
class PointFamily:
    kind: str
    dim: int
    m: int = 1
    k: int = 1
    d: int = 0
    n_columns: int = 0
    seed: Optional[int] = None
    basis: Optional[np.ndarray] = field(default=None, repr=False)
    matrix: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def size(self) -> int:
        if self.kind == "hypercube":
            return 2 ** self.d
        if self.kind == "tensor":
            return self.m * self.k * 2 ** self.d
        if self.kind == "marginal":
            return self.k * 2 ** self.d
        return self.n_columns

    @property
    def n_types(self) -> int:
        if self.kind == "tensor":
            return self.m * self.k
        if self.kind == "marginal":
            return self.k
        return 1


def make_family(
    kind: str,
    *,
    d: Optional[int] = None,
    m: Optional[int] = None,
    k: Optional[int] = None,
    n_columns: Optional[int] = None,
    seed: Optional[int] = None,
) -> PointFamily:
    if kind not in _KINDS:
        raise ValueError(f"unknown family kind {kind!r}; expected one of {_KINDS}")
    if kind == "hypercube":
        if d is None or d < 1:
            raise ValueError("hypercube requires d >= 1")
        return PointFamily(kind=kind, dim=d, d=d)
    if kind == "tensor":
        if m is None or m < 1 or k is None or d is None or d < 1:
            raise ValueError("tensor requires m >= 1, k, d >= 1")
        basis = hadamard_orthogonal_set(k)
        return PointFamily(kind=kind, dim=m * k * d, m=m, k=k, d=d, basis=basis)
    if kind == "marginal":
        if k is None or d is None or d < 1:
            raise ValueError("marginal requires k and d >= 1")
        basis = hadamard_orthogonal_set(k)
        return PointFamily(kind=kind, dim=k * d, k=k, d=d, basis=basis)
    # matrix-columns
    if d is None or d < 1 or n_columns is None or n_columns < 1:
        raise ValueError("matrix-columns requires d >= 1 and n_columns >= 1")
    if seed is None:
        raise ValueError("matrix-columns requires a seed to draw the matrix")
    rng = np.random.default_rng(seed)
    matrix = (2 * rng.integers(0, 2, size=(d, n_columns)) - 1).astype(np.int64)
    return PointFamily(
        kind=kind, dim=d, d=d, n_columns=n_columns, seed=seed, matrix=matrix
    )


def support_batch(family: PointFamily) -> "PointBatch":
    """All points in canonical order (types outer, v-bits inner).

    Raises CapacityError beyond ENUMERATION_CAP points.
    """
    if family.size > ENUMERATION_CAP:
        raise CapacityError(
            f"family has {family.size} points, enumeration cap is {ENUMERATION_CAP}"
        )
    if family.kind == "matrix-columns":
        cols = np.arange(family.n_columns)
        return PointBatch(family, np.zeros_like(cols), cols=cols)
    block = 2 ** family.d
    bits = (np.arange(block)[:, None] >> np.arange(family.d)) & 1
    v = np.tile((1 - 2 * bits).astype(np.int8), (family.n_types, 1))
    return PointBatch(family, np.repeat(np.arange(family.n_types), block), v=v)


def enumerate_refs(family: PointFamily) -> list[PointRef]:
    """support_batch as single points."""
    batch = support_batch(family)
    return [batch[idx] for idx in range(len(batch))]


def resolve(family: PointFamily, ref: PointRef) -> np.ndarray:
    """Dense float vector of length family.dim for one point."""
    if family.kind == "hypercube":
        return ref.v.astype(np.float64)
    if family.kind == "tensor":
        x = np.zeros((family.m, family.k, family.d))
        x[ref.i] = np.outer(family.basis[ref.j], ref.v)
        return x.reshape(family.dim)
    if family.kind == "marginal":
        return np.outer(family.basis[ref.j], ref.v).reshape(family.dim)
    return family.matrix[:, ref.col].astype(np.float64)


def support_matrix(family: PointFamily) -> np.ndarray:
    """Dense (size, dim) matrix of every point, canonical order, cap-checked."""
    batch = support_batch(family)
    if family.kind == "matrix-columns":
        return family.matrix.T.astype(np.float64)
    return batch.densify()


def type_index(family: PointFamily, ref: PointRef) -> int:
    """Flat type id: tensor (i, j) -> i*k + j; marginal -> j; otherwise 0."""
    if family.kind == "tensor":
        return ref.i * family.k + ref.j
    if family.kind == "marginal":
        return ref.j
    return 0


@dataclass(eq=False)
class PointBatch:
    """Points of one family held as arrays.

    ``types`` are flat type ids (see type_index); product families carry
    int8 sign bits ``v`` of shape (n, d), matrix-columns carries column ids
    ``cols``.  ``names`` is set only when a protocol has name-extended the
    points.
    """

    family: PointFamily
    types: np.ndarray  # (n,) int64
    v: Optional[np.ndarray] = None  # (n, d) int8
    cols: Optional[np.ndarray] = None  # (n,)
    names: Optional[np.ndarray] = None  # (n,)

    def __len__(self) -> int:
        return len(self.types)

    def __getitem__(self, idx) -> PointRef:
        idx = operator.index(idx)
        name = None if self.names is None else int(self.names[idx])
        if self.cols is not None:
            return PointRef(col=int(self.cols[idx]), name=name)
        kind = self.family.kind
        i, j = divmod(int(self.types[idx]), self.family.k)
        return PointRef(v=self.v[idx].copy(), i=i if kind == "tensor" else None,
                        j=None if kind == "hypercube" else j, name=name)

    @classmethod
    def from_refs(cls, family: PointFamily, refs) -> "PointBatch":
        refs = list(refs)
        types = np.array([type_index(family, r) for r in refs], dtype=np.int64)
        named = refs and all(r.name is not None for r in refs)
        names = np.array([r.name for r in refs]) if named else None
        if family.kind == "matrix-columns":
            cols = np.array([r.col for r in refs], dtype=np.int64)
            return cls(family, types, cols=cols, names=names)
        v = np.stack([np.asarray(r.v, dtype=np.int8) for r in refs])
        return cls(family, types, v=v, names=names)

    def take(self, idx) -> "PointBatch":
        """The points at ``idx`` (a slice or an integer array), copied."""
        def pick(a):
            return None if a is None else a[idx].copy()

        return PointBatch(self.family, pick(self.types), pick(self.v),
                          pick(self.cols), pick(self.names))

    def concat(self, other: "PointBatch") -> "PointBatch":
        """This batch followed by ``other``; names survive only if both
        batches carry them."""
        def join(a, b):
            return None if a is None or b is None else np.concatenate([a, b])

        return PointBatch(self.family, join(self.types, other.types),
                          join(self.v, other.v), join(self.cols, other.cols),
                          join(self.names, other.names))

    def densify(self) -> np.ndarray:
        """Dense (n, dim) float64 matrix, row-for-row equal to resolve."""
        fam = self.family
        if fam.kind == "hypercube":
            return self.v.astype(np.float64)
        if fam.kind == "matrix-columns":
            return fam.matrix.T[self.cols].astype(np.float64)
        # marginal points are tensor points with m = 1
        n = len(self)
        ti, tj = np.divmod(self.types, fam.k)
        x = np.zeros((n, fam.m, fam.k, fam.d))
        x[np.arange(n), ti] = fam.basis[tj][:, :, None] * self.v[:, None, :]
        return x.reshape(n, fam.dim)


def _predicate_sign(h: int, i: int, m: int) -> int:
    if not 0 <= h < 2 ** m:
        raise ValueError(f"predicate mask {h} out of range for m={m}")
    return -1 if (h >> i) & 1 else 1


def eval_query(family: PointFamily, qid: QueryId, ref: PointRef) -> float:
    """Evaluate one workload row at one point; always +-1 valued."""
    if family.kind == "tensor":
        if qid.h is None or qid.p is None or qid.q is None:
            raise ValueError("tensor queries need (h, p, q)")
        if not (0 <= qid.p < family.k and 0 <= qid.q < family.d):
            raise ValueError(f"query ({qid.p}, {qid.q}) out of range")
        sign = _predicate_sign(qid.h, ref.i, family.m)
        return float(sign * family.basis[ref.j, qid.p] * ref.v[qid.q])
    if family.kind == "marginal":
        if qid.p is None or qid.q is None:
            raise ValueError("marginal queries need (p, q)")
        if not (0 <= qid.p < family.k and 0 <= qid.q < family.d):
            raise ValueError(f"query ({qid.p}, {qid.q}) out of range")
        return float(family.basis[ref.j, qid.p] * ref.v[qid.q])
    if family.kind == "hypercube":
        if qid.q is None:
            raise ValueError("hypercube queries need q")
        if not 0 <= qid.q < family.d:
            raise ValueError(f"coordinate {qid.q} out of range")
        return float(ref.v[qid.q])
    if qid.row is None:
        raise ValueError("matrix-columns queries need a row index")
    if not 0 <= qid.row < family.d:
        raise ValueError(f"row {qid.row} out of range")
    return float(family.matrix[qid.row, ref.col])


def query_vector(family: PointFamily, qid: QueryId) -> np.ndarray:
    """Dense workload row, so eval_query(f, qid, ref) == row . resolve(ref)."""
    if family.kind == "tensor":
        row = np.zeros((family.m, family.k, family.d))
        for i in range(family.m):
            row[i, qid.p, qid.q] = _predicate_sign(qid.h, i, family.m)
        return row.reshape(family.dim)
    if family.kind == "marginal":
        row = np.zeros((family.k, family.d))
        row[qid.p, qid.q] = 1.0
        return row.reshape(family.dim)
    if family.kind == "hypercube":
        row = np.zeros(family.d)
        row[qid.q] = 1.0
        return row
    return family.matrix[qid.row].astype(np.float64)


def family_manifest(family: PointFamily) -> str:
    """Self-describing text manifest; matrices reconstruct from the seed."""
    payload = {
        "kind": family.kind,
        "m": family.m,
        "k": family.k,
        "d": family.d,
        "n_columns": family.n_columns,
        "seed": family.seed,
    }
    return json.dumps(payload, sort_keys=True)


def family_from_manifest(text: str) -> PointFamily:
    payload = json.loads(text)
    kind = payload["kind"]
    if kind == "hypercube":
        return make_family(kind, d=payload["d"])
    if kind == "tensor":
        return make_family(kind, m=payload["m"], k=payload["k"], d=payload["d"])
    if kind == "marginal":
        return make_family(kind, k=payload["k"], d=payload["d"])
    return make_family(
        kind, d=payload["d"], n_columns=payload["n_columns"], seed=payload["seed"]
    )
