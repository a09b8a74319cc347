"""Structured point families and their query workloads.

A point family is a finite subset of {-1, 0, +1}^dim together with the query
rows used against it:

    tensor          e_i (x) u_j (x) v for a +-1 orthogonal basis u_1..u_k and
                    v in {+-1}^d, queried by (predicate mask h, p, q) rows;
                    make_family("hypercube", d=d) is the m = k = 1 case
    matrix-columns  the columns of a seeded random +-1 matrix, queried by row

Points are stored structurally (type indices plus v-bits, or a column index)
because the dense dimension m*k*d is mostly zeros for tensor points; dense
resolution is an explicit call.  Points travel as a PointBatch of arrays
(flat type ids, int8 v-bits or column ids, optional names) that densifies in
one vectorised step.  The +-1 tables (basis, predicate rows, matrix-columns
matrix) are float64 from construction: their products are exact, uncast.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import CapacityError

ENUMERATION_CAP = 2 ** 24

# tensor families known by their own name, as kind -> (m, k)
_TENSOR_ALIASES = {"hypercube": (1, 1)}
_KINDS = ("tensor", "matrix-columns", *_TENSOR_ALIASES)


@functools.lru_cache(maxsize=None)
def hadamard_orthogonal_set(k: int) -> np.ndarray:
    """Return k pairwise-orthogonal vectors in {+-1}^k as float64 rows.

    Sylvester construction; one cached read-only table per power of two k.
    """
    if k < 1 or (k & (k - 1)) != 0:
        raise ValueError(f"k must be a positive power of two, got {k}")
    h = np.ones((1, 1))
    while h.shape[0] < k:
        h = np.block([[h, h], [h, -h]])
    h.flags.writeable = False
    return h


@functools.lru_cache(maxsize=None)
def predicate_matrix(m: int) -> np.ndarray:
    """All 2^m predicates [m] -> {+-1} as float64 rows; mask bit i set means
    h(i) = -1.  One cached read-only table per m.

    Coordinate columns are orthogonal: sum_h h(i) h(j) = 2^m [i == j].
    """
    if m < 1:
        raise ValueError("m must be positive")
    if m > 20:
        raise CapacityError(f"predicate grid 2^{m} exceeds enumeration limits")
    masks = np.arange(2 ** m, dtype=np.int64)
    bits = (masks[:, None] >> np.arange(m)) & 1
    h = 1.0 - 2.0 * bits
    h.flags.writeable = False
    return h


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
        if self.kind == "matrix-columns":
            return self.n_columns
        return self.n_types * 2 ** self.d

    @property
    def n_types(self) -> int:
        return self.m * self.k


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
    if kind in _TENSOR_ALIASES:
        m, k = _TENSOR_ALIASES[kind]
    if kind != "matrix-columns":
        if m is None or m < 1 or k is None or d is None or d < 1:
            raise ValueError(f"{kind} requires m >= 1, k, d >= 1")
        return PointFamily(kind="tensor", dim=m * k * d, m=m, k=k, d=d,
                           basis=hadamard_orthogonal_set(k))
    # matrix-columns
    if d is None or d < 1 or n_columns is None or n_columns < 1:
        raise ValueError("matrix-columns requires d >= 1 and n_columns >= 1")
    if seed is None:
        raise ValueError("matrix-columns requires a seed to draw the matrix")
    rng = np.random.default_rng(seed)
    matrix = 2.0 * rng.integers(0, 2, size=(d, n_columns)) - 1.0
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


@dataclass(eq=False)
class PointBatch:
    """Points of one family held as arrays.

    ``types`` are flat type ids (tensor type (i, j) is i*k + j;
    matrix-columns has the one type 0); tensor points carry int8 sign bits
    ``v`` of shape (n, d), matrix-columns carries column ids ``cols``.
    ``names`` is set only when a protocol has name-extended the points.
    """

    family: PointFamily
    types: np.ndarray  # (n,) int64
    v: Optional[np.ndarray] = None  # (n, d) int8
    cols: Optional[np.ndarray] = None  # (n,)
    names: Optional[np.ndarray] = None  # (n,)

    def __len__(self) -> int:
        return len(self.types)

    def densify(self) -> np.ndarray:
        """Dense (n, dim) float64 matrix, one row per point."""
        fam = self.family
        if fam.kind == "matrix-columns":
            return fam.matrix.T[self.cols]
        if fam.n_types == 1:
            # basis [[1]]: a point is its v-bits; a cast beats the scatter
            return self.v.astype(np.float64)
        n = len(self)
        ti, tj = np.divmod(self.types, fam.k)
        x = np.zeros((n, fam.m, fam.k, fam.d))
        x[np.arange(n), ti] = fam.basis[tj][:, :, None] * self.v[:, None, :]
        return x.reshape(n, fam.dim)
