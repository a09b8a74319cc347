"""Point-family construction, enumeration, and the dense point layout.

Oracles:
    - Hadamard rows: brute-force pairwise dot products equal k * identity.
    - A test-local structural query evaluation (predicate sign times basis
      entry times v-bit) against a materialized dense query row dotted with
      the densified point, across every (query, point) pair at m=2, k=2, d=2.
    - matrix-columns densified entries against direct matrix indexing.
    - Flat type ids against the type read back from each dense point.
"""

import numpy as np
import pytest

from tiltlab.errors import CapacityError
from tiltlab.families import (
    ENUMERATION_CAP,
    hadamard_orthogonal_set,
    make_family,
    predicate_matrix,
    support_batch,
    support_matrix,
)


def type_index(fam, x):
    """Flat type id i*k + j of a dense tensor point x = e_i (x) u_j (x) v,
    read off the point itself: i is its nonzero block, and since every
    Sylvester row starts with +1, u_j is that block's first column divided
    by its first entry."""
    blocks = x.reshape(fam.m, fam.k, fam.d)
    i = int(np.flatnonzero(np.abs(blocks).sum(axis=(1, 2)))[0])
    col = blocks[i][:, 0] * blocks[i][0, 0]
    j = int(np.flatnonzero((fam.basis == col).all(axis=1))[0])
    return i * fam.k + j


def eval_query(fam, h, p, q, ti, tj, v):
    """Workload row (predicate mask h, basis row p, slice q) at the tensor
    point of type (ti, tj) with bits v; always +-1 valued."""
    sign = -1 if (h >> ti) & 1 else 1
    return float(sign * fam.basis[tj, p] * v[q])


def query_vector(fam, h, p, q):
    """Dense workload row, so eval_query(...) == row . densified point."""
    row = np.zeros((fam.m, fam.k, fam.d))
    for i in range(fam.m):
        row[i, p, q] = -1 if (h >> i) & 1 else 1
    return row.reshape(fam.dim)


class TestHadamard:
    @pytest.mark.parametrize("k", [1, 2, 4, 8, 16, 64])
    def test_rows_orthogonal(self, k):
        u = hadamard_orthogonal_set(k)
        assert u.shape == (k, k)
        assert set(np.unique(u)) <= {-1, 1}
        gram = u @ u.T
        assert np.array_equal(gram, k * np.eye(k, dtype=int))

    @pytest.mark.parametrize("k", [0, 3, 6, -4])
    def test_rejects_non_power_of_two(self, k):
        with pytest.raises(ValueError):
            hadamard_orthogonal_set(k)

    def test_first_row_constant(self):
        u = hadamard_orthogonal_set(8)
        assert np.array_equal(u[0], np.ones(8, dtype=int))


class TestPredicateMatrix:
    def test_columns_orthogonal(self):
        # The full +-1 predicate grid over [m] has orthogonal coordinate
        # columns: sum_h h(i) h(j) = 2^m * [i == j].
        h = predicate_matrix(4)
        assert h.shape == (16, 4)
        assert np.array_equal(h.T @ h, 16 * np.eye(4, dtype=int))

    def test_mask_zero_is_constant_plus_one(self):
        h = predicate_matrix(3)
        assert np.array_equal(h[0], np.ones(3, dtype=int))


class TestMakeFamily:
    def test_hypercube_shape(self):
        fam = make_family("hypercube", d=5)
        assert fam.dim == 5
        assert fam.size == 32

    def test_tensor_shape(self):
        fam = make_family("tensor", m=3, k=4, d=2)
        assert fam.dim == 3 * 4 * 2
        assert fam.size == 3 * 4 * 2 ** 2

    def test_matrix_columns_shape(self):
        fam = make_family("matrix-columns", d=16, n_columns=40, seed=7)
        assert fam.dim == 16
        assert fam.size == 40
        assert fam.matrix.shape == (16, 40)
        assert set(np.unique(fam.matrix)) == {-1, 1}

    def test_matrix_columns_seed_reproducible(self):
        a = make_family("matrix-columns", d=8, n_columns=12, seed=3).matrix
        b = make_family("matrix-columns", d=8, n_columns=12, seed=3).matrix
        c = make_family("matrix-columns", d=8, n_columns=12, seed=4).matrix
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            make_family("tensor", m=2, k=3, d=2)  # k not a power of two
        with pytest.raises(ValueError):
            make_family("hypercube", d=0)
        with pytest.raises(ValueError):
            make_family("matrix-columns", d=4, n_columns=5)  # seed required
        with pytest.raises(ValueError):
            make_family("simplex", d=4)


class TestEnumeration:
    def test_hypercube_points_are_sign_vectors(self):
        fam = make_family("hypercube", d=3)
        mat = support_matrix(fam)
        assert mat.shape == (8, 3)
        assert set(np.unique(mat)) == {-1.0, 1.0}
        # all points distinct
        assert len({tuple(row) for row in mat}) == 8

    def test_tensor_block_structure(self):
        fam = make_family("tensor", m=2, k=2, d=2)
        u = fam.basis
        batch = support_batch(fam)
        dense = batch.densify().reshape(-1, 2, 2, 2)
        ti, tj = np.divmod(batch.types, fam.k)
        for x, i, j, v in zip(dense, ti, tj, batch.v):
            np.testing.assert_array_equal(x[i], np.outer(u[j], v))
            other = 1 - i
            assert np.all(x[other] == 0)

    def test_typed_coordinate_sums_vanish(self):
        # Within a fixed type the v-bits run over the full cube, so every
        # coordinate sums to zero across the type's points.
        fam = make_family("tensor", m=2, k=2, d=3)
        mat = support_matrix(fam)
        types = np.array([type_index(fam, x) for x in mat])
        for t in range(4):
            np.testing.assert_array_equal(
                mat[types == t].sum(axis=0), np.zeros(fam.dim)
            )

    def test_enumeration_cap(self):
        fam = make_family("hypercube", d=25)
        assert fam.size > ENUMERATION_CAP
        with pytest.raises(CapacityError):
            support_matrix(fam)

    def test_types_contiguous(self):
        fam = make_family("tensor", m=2, k=2, d=1)
        batch = support_batch(fam)
        types = [type_index(fam, x) for x in batch.densify()]
        assert types == sorted(types)
        assert types == batch.types.tolist()


class TestEvalQuery:
    def test_tensor_matches_dense_row_oracle(self):
        fam = make_family("tensor", m=2, k=2, d=2)
        batch = support_batch(fam)
        dense = batch.densify()
        ti, tj = np.divmod(batch.types, fam.k)
        for h in range(2 ** fam.m):
            for p in range(fam.k):
                for q in range(fam.d):
                    row = query_vector(fam, h, p, q)
                    for idx in range(len(batch)):
                        want = float(row @ dense[idx])
                        got = eval_query(fam, h, p, q, ti[idx], tj[idx],
                                         batch.v[idx])
                        assert got == pytest.approx(want)
                        assert abs(got) == 1.0

    def test_matrix_columns_matches_entry(self):
        fam = make_family("matrix-columns", d=6, n_columns=9, seed=11)
        dense = support_batch(fam).densify()
        for row in range(6):
            for col in range(9):
                assert dense[col, row] == fam.matrix[row, col]
