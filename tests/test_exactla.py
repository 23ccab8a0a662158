"""Exact linear algebra primitives against hand-checked and brute-force values."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from rankloss.errors import ShapeError
from rankloss.exactla import (
    ExactMatrix,
    IndexSet,
    format_rational,
    intersect_dim,
    nullspace_basis,
    parse_rational,
    rank,
    row_support,
    sparse_dim,
)

from conftest import sparse_intersection_basis

B1 = ExactMatrix.from_rows([[1, 1], [1, 2], [1, 3], [0, 0]])


def test_parse_rational_literals():
    assert parse_rational("3") == 3
    assert parse_rational("-7/2") == Fraction(-7, 2)
    assert parse_rational(5) == 5
    assert format_rational(Fraction(-7, 2)) == "-7/2"
    assert format_rational(Fraction(4, 2)) == "2"
    with pytest.raises(ValueError):
        parse_rational("1/0")
    with pytest.raises(ValueError):
        parse_rational("abc")
    for literal in ("1e5", "1.5", "1_000"):
        with pytest.raises(ValueError):
            parse_rational(literal)


def test_rank_identity():
    assert rank(ExactMatrix.identity(2)) == 2


def test_rank_hand_reduced():
    assert rank(B1) == 2


def test_rank_repeated_column():
    m = ExactMatrix.from_columns([[1, 2], [1, 2], [3, 5]])
    assert rank(m) < m.n_cols


def test_rank_transpose_and_bounds():
    rng = random.Random(41)
    for _ in range(50):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        mat = ExactMatrix.from_rows([[rng.randint(-3, 3) for _ in range(m)] for _ in range(n)])
        r = rank(mat)
        assert r == rank(mat.transpose())
        assert r <= min(n, m)


def test_rank_with_fractions():
    dependent = ExactMatrix.from_rows([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(1, 1)]])
    assert rank(dependent) == 1  # second row is three times the first
    independent = ExactMatrix.from_rows([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(1, 7)]])
    assert rank(independent) == 2


def test_nullspace_identity_empty():
    basis = nullspace_basis(ExactMatrix.identity(3))
    assert basis.n_cols == 0
    assert basis.n_rows == 3


def test_nullspace_one_dim():
    m = ExactMatrix.from_rows([[1, -1]])
    basis = nullspace_basis(m)
    assert basis.n_cols == 1
    v = basis.column(0)
    assert v[0] == v[1] != 0


def test_nullspace_from_fixture_rows():
    m = ExactMatrix.from_rows([[1, 3], [0, 0]])
    basis = nullspace_basis(m)
    assert basis.n_cols == 1
    v = basis.column(0)
    # proportional to (3, -1)
    assert v[0] * (-1) == v[1] * 3


def test_nullspace_dimension_count():
    rng = random.Random(7)
    for _ in range(30):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        mat = ExactMatrix.from_rows([[rng.randint(-2, 2) for _ in range(m)] for _ in range(n)])
        basis = nullspace_basis(mat)
        assert basis.n_cols == m - rank(mat)
        if basis.n_cols:
            assert mat.matmul(basis).is_zero()


def test_submatrix_full_and_empty():
    full = B1.submatrix(IndexSet.full(4), IndexSet.full(2))
    assert full == B1
    zero_row = B1.submatrix(IndexSet.of(4, [4]), IndexSet.full(2))
    assert zero_row.rows == ((Fraction(0), Fraction(0)),)
    empty = B1.submatrix(IndexSet.empty(4), IndexSet.full(2))
    assert empty.n_rows == 0 and empty.n_cols == 2
    assert rank(empty) == 0


def test_submatrix_out_of_range():
    with pytest.raises(ShapeError):
        IndexSet.of(4, [5])
    with pytest.raises(ShapeError):
        B1.take_rows(IndexSet.of(3, [1]))


def test_sparse_dim_fixture():
    assert sparse_dim(B1, IndexSet.of(4, [1, 2, 3])) == 2
    assert sparse_dim(B1, IndexSet.of(4, [1, 2])) == 1
    assert sparse_dim(B1, IndexSet.full(4)) == rank(B1)
    assert sparse_dim(B1, IndexSet.empty(4)) == 0


def test_sparse_dim_two_routes_agree():
    # rank-difference route vs the nullspace-composition route, 1000 random draws
    rng = random.Random(99)
    for _ in range(1000):
        n, m = rng.randint(1, 6), rng.randint(1, 4)
        mat = ExactMatrix.from_rows([[rng.randint(-2, 2) for _ in range(m)] for _ in range(n)])
        j = IndexSet.of(n, [v for v in range(1, n + 1) if rng.random() < 0.5])
        assert sparse_dim(mat, j) == rank(sparse_intersection_basis(mat, j))


def test_sparse_dim_monotone_and_drop_bound():
    rng = random.Random(5)
    for _ in range(200):
        n, m = rng.randint(2, 6), rng.randint(1, 3)
        mat = ExactMatrix.from_rows([[rng.randint(-2, 2) for _ in range(m)] for _ in range(n)])
        big = [v for v in range(1, n + 1) if rng.random() < 0.7]
        small = [v for v in big if rng.random() < 0.6]
        d_small = sparse_dim(mat, IndexSet.of(n, small))
        d_big = sparse_dim(mat, IndexSet.of(n, big))
        assert d_small <= d_big
        assert d_small >= d_big - (len(big) - len(small))


def test_intersect_dim_cases():
    a = ExactMatrix.from_columns([[1, 0], [0, 0]])
    assert intersect_dim(a, a) == rank(a)
    e1 = ExactMatrix.from_columns([[1, 0]])
    e2 = ExactMatrix.from_columns([[0, 1]])
    assert intersect_dim(e1, e2) == 0
    span123 = ExactMatrix.from_columns([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
    assert intersect_dim(span123, B1) == 2
    assert intersect_dim(span123, B1) == sparse_dim(B1, IndexSet.of(4, [1, 2, 3]))


def test_intersect_dim_shape_error():
    with pytest.raises(ShapeError):
        intersect_dim(ExactMatrix.identity(2), ExactMatrix.identity(3))


def test_row_support():
    assert tuple(row_support(B1)) == (1, 2, 3)
    dense = ExactMatrix.from_rows([[1], [2]])
    assert tuple(row_support(dense)) == (1, 2)


def test_indexset_operations():
    s = IndexSet.of(5, [3, 1])
    assert s.members == (1, 3)
    assert tuple(s.complement()) == (2, 4, 5)
    assert tuple(s.union(IndexSet.of(5, [2]))) == (1, 2, 3)
    assert len(s.intersection(IndexSet.of(5, [3, 4]))) == 1
    assert IndexSet.from_mask(5, s.mask()) == s
    with pytest.raises(ShapeError):
        IndexSet(5, (2, 1))
