"""Exact linear algebra primitives against hand-checked and brute-force values."""

from __future__ import annotations

import gc
import json
import random
import weakref
from fractions import Fraction

import pytest

import rankloss.exactla
from rankloss import fileio
from rankloss.errors import PreconditionError, ShapeError
from rankloss.exactla import (
    ExactMatrix,
    IndexSet,
    _bareiss,
    _rank_mod,
    format_rational,
    intersect_dim,
    is_full_column_rank,
    nullspace_basis,
    rank,
    row_support,
    sparse_dim,
)

from conftest import (
    column,
    full_set,
    identity_matrix,
    is_zero,
    matmul,
    nullspace_rref,
    parse_rational,
    sparse_intersection_basis,
    submatrix,
    take_rows,
    transpose,
)

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
    # A huge rejected literal is quoted by a short prefix and its length.
    for literal, head in (("7" * 1_000_000, "'7777"), ("x" * 100_000, "'xxxx"), ([0] * 100_000, "[0, 0")):
        with pytest.raises(ValueError) as info:
            parse_rational(literal)
        message = str(info.value)
        assert len(message) < 120 and head in message and "characters)" in message


def test_rank_is_computed_once_per_matrix(monkeypatch):
    calls = []
    bareiss = rankloss.exactla._bareiss

    def counting_bareiss(a, n_cols):
        calls.append(n_cols)
        return bareiss(a, n_cols)

    monkeypatch.setattr(rankloss.exactla, "_bareiss", counting_bareiss)
    m = ExactMatrix.from_rows([[Fraction(1, 2), 1], [0, Fraction(2, 3)], [1, 1]])
    assert rank(m) == 2 and rank(m) == 2 and is_full_column_rank(m)
    assert calls == [2]
    assert m._grid == [[1, 3], [0, 2], [2, 3]]


def test_row_subset_ranks_are_eliminated_once_per_mask(monkeypatch):
    calls = []
    bareiss = rankloss.exactla._bareiss

    def counting_bareiss(a, n_cols):
        calls.append(len(a))
        return bareiss(a, n_cols)

    monkeypatch.setattr(rankloss.exactla, "_bareiss", counting_bareiss)
    rng = random.Random(13)
    for _ in range(50):
        n, m = rng.randint(1, 5), rng.randint(1, 3)
        mat = ExactMatrix.from_rows([[rng.choice((0, 0, -1, 1, 2)) for _ in range(m)] for _ in range(n)])
        calls.clear()
        for mask in [*range(1 << n), *range(1 << n)]:
            rows = [row for i, row in enumerate(mat._grid) if mask >> i & 1]
            assert mat._rank_of_rows(mask) == bareiss([row[:] for row in rows], m)
        # One elimination per mask, the one of all rows being the matrix's own rank.
        assert sorted(calls) == sorted(bin(mask).count("1") for mask in range(1 << n))
        assert mat._rank_of_rows((1 << n) - 1) == rank(mat)


def test_take_cols_hands_on_a_full_column_rank():
    wide = ExactMatrix.from_rows([[1, 0, 2], [0, 1, 3], [0, 0, 1]])
    assert rank(wide) == 3
    assert wide.take_cols(IndexSet.of(3, [1, 3]))._row_ranks == {0b111: 2}
    # Columns of a rank-deficient matrix may be dependent, so their rank is left to eliminate.
    flat = ExactMatrix.from_rows([[1, 2, 0], [2, 4, 0]])
    assert rank(flat) == 1
    taken = flat.take_cols(IndexSet.of(3, [1, 2]))
    assert taken._row_ranks == {} and rank(taken) == 1


def test_matrix_memos_are_freed_with_the_matrix():
    m = ExactMatrix.from_rows([[Fraction(1, 2), 1], [0, Fraction(2, 3)], [1, 1]])
    assert rank(m) == 2 and m._rank_of_rows(0b011) == 2
    assert {"_grid", "_rank", "_row_ranks"} <= set(vars(m))
    ref = weakref.ref(m)
    del m
    gc.collect()
    assert ref() is None


def test_modular_rank_is_a_lower_bound(monkeypatch):
    # With entries in [-3, 3] every minor of at most 6 rows has absolute
    # value at most (3 sqrt 6)^6 < q, so mod the package's prime both counts
    # are exact; mod 3 they may only fall below the ranks over the rationals.
    rng = random.Random(29)
    below = 0
    for q in (rankloss.exactla._MODULUS, 3):
        monkeypatch.setattr(rankloss.exactla, "_MODULUS", q)
        for _ in range(500):
            n, m = rng.randint(1, 6), rng.randint(1, 7)
            width = rng.randint(0, m)
            grid = [[rng.choice((0, 0, 0, -3, -1, 1, 2, 3)) for _ in range(m)] for _ in range(n)]
            exact = (_bareiss([row[:] for row in grid], m), _bareiss([row[:width] for row in grid], width))
            modular = _rank_mod([[v % q for v in row] for row in grid], m, width)
            if q == 3:
                assert modular[0] <= exact[0] and modular[1] <= exact[1]
                below += modular != exact
            else:
                assert modular == exact
    assert below >= 20


def test_modular_rank_reduces_raw_integers(monkeypatch):
    # Entries that are nonzero multiples of q, negative or at least q are
    # ranked as their residues, and the caller's grid is left as it was.
    # The entries below reduce to the signed residues -2..2, whose minors of
    # at most 5 rows stay below q in absolute value, so the rank over GF(q)
    # is the rank over the rationals of the grid reduced to those residues.
    q = rankloss.exactla._MODULUS
    entries = (0, q, -q, 2 * q, -1, -2, 1, 2, q - 1, q + 1, 2 * q + 1, -q - 1)
    rng = random.Random(31)
    for _ in range(500):
        n, m = rng.randint(1, 5), rng.randint(1, 6)
        width = rng.randint(0, m)
        grid = [[rng.choice(entries) for _ in range(m)] for _ in range(n)]
        copy = [row[:] for row in grid]
        reduced = [[(v + 2) % q - 2 for v in row] for row in grid]
        exact = (_bareiss([row[:] for row in reduced], m), _bareiss([row[:width] for row in reduced], width))
        assert _rank_mod(grid, m, width) == exact
        assert grid == copy
    for q in (q, 3):
        monkeypatch.setattr(rankloss.exactla, "_MODULUS", q)
        assert _rank_mod([[q]], 1, 1) == (0, 0)
        assert _rank_mod([[-q, 2 * q], [q, q + 1]], 2, 1) == (1, 0)


def test_rank_identity():
    assert rank(identity_matrix(2)) == 2


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
        assert r == rank(transpose(mat))
        assert r <= min(n, m)


def test_rank_with_fractions():
    dependent = ExactMatrix.from_rows([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(1, 1)]])
    assert rank(dependent) == 1  # second row is three times the first
    independent = ExactMatrix.from_rows([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(1, 7)]])
    assert rank(independent) == 2


def test_nullspace_identity_empty():
    basis = nullspace_basis(identity_matrix(3))
    assert basis.n_cols == 0
    assert basis.n_rows == 3


def test_nullspace_one_dim():
    m = ExactMatrix.from_rows([[1, -1]])
    basis = nullspace_basis(m)
    assert basis.n_cols == 1
    v = column(basis, 0)
    assert v[0] == v[1] != 0


def test_nullspace_from_fixture_rows():
    m = ExactMatrix.from_rows([[1, 3], [0, 0]])
    basis = nullspace_basis(m)
    assert basis.n_cols == 1
    v = column(basis, 0)
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
            assert is_zero(matmul(mat, basis))


# Fractions, zeros and repeats, so generated matrices carry zero rows and lose rank.
REDUCTION_POOL = [0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4)]


def _reduction_matrix(rng: random.Random, n: int, m: int) -> ExactMatrix:
    rows = [[rng.choice(REDUCTION_POOL) for _ in range(m)] for _ in range(n)]
    if n >= 2 and rng.random() < 0.3:
        # a row that is a combination of two others
        a, b = rng.sample(range(n), 2)
        c = rng.choice(REDUCTION_POOL)
        rows[rng.randrange(n)] = [x + c * y for x, y in zip(rows[a], rows[b])]
    return ExactMatrix(tuple(tuple(Fraction(v) for v in row) for row in rows), m)


def test_nullspace_basis_matches_rref_reference():
    rng = random.Random(13)
    shapes = [(0, m) for m in range(4)] + [(n, 0) for n in range(1, 4)]
    shapes += [(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(2000)]
    deficient = 0
    for n, m in shapes:
        mat = _reduction_matrix(rng, n, m)
        basis = nullspace_basis(mat)
        assert basis == nullspace_rref(mat)
        assert (basis.n_rows, basis.n_cols) == (m, m - rank(mat))
        deficient += rank(mat) < min(n, m)
    assert deficient >= 150


def test_equal_values_give_equal_matrices_whatever_the_constructor(tmp_path):
    rows = [[Fraction(1, 2), 3, 0], [Fraction(-2, 3), Fraction(5, 6), 7], [1, 0, 4]]
    literals = [["2/4", "6/2", "0/5"], ["-4/6", "10/12", " 7 "], ["1", "-0", "+4"]]
    columns = [list(col) for col in zip(*literals)]
    path = tmp_path / "e.json"
    path.write_text(json.dumps({"n": 3, "matrices": [columns]}))
    wide = ExactMatrix.from_rows([[Fraction(9, 5), *row] for row in rows])
    variants = [
        ExactMatrix(tuple(map(tuple, rows)), 3),
        ExactMatrix.from_rows(literals),
        ExactMatrix.from_columns(columns),
        fileio.load_ensemble(str(path)).blocks[0],
        wide.take_cols(IndexSet.of(4, [2, 3, 4])),
        ExactMatrix.from_rows([r[:1] for r in rows]).hstack(ExactMatrix.from_rows([r[1:] for r in rows])),
    ]
    for m in variants:
        assert m == variants[0] and hash(m) == hash(variants[0])
        assert m._scales == (6, 6, 1) and m._grid == [[3, 18, 0], [-4, 5, 7], [6, 0, 4]]
        assert m.rows == tuple(tuple(Fraction(v) for v in row) for row in rows)
        assert all(type(v) is Fraction for row in m.rows for v in row)
    # Same grid at another scale, and same values in another shape, differ.
    assert ExactMatrix.from_rows([[1], [2]]) != ExactMatrix.from_rows([["1/2"], [1]])
    assert ExactMatrix.from_rows([[1, 2]]) != ExactMatrix.from_rows([[1], [2]])
    no_rows = [
        ExactMatrix((), 2),
        ExactMatrix.from_rows([], n_cols=2),
        ExactMatrix.from_columns([[], []]),
        ExactMatrix((), 3).take_cols(IndexSet.of(3, [1, 3])),
        ExactMatrix((), 1).hstack(ExactMatrix((), 1)),
    ]
    no_cols = [
        ExactMatrix(((), (), ()), 0),
        ExactMatrix.from_rows([[], [], []]),
        ExactMatrix.from_columns([], n_rows=3),
        wide.take_cols(IndexSet(4, ())),
        nullspace_basis(ExactMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])),
    ]
    for same, other in ((no_rows, ExactMatrix((), 3)), (no_cols, ExactMatrix(((),), 0))):
        for m in same:
            assert m == same[0] and hash(m) == hash(same[0]) and m != other
            assert m.rows == same[0].rows and (m.n_rows, m.n_cols) == (same[0].n_rows, same[0].n_cols)
    assert ExactMatrix((), 0) not in (no_rows[0], no_cols[0])


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: ExactMatrix.from_rows([]), "column count required for a matrix with no rows"),
        (lambda: ExactMatrix.from_rows([], -1), "negative column count"),
        (lambda: ExactMatrix.from_rows([[1, 2], [3]]), "ragged row: expected 2 entries, got 1"),
        (lambda: ExactMatrix.from_columns([]), "row count required for a matrix with no columns"),
        (lambda: ExactMatrix.from_columns([[1, 2], [3]]), "ragged column: expected 2 entries, got 1"),
        (lambda: sparse_dim(B1, IndexSet.of(3, [1])), "index set over [3] against 4-row matrix"),
        (lambda: B1.take_cols(IndexSet.of(3, [1])), "column set over [3] applied to 2-column matrix"),
        (lambda: B1.hstack(identity_matrix(2)), "row count mismatch: 4 vs 2"),
        (lambda: IndexSet.of(3, [1]).union(IndexSet.of(4, [1])), "universe mismatch: 3 vs 4"),
        (lambda: IndexSet.of(4, [1]).difference(IndexSet.of(3, [1])), "universe mismatch: 4 vs 3"),
        # A count is a nonnegative int, in both constructors.
        (lambda: ExactMatrix.from_columns([], -3), "negative row count"),
        (lambda: ExactMatrix([[1]], "1"), "column count must be an int, got '1'"),
        (lambda: ExactMatrix.from_columns([[1]], "1"), "row count must be an int, got '1'"),
        (lambda: ExactMatrix((), True), "column count must be an int, got True"),
        (lambda: ExactMatrix.from_columns([[1]], 1.0), "row count must be an int, got 1.0"),
        (lambda: ExactMatrix(None, 2), "expected an iterable of rows, each an iterable of literals"),
        (lambda: ExactMatrix.from_columns([1, 2]), "expected an iterable of columns, each an iterable of literals"),
        # Only a tuple compares equal to, and hashes like, the IndexSet it spells.
        (lambda: IndexSet(3, [1, 2]), "members must be a tuple, got list"),
        (lambda: IndexSet(3, None), "members must be a tuple, got NoneType"),
    ],
    ids=[
        "no-rows", "negative-cols", "ragged-row", "no-columns", "ragged-column",
        "sparse-dim-universe", "take-cols-universe", "hstack-rows",
        "union-universe", "difference-universe",
        "negative-rows", "str-cols", "str-rows", "bool-cols", "float-rows", "rows-not-iterable",
        "columns-not-iterable", "list-members", "none-members",
    ],
)
def test_constructors_refuse_bad_shapes(build, message):
    with pytest.raises(ShapeError) as err:
        build()
    assert str(err.value) == message


def test_submatrix_full_and_empty():
    full = submatrix(B1, full_set(4), full_set(2))
    assert full == B1
    zero_row = submatrix(B1, IndexSet.of(4, [4]), full_set(2))
    assert zero_row.rows == ((Fraction(0), Fraction(0)),)
    empty = submatrix(B1, IndexSet(4, ()), full_set(2))
    assert empty.n_rows == 0 and empty.n_cols == 2
    assert rank(empty) == 0


def test_submatrix_out_of_range():
    with pytest.raises(ShapeError):
        IndexSet.of(4, [5])
    with pytest.raises(ShapeError):
        take_rows(B1, IndexSet.of(3, [1]))


def test_sparse_dim_fixture():
    assert sparse_dim(B1, IndexSet.of(4, [1, 2, 3])) == 2
    assert sparse_dim(B1, IndexSet.of(4, [1, 2])) == 1
    assert sparse_dim(B1, full_set(4)) == rank(B1)
    assert sparse_dim(B1, IndexSet(4, ())) == 0


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
        intersect_dim(identity_matrix(2), identity_matrix(3))


def test_row_support():
    assert tuple(row_support(B1)) == (1, 2, 3)
    dense = ExactMatrix.from_rows([[1], [2]])
    assert tuple(row_support(dense)) == (1, 2)


def test_indexset_operations():
    s = IndexSet.of(5, [3, 1])
    assert s.members == (1, 3)
    assert tuple(s.complement()) == (2, 4, 5)
    assert tuple(s.union(IndexSet.of(5, [2]))) == (1, 2, 3)
    assert tuple(s.difference(IndexSet.of(5, [3, 4]))) == (1,)
    assert IndexSet.from_mask(5, 0b00101) == s
    with pytest.raises(ShapeError):
        IndexSet(5, (2, 1))


@pytest.mark.parametrize(
    "members, message",
    [
        ((0, 1, 2), "index 0 out of range for universe [1, 9]"),
        ((-1, 1, 2), "index -1 out of range for universe [1, 9]"),
        ((1, 1, 2), "index 1 repeated"),
    ],
    ids=["zero", "negative", "repeated"],
)
def test_indexset_names_the_index_it_refuses(members, message):
    # `of` sorts its members but merges none: a repeat is refused, not dropped.
    for build in (IndexSet, lambda universe, members: IndexSet.of(universe, reversed(members))):
        with pytest.raises(ShapeError) as err:
            build(9, members)
        assert str(err.value) == message


def test_matrix_constructors_refuse_a_bad_literal_by_its_reading():
    # A literal parse_rational refuses is a PreconditionError with the same message.
    for build, literal in (
        (lambda: ExactMatrix([[1, "x"]]), "x"),
        (lambda: ExactMatrix.from_columns([[None]]), None),
        (lambda: ExactMatrix([[0.5]]), 0.5),
    ):
        with pytest.raises(ValueError) as expected:
            parse_rational(literal)
        with pytest.raises(PreconditionError) as err:
            build()
        assert str(err.value) == str(expected.value)


def test_exact_matrix_refuses_assignment_and_deletion():
    m = ExactMatrix.from_rows([[1, 2]])
    with pytest.raises(AttributeError) as err:
        m.n_cols = 3
    assert str(err.value) == "ExactMatrix is immutable: cannot assign 'n_cols'"
    with pytest.raises(AttributeError) as err:
        del m._grid
    assert str(err.value) == "ExactMatrix is immutable: cannot delete '_grid'"
    assert m._grid == [[1, 2]] and m.n_cols == 2


def test_indexset_refuses_booleans():
    # bool is an int subclass, but a flag is not an index, nor a size; a float is not a size either
    for build in (
        lambda: IndexSet(3, (True,)),
        lambda: IndexSet.of(3, [True, 2]),
        lambda: IndexSet(True, (1,)),
        lambda: full_set(True),
        lambda: IndexSet(2.5, (1, 2)),
    ):
        with pytest.raises(ShapeError):
            build()
    assert IndexSet.of(3, [1, 2]).members == (1, 2)
