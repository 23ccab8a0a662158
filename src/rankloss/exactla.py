"""Exact rational linear algebra.

Every dimension computed anywhere in this package (rank certificates,
matroid oracles, decodability checks) bottoms out here.  Matrices are
immutable grids of `fractions.Fraction`; ranks are computed by
fraction-free (Bareiss) elimination on denominator-cleared columns, so no
intermediate value is ever rounded.  Each matrix owns its column-cleared
integer grid and its rank, computed at most once and freed with it, so a
block read by several routes is cleared and eliminated once.

Index sets are 1-based externally, matching the usual [n] convention of
the combinatorial statements they feed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable, Iterator, Sequence

from .errors import ShapeError

Rational = Fraction


# An optional sign, ASCII digits, then optionally "/" and ASCII digits.
_RATIONAL_LITERAL = re.compile(r"\s*([+-]?[0-9]+)(?:/([0-9]+))?\s*")

# Characters of a rejected literal that its error message quotes.
_QUOTE_CHARS = 24


def _quoted(literal) -> str:
    """repr of a rejected literal; a long one is cut to a prefix and its length."""
    if isinstance(literal, str):
        size, head = len(literal), repr(literal[:_QUOTE_CHARS])
    else:
        text = repr(literal)
        size, head = len(text), text[:_QUOTE_CHARS]
    return head if size <= _QUOTE_CHARS else f"{head}... ({size} characters)"


def parse_rational(literal) -> Fraction:
    """Parse a rational literal: a decimal integer or a "p/q" string.

    Accepts Python ints and strings like "3", "-7/2".  Floats are
    rejected to keep inexact values out of the pipeline, and so are the
    other strings `Fraction` would take ("1.5", "1_000", "1e5"): an
    exponent literal such as "1e10000000" would expand to millions of
    digits before any check could see it.  An error message quotes only a
    short prefix of the literal and its length, so a huge one stays one short line.
    """
    if isinstance(literal, bool):
        raise ValueError(f"not a rational literal: {_quoted(literal)}")
    if isinstance(literal, int):
        return Fraction(literal)
    if isinstance(literal, Fraction):
        return literal
    if isinstance(literal, str):
        match = _RATIONAL_LITERAL.fullmatch(literal)
        if match is None:
            raise ValueError(f"bad rational literal {_quoted(literal)}: expected an integer or p/q")
        num, den = match.groups()
        try:
            return Fraction(int(num), int(den or 1))
        except ZeroDivisionError as exc:
            raise ValueError(f"bad rational literal {_quoted(literal)}: {exc}") from None
        except ValueError:
            # The digits matched, so int() refused them for CPython's digit limit.
            raise ValueError(f"bad rational literal {_quoted(literal)}: too many digits") from None
    raise ValueError(f"not a rational literal: {_quoted(literal)}")


def format_rational(value: Fraction) -> str:
    """Inverse of parse_rational: "p" for integers, else "p/q"."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


@dataclass(frozen=True)
class IndexSet:
    """A sorted subset of {1, ..., universe}."""

    universe: int
    members: tuple[int, ...]

    def __post_init__(self):
        if self.universe < 0:
            raise ShapeError(f"universe size must be nonnegative, got {self.universe}")
        prev = 0
        for v in self.members:
            if not isinstance(v, int) or v <= prev:
                raise ShapeError(f"members must be strictly increasing ints, got {self.members}")
            prev = v
        if self.members and self.members[-1] > self.universe:
            raise ShapeError(
                f"index {self.members[-1]} out of range for universe [1, {self.universe}]"
            )

    @classmethod
    def of(cls, universe: int, members: Iterable[int]) -> "IndexSet":
        return cls(universe, tuple(sorted(set(members))))

    @classmethod
    def empty(cls, universe: int) -> "IndexSet":
        return cls(universe, ())

    @classmethod
    def full(cls, universe: int) -> "IndexSet":
        return cls(universe, tuple(range(1, universe + 1)))

    @classmethod
    def from_mask(cls, universe: int, mask: int) -> "IndexSet":
        return cls(universe, tuple(i + 1 for i in range(universe) if mask >> i & 1))

    def mask(self) -> int:
        m = 0
        for v in self.members:
            m |= 1 << (v - 1)
        return m

    def complement(self) -> "IndexSet":
        inside = set(self.members)
        return IndexSet(self.universe, tuple(v for v in range(1, self.universe + 1) if v not in inside))

    def union(self, other: "IndexSet") -> "IndexSet":
        self._check_universe(other)
        return IndexSet.of(self.universe, set(self.members) | set(other.members))

    def intersection(self, other: "IndexSet") -> "IndexSet":
        self._check_universe(other)
        return IndexSet.of(self.universe, set(self.members) & set(other.members))

    def difference(self, other: "IndexSet") -> "IndexSet":
        self._check_universe(other)
        return IndexSet.of(self.universe, set(self.members) - set(other.members))

    def _check_universe(self, other: "IndexSet") -> None:
        if self.universe != other.universe:
            raise ShapeError(f"universe mismatch: {self.universe} vs {other.universe}")

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __contains__(self, v: int) -> bool:
        return v in self.members


@dataclass(frozen=True)
class ExactMatrix:
    """Immutable dense matrix of rationals; zero-row and zero-column shapes allowed."""

    rows: tuple[tuple[Fraction, ...], ...]
    n_cols: int

    def __post_init__(self):
        if self.n_cols < 0:
            raise ShapeError("negative column count")
        for row in self.rows:
            if len(row) != self.n_cols:
                raise ShapeError(f"ragged row: expected {self.n_cols} entries, got {len(row)}")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence], n_cols: int | None = None) -> "ExactMatrix":
        grid = tuple(tuple(parse_rational(v) for v in row) for row in rows)
        if n_cols is None:
            if not grid:
                raise ShapeError("column count required for a matrix with no rows")
            n_cols = len(grid[0])
        return cls(grid, n_cols)

    @classmethod
    def from_columns(cls, cols: Sequence[Sequence], n_rows: int | None = None) -> "ExactMatrix":
        cols = [tuple(parse_rational(v) for v in col) for col in cols]
        if n_rows is None:
            if not cols:
                raise ShapeError("row count required for a matrix with no columns")
            n_rows = len(cols[0])
        for col in cols:
            if len(col) != n_rows:
                raise ShapeError(f"ragged column: expected {n_rows} entries, got {len(col)}")
        return cls(tuple(tuple(col[i] for col in cols) for i in range(n_rows)), len(cols))

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @cached_property
    def _grid(self) -> list[list[int]]:
        """The rows with each column's denominators cleared; copy rows before eliminating."""
        return _integer_columns(self)

    @cached_property
    def _rank(self) -> int:
        """Rank of the matrix, eliminated once on a copy of `_grid`."""
        return _bareiss([row[:] for row in self._grid], self.n_cols)

    def column(self, j: int) -> tuple[Fraction, ...]:
        """Column with 0-based index j, as a tuple."""
        return tuple(row[j] for row in self.rows)

    def columns(self) -> list[tuple[Fraction, ...]]:
        return [self.column(j) for j in range(self.n_cols)]

    def take_rows(self, rows: IndexSet) -> "ExactMatrix":
        if rows.universe != self.n_rows:
            raise ShapeError(f"row set over [{rows.universe}] applied to {self.n_rows}-row matrix")
        return ExactMatrix(tuple(self.rows[i - 1] for i in rows), self.n_cols)

    def take_cols(self, cols: IndexSet) -> "ExactMatrix":
        if cols.universe != self.n_cols:
            raise ShapeError(f"column set over [{cols.universe}] applied to {self.n_cols}-column matrix")
        return ExactMatrix(tuple(tuple(row[j - 1] for j in cols) for row in self.rows), len(cols))

    def hstack(self, other: "ExactMatrix") -> "ExactMatrix":
        if other.n_rows != self.n_rows:
            raise ShapeError(f"row count mismatch: {self.n_rows} vs {other.n_rows}")
        return ExactMatrix(
            tuple(a + b for a, b in zip(self.rows, other.rows)),
            self.n_cols + other.n_cols,
        )

    def matmul(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.n_cols != other.n_rows:
            raise ShapeError(f"inner dimension mismatch: {self.n_cols} vs {other.n_rows}")
        cols = other.columns()
        return ExactMatrix(
            tuple(tuple(sum(a * c for a, c in zip(row, col)) for col in cols) for row in self.rows),
            other.n_cols,
        )


def _integer_columns(m: ExactMatrix) -> list[list[int]]:
    """The rows of m after each column is multiplied by the lcm of its denominators.

    Column scaling preserves the rank of m and of any matrix built from m
    by scaling its rows or placing other columns beside it.
    """
    scales = [lcm(*(row[j].denominator for row in m.rows)) for j in range(m.n_cols)]
    return [[v.numerator * (s // v.denominator) for v, s in zip(row, scales)] for row in m.rows]


def _bareiss(a: list[list[int]], n_cols: int) -> int:
    """Rank of an integer grid by fraction-free (Bareiss) elimination, in place."""
    n_rows = len(a)
    r = 0
    prev = 1
    for col in range(n_cols):
        piv = next((i for i in range(r, n_rows) if a[i][col]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        p = a[r][col]
        for i in range(r + 1, n_rows):
            f = a[i][col]
            row_i, row_r = a[i], a[r]
            for j in range(col + 1, n_cols):
                row_i[j] = (p * row_i[j] - f * row_r[j]) // prev
            row_i[col] = 0
        prev = p
        r += 1
        if r == n_rows:
            break
    return r


def rank(m: ExactMatrix) -> int:
    """Exact rank over the rationals, by fraction-free (Bareiss) elimination, once per matrix."""
    return m._rank


def rref(m: ExactMatrix) -> tuple[ExactMatrix, tuple[int, ...]]:
    """Reduced row echelon form and the 0-based pivot columns."""
    a = [list(row) for row in m.rows]
    n_rows, n_cols = len(a), m.n_cols
    pivots: list[int] = []
    r = 0
    for col in range(n_cols):
        piv = next((i for i in range(r, n_rows) if a[i][col] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = 1 / a[r][col]
        a[r] = [v * inv for v in a[r]]
        for i in range(n_rows):
            if i != r and a[i][col] != 0:
                f = a[i][col]
                a[i] = [v - f * w for v, w in zip(a[i], a[r])]
        pivots.append(col)
        r += 1
        if r == n_rows:
            break
    return ExactMatrix(tuple(tuple(row) for row in a), n_cols), tuple(pivots)


def nullspace_basis(m: ExactMatrix) -> ExactMatrix:
    """Basis of {x : Mx = 0}, as an n_cols x (n_cols - rank) matrix.

    Columns are produced in increasing order of their free variable, each
    normalized to have a 1 in that coordinate, so the result is canonical.
    """
    reduced, pivots = rref(m)
    free = [j for j in range(m.n_cols) if j not in pivots]
    cols = []
    for f in free:
        vec = [Fraction(0)] * m.n_cols
        vec[f] = Fraction(1)
        for r, p in enumerate(pivots):
            vec[p] = -reduced.rows[r][f]
        cols.append(vec)
    return ExactMatrix.from_columns(cols, n_rows=m.n_cols)


def sparse_dim(b: ExactMatrix, j: IndexSet) -> int:
    """dim of the intersection of colspan(B) with the sparse subspace of J.

    The sparse subspace of J is every vector whose entries outside J
    vanish; the dimension equals rank(B) minus the rank of B restricted
    to the rows outside J.
    """
    if j.universe != b.n_rows:
        raise ShapeError(f"index set over [{j.universe}] against {b.n_rows}-row matrix")
    return rank(b) - rank(b.take_rows(j.complement()))


def intersect_dim(a: ExactMatrix, b: ExactMatrix) -> int:
    """dim(colspan(A) & colspan(B)) = rank(A) + rank(B) - rank([A|B])."""
    if a.n_rows != b.n_rows:
        raise ShapeError(f"row count mismatch: {a.n_rows} vs {b.n_rows}")
    return rank(a) + rank(b) - rank(a.hstack(b))


def row_support(m: ExactMatrix) -> IndexSet:
    """Rows carrying at least one nonzero entry (1-based)."""
    return IndexSet.of(
        m.n_rows, (i + 1 for i, row in enumerate(m.rows) if any(v != 0 for v in row))
    )


def is_full_column_rank(m: ExactMatrix) -> bool:
    return rank(m) == m.n_cols
