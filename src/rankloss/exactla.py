"""Exact rational linear algebra.

Every dimension computed anywhere in this package (rank certificates,
matroid oracles, decodability checks) bottoms out here.  A matrix is held
as its cleared integer grid: each column is integers over one positive
scale, the lcm of the column's denominators, sharing no factor with it.
That state is canonical, so equality and hashing read it, and Fraction
rows are built only when `rows` is read.  Literals, Fraction
rows and every matrix this package derives go straight into that grid.
Ranks are computed by fraction-free (Bareiss) elimination on the grid, so
no intermediate value is ever rounded; each matrix keeps its rank, its
column supports and the rank of each row subset asked for
(`ExactMatrix._rank_of_rows`, which sparse dimensions read), each computed
at most once and freed with it.

C6's fundamental circuits, `nullspace_basis` and the columns each member
keeps when `tim.normalize_alignment` swaps in coordinate columns all read
one fraction-free reduced echelon basis of some rows of a grid
(`_RowBasis`).

`_bareiss` ranks, `_RowBasis` gives bases and circuits (both exactly,
fraction-free), and `_rank_mod` gives lower bounds: it eliminates an
integer grid modulo one fixed prime q, and for an integer matrix,
rank mod q <= rank over Q <= the term rank of its support
(a nonzero minor mod q is nonzero over Z, and a nonzero minor needs a
matching of its rows to its columns in the support).  A caller whose
modular rank reaches the term rank has the exact rank; `tim` decides any
other receiver by C6.

Index sets are 1-based externally, matching the usual [n] convention of
the combinatorial statements they feed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul
from typing import Iterable, Iterator, Sequence

from .errors import PreconditionError, ShapeError

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


def _rational_pair(literal) -> tuple[int, int]:
    """A rational literal's (numerator, denominator) ints, the denominator positive but not reduced.

    The one reading of the literal grammar behind the matrix constructors
    and the file loaders: an int, a Fraction, or a string like "3" or
    "-7/2".  Floats are refused to keep inexact values out, and so are the
    other strings `Fraction` takes ("1.5", "1_000", "1e5"): "1e10000000"
    would expand to millions of digits before any check could see it.  A
    ValueError quotes only a short prefix of the literal and its length.
    """
    if isinstance(literal, str):
        if literal.isascii() and literal.isdigit():
            # Plain ASCII digits, the common case: the grammar reads them as they are.
            num, den = literal, None
        else:
            match = _RATIONAL_LITERAL.fullmatch(literal)
            if match is None:
                raise ValueError(f"bad rational literal {_quoted(literal)}: expected an integer or p/q")
            num, den = match.groups()
        try:
            pair = int(num), int(den or 1)
        except ValueError:
            # The digits matched, so int() refused them for CPython's digit limit.
            raise ValueError(f"bad rational literal {_quoted(literal)}: too many digits") from None
        if pair[1] == 0:
            raise ValueError(f"bad rational literal {_quoted(literal)}: Fraction({pair[0]}, 0)")
        return pair
    if isinstance(literal, bool):
        raise ValueError(f"not a rational literal: {_quoted(literal)}")
    if isinstance(literal, int):
        return literal, 1
    if isinstance(literal, Fraction):
        return literal.numerator, literal.denominator
    raise ValueError(f"not a rational literal: {_quoted(literal)}")


def format_rational(value: Fraction) -> str:
    """A Fraction as a literal of the grammar `_rational_pair` reads: "p" for integers, else "p/q"."""
    return _literal(value.numerator, value.denominator)


def _literal(num: int, den: int) -> str:
    """format_rational of num/den, den > 0, without building the Fraction."""
    g = gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


@dataclass(frozen=True)
class IndexSet:
    """A sorted subset of {1, ..., universe}, each member listed once."""

    universe: int
    members: tuple[int, ...]

    def __post_init__(self):
        if type(self.universe) is not int or self.universe < 0:  # bool is an int subclass, not a size
            raise ShapeError(f"universe size must be a nonnegative int, got {self.universe!r}")
        if not isinstance(self.members, tuple):  # a list would compare unequal and not hash
            raise ShapeError(f"members must be a tuple, got {type(self.members).__name__}")
        prev = 0
        for v in self.members:
            if type(v) is not int or v <= prev:  # bool is an int subclass, not an index
                if type(v) is int and v < 1:
                    raise ShapeError(f"index {v} out of range for universe [1, {self.universe}]")
                if type(v) is int and v == prev:
                    raise ShapeError(f"index {v} repeated")
                raise ShapeError(f"members must be strictly increasing ints, got {self.members}")
            prev = v
        if self.members and self.members[-1] > self.universe:
            raise ShapeError(
                f"index {self.members[-1]} out of range for universe [1, {self.universe}]"
            )

    @classmethod
    def of(cls, universe: int, members: Iterable[int]) -> "IndexSet":
        return cls(universe, tuple(sorted(members)))

    @classmethod
    def from_mask(cls, universe: int, mask: int) -> "IndexSet":
        return cls(universe, tuple(i + 1 for i in range(universe) if mask >> i & 1))

    def complement(self) -> "IndexSet":
        inside = set(self.members)
        return IndexSet(self.universe, tuple(v for v in range(1, self.universe + 1) if v not in inside))

    def union(self, other: "IndexSet") -> "IndexSet":
        self._check_universe(other)
        return IndexSet.of(self.universe, set(self.members) | set(other.members))

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


def _mask(rows: Iterable[int]) -> int:
    """The row mask of 1-based rows: bit i set when row i + 1 is in them."""
    return sum(1 << (v - 1) for v in rows)


def _literal_lines(lines, count, what: str, other: str) -> tuple[list[list[tuple[int, int]]], int]:
    """A matrix's lines of literals, its rows or its columns, as (numerator, denominator) pairs.

    Returns them with count, the number of the other kind, read off the
    first line when None.  A bad literal, a ragged line and a count that is
    not a nonnegative int are refused.
    """
    try:
        pairs = [[_rational_pair(v) for v in line] for line in lines]
    except TypeError:  # the lines, or one of them, cannot be iterated
        raise ShapeError(f"expected an iterable of {what}s, each an iterable of literals") from None
    except ValueError as exc:
        raise PreconditionError(str(exc)) from None
    if count is None:
        if not pairs:
            raise ShapeError(f"{other} count required for a matrix with no {what}s")
        count = len(pairs[0])
    if type(count) is not int:  # bool is an int subclass, not a count
        raise ShapeError(f"{other} count must be an int, got {_quoted(count)}")
    if count < 0:
        raise ShapeError(f"negative {other} count")
    for line in pairs:
        if len(line) != count:
            raise ShapeError(f"ragged {what}: expected {count} entries, got {len(line)}")
    return pairs, count


def _reduced(col: Sequence[int], scale: int) -> tuple[tuple[int, ...], int]:
    """The column col / scale (scale nonzero) as integers over a positive scale coprime to them."""
    g = gcd(scale, *col)
    if scale < 0:
        g = -g
    if g == 1:
        return tuple(col), scale
    return tuple(v // g for v in col), scale // g


def _cleared(pairs: Sequence[tuple[int, int]]) -> tuple[tuple[int, ...], int]:
    """A column of (numerator, denominator) pairs as canonical integers over the lcm of its denominators."""
    nums, dens = zip(*pairs) if pairs else ((), ())
    scale = lcm(*dens)
    if scale == 1:
        return nums, 1
    return _reduced([p * (scale // d) for p, d in pairs], scale)


def _by_columns(cols: Sequence[tuple[tuple[int, ...], int]], n_rows: int):
    """The grid and scales of the n_rows-row matrix of canonical (entries, scale) columns."""
    grid = [list(row) for row in zip(*(c for c, _ in cols))] if cols else [[] for _ in range(n_rows)]
    return grid, tuple(s for _, s in cols)


class ExactMatrix:
    """Immutable dense matrix of rationals; zero-row and zero-column shapes allowed.

    Held as `_grid`, rows of ints (copy them before eliminating), and
    `_scales`, one positive int per column: entry (i, j) is
    `_grid[i][j] / _scales[j]`, and no column's entries share a factor with
    its scale, so equal matrices hold equal grids.  Column scaling keeps
    every rank and minor singularity the routes read off the grid.  `rows`
    builds Fractions on demand.
    """

    def __init__(self, rows: Iterable[Iterable], n_cols: int | None = None):
        pairs, n_cols = _literal_lines(rows, n_cols, "row", "column")
        cols = [_cleared(col) for col in zip(*pairs)] if pairs else [((), 1)] * n_cols
        self._set(*_by_columns(cols, len(pairs)))

    def _set(self, grid: list[list[int]], scales: tuple[int, ...]) -> None:
        # _row_ranks holds the rank of each row mask asked so far (`_rank_of_rows`).
        self.__dict__.update(_grid=grid, _scales=scales, n_cols=len(scales), _row_ranks={})

    @classmethod
    def _of(cls, grid: list[list[int]], scales: tuple[int, ...]) -> "ExactMatrix":
        """The matrix of a canonical integer grid and its column scales, taken as they are."""
        m = cls.__new__(cls)
        m._set(grid, scales)
        return m

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence], n_cols: int | None = None) -> "ExactMatrix":
        return cls(rows, n_cols)

    @classmethod
    def from_columns(cls, cols: Sequence[Sequence], n_rows: int | None = None) -> "ExactMatrix":
        pairs, n_rows = _literal_lines(cols, n_rows, "column", "row")
        return cls._of(*_by_columns([_cleared(col) for col in pairs], n_rows))

    def __setattr__(self, name, value):
        raise AttributeError(f"ExactMatrix is immutable: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"ExactMatrix is immutable: cannot delete {name!r}")

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.n_cols == other.n_cols and self._scales == other._scales and self._grid == other._grid

    def __hash__(self) -> int:
        return hash((self.n_cols, self._scales, tuple(map(tuple, self._grid))))

    def __repr__(self) -> str:
        return f"ExactMatrix(rows={self.rows!r}, n_cols={self.n_cols!r})"

    @property
    def n_rows(self) -> int:
        return len(self._grid)

    @cached_property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        """The entries as Fractions, built on first read."""
        scales = self._scales
        return tuple(tuple(Fraction(v, s) for v, s in zip(row, scales)) for row in self._grid)

    @cached_property
    def _rank(self) -> int:
        """Rank of the matrix: the rank of all its rows."""
        return self._rank_of_rows((1 << self.n_rows) - 1)

    def _rank_of_rows(self, mask: int) -> int:
        """Rank of the rows in `mask` (bit i set when row i + 1 is), eliminated once per mask on copies."""
        ranks = self._row_ranks
        value = ranks.get(mask)
        if value is None:
            rows = [row[:] for i, row in enumerate(self._grid) if mask >> i & 1]
            value = ranks[mask] = _bareiss(rows, self.n_cols)
        return value

    @cached_property
    def _supports(self) -> tuple[int, ...]:
        """Per column, the mask of its nonzero rows: bit i set when row i + 1 is."""
        if not self._grid:
            return (0,) * self.n_cols
        return tuple(sum(1 << i for i, v in enumerate(col) if v) for col in zip(*self._grid))

    def take_cols(self, cols: IndexSet) -> "ExactMatrix":
        if cols.universe != self.n_cols:
            raise ShapeError(f"column set over [{cols.universe}] applied to {self.n_cols}-column matrix")
        picked = [j - 1 for j in cols]
        taken = ExactMatrix._of(
            [[row[j] for j in picked] for row in self._grid], tuple(self._scales[j] for j in picked)
        )
        rows = (1 << self.n_rows) - 1
        if self._row_ranks.get(rows) == self.n_cols:  # independent columns: no elimination needed
            taken._row_ranks[rows] = len(picked)
        return taken

    def hstack(self, other: "ExactMatrix") -> "ExactMatrix":
        if other.n_rows != self.n_rows:
            raise ShapeError(f"row count mismatch: {self.n_rows} vs {other.n_rows}")
        return ExactMatrix._of(
            [a + b for a, b in zip(self._grid, other._grid)], self._scales + other._scales
        )


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


# The prime of `_rank_mod`, below 2**30, so a product of two residues fits in two 30-bit digits.
_MODULUS = 2**30 - 35


def _rank_mod(grid: list[list[int]], n_cols: int, width: int) -> tuple[int, int]:
    """Rank over GF(_MODULUS) of an integer grid, and its pivots among the first `width` columns.

    The grid's entries are reduced mod q first, so any integers may come
    in.  Elimination runs column by column, so the second count is the
    rank of the first `width` columns.  A minor that is nonzero mod q is
    nonzero over the integers, so each count is at most the rank over the
    rationals of the grid: a lower bound only, never a replacement for
    `_bareiss`.  Unlike Bareiss, a row with a zero in the pivot column is
    left as it is.
    """
    q = _MODULUS
    a = [[v % q for v in row] for row in grid]
    n_rows = len(a)
    r = lead = 0
    for col in range(n_cols):
        for piv in range(r, n_rows):
            if a[piv][col]:
                break
        else:
            continue
        a[r], a[piv] = a[piv], a[r]
        row_r = a[r]
        p = row_r[col]
        for i in range(r + 1, n_rows):
            f = a[i][col]
            if f:
                a[i] = [(p * v - f * w) % q for v, w in zip(a[i], row_r)]
        r += 1
        if col < width:
            lead += 1
        if r == n_rows:
            break
    return r, lead


def rank(m: ExactMatrix) -> int:
    """Exact rank over the rationals, by fraction-free (Bareiss) elimination, once per matrix."""
    return m._rank


class _RowBasis:
    """Some rows of an integer grid in fraction-free reduced echelon form.

    Basis vector t has det at pivot column pivots[t] and 0 at the other
    pivots; free[c][t] is its entry at non-pivot column c and comb[s][t]
    its coefficient of rows[s].  det is the minor of the rows at the pivot
    columns, so each vector is det times a row of the reduced echelon form
    and every entry is a minor of the rows: Bareiss-Jordan elimination
    divides exactly and the integers stay bounded.  Clearing a row's pivot
    entries takes its own entries as multipliers, so a query multiplies
    small integers into the basis and divides nothing.  C6 reads
    fundamental circuits off it, `nullspace_basis` its pivots and free
    entries, and `tim.normalize_alignment` its pivots alone: the columns a
    member keeps independent off its shrunk window.
    """

    def __init__(self, grid: list[list[int]], width: int):
        self.grid = grid
        self.rows: tuple[int, ...] = ()
        self.key: tuple[int, ...] = ()  # the rows, sorted
        self.pivots: list[int] = []
        self.free: dict[int, list[int]] = {c: [] for c in range(width)}
        self.comb: list[list[int]] = []
        self.det = 1

    def _multipliers(self, y: int) -> list[int]:
        row = self.grid[y - 1]
        return [row[p] for p in self.pivots]

    def _reduce(self, y: int, fs: list[int]) -> list[int]:
        # det * row y, less the basis vectors that clear its pivots, at the free columns.
        row = self.grid[y - 1]
        return [self.det * row[c] - sum(map(mul, fs, col)) for c, col in self.free.items()]

    def _combination(self, fs: list[int]) -> list[int]:
        # The reduced row's coefficients of the rows, apart from det on row y itself.
        return [-sum(map(mul, fs, col)) for col in self.comb]

    def circuit(self, y: int) -> list[int] | None:
        """None when row y is independent of the rows, else the rows its combination uses."""
        fs = self._multipliers(y)
        if any(self._reduce(y, fs)):
            return None
        return sorted(r for r, c in zip(self.rows, self._combination(fs)) if c)

    def add(self, y: int) -> None:
        """Extend the basis by row y, which must be independent of it."""
        fs = self._multipliers(y)
        w = self._reduce(y, fs)
        k = next(k for k, v in enumerate(w) if v)
        cols = [*self.free.values(), *self.comb]
        u = w + self._combination(fs)
        det, new_det, old_q = self.det, u[k], cols[k][:]
        for col, uc in zip(cols, u):
            col[:] = [(new_det * v - g * uc) // det for v, g in zip(col, old_q)]
            col.append(uc)
        q = list(self.free)[k]
        del self.free[q]
        self.comb.append([-g for g in old_q] + [det])
        self.pivots.append(q)
        self.det = new_det
        self.rows += (y,)
        self.key = tuple(sorted(self.rows))

    def extend(self, rows: Iterable[int]) -> "_RowBasis":
        """Extend the basis by each of the rows that is independent of it, in order."""
        for y in rows:
            if self.circuit(y) is None:
                self.add(y)
        return self


def nullspace_basis(m: ExactMatrix) -> ExactMatrix:
    """Basis of {x : Mx = 0}, as an n_cols x (n_cols - rank) matrix.

    Columns are produced in increasing order of their free variable, each
    normalized to have a 1 in that coordinate, so the result is canonical.
    Each pivot of the echelon basis leads a vector of the row space, so the
    pivots are the reduced echelon form's, and its entries are the basis's
    over det with m's column scales undone: the vector of free column f is
    s_f det at f and -s_p free[f][t] at pivots[t] = p, over s_f det.
    """
    basis = _RowBasis(m._grid, m.n_cols).extend(range(1, m.n_rows + 1))
    scales = m._scales
    cols = []
    for f, entries in basis.free.items():
        scale = basis.det * scales[f]
        vec = [0] * m.n_cols
        vec[f] = scale
        for p, v in zip(basis.pivots, entries):
            vec[p] = -scales[p] * v
        cols.append(_reduced(vec, scale))
    return ExactMatrix._of(*_by_columns(cols, m.n_cols))


def sparse_dim(b: ExactMatrix, j: IndexSet) -> int:
    """dim of the intersection of colspan(B) with the sparse subspace of J.

    The sparse subspace of J is every vector whose entries outside J
    vanish; the dimension equals rank(B) minus the rank of B restricted
    to the rows outside J.
    """
    if j.universe != b.n_rows:
        raise ShapeError(f"index set over [{j.universe}] against {b.n_rows}-row matrix")
    return rank(b) - b._rank_of_rows(((1 << b.n_rows) - 1) ^ _mask(j))


def intersect_dim(a: ExactMatrix, b: ExactMatrix) -> int:
    """dim(colspan(A) & colspan(B)) = rank(A) + rank(B) - rank([A|B])."""
    if a.n_rows != b.n_rows:
        raise ShapeError(f"row count mismatch: {a.n_rows} vs {b.n_rows}")
    return rank(a) + rank(b) - rank(a.hstack(b))


def row_support(m: ExactMatrix) -> IndexSet:
    """Rows carrying at least one nonzero entry (1-based)."""
    return IndexSet.of(m.n_rows, (i + 1 for i, row in enumerate(m._grid) if any(row)))


def is_full_column_rank(m: ExactMatrix) -> bool:
    return rank(m) == m.n_cols
