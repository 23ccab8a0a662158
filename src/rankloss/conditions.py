"""The combinatorial rank-loss certifier.

Four exact conditions, each equivalent to the ensemble matrix losing rank
by tau almost surely:

  C2  for every choice of R columns across the blocks there is a row set
      J whose sparse subspace captures at least |J| + tau column-span
      dimensions in total;
  C3  every oversized square selection has a vanishing product of block
      subdeterminants;
  C4  the sparse-subspace restatement of C3 over ordered partitions;
  C5  the matroid-union form quantified over row sets X.

`cross_validate` runs all four plus the sampled C1 oracle and insists the
verdicts agree.  All searches are exhaustive with canonical (lexicographic)
enumeration so reported witnesses are deterministic.

`max_tau` comes from a sixth route, C6: the generic rank of the scaled
concatenation is the rank of the union of the blocks' row matroids,
min over T of n - |T| + sum_i rank(B_i[T, :]), found by Edmonds' matroid
partition in time polynomial in n, K and the column counts.  Its
certificate (the partition and the set T) is checked with exact rank
before the value is returned.

Cost: C2 scans each column choice's 2^n row masks only until some J
reaches the tau asked, and resumes there when a later call asks for a
higher tau; a tau the ensemble does not reach still scans the failing
column choice to the end.  C3-C5 grow as 2^n times the number of column
choices; they stop scanning a size |X| at its first violation, and every
size up to the generic rank holds one, so they scan in full only the
sizes above the generic rank.

The `Ensemble` owns everything derived from its blocks: one cleared
integer grid per block, read by every route, and a memo of the rank
tables (one per block and column choice Y_i, shared by C2, C4 and C5),
the C2 scan state, the C3-C6 results and C1's sampled ranks, freed with
the object.  C1, C3 and C6 stay independent of the rank tables.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, wraps
from typing import Any, Callable, Iterator, Sequence, TypeVar

from .errors import EquivalenceViolation, InternalInvariantError, PreconditionError, ShapeError
from .exactla import ExactMatrix, IndexSet, _bareiss, _integer_columns
from .matroid import Partition, matroid_partition
from .randrank import C1Verdict, TrialConfig, _check_tau, check_C1

T = TypeVar("T")


@dataclass(frozen=True)
class Ensemble:
    """Full-column-rank blocks B_1..B_K sharing a row count n."""

    blocks: tuple[ExactMatrix, ...]
    _memo: dict[Any, Any] = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.blocks:
            raise PreconditionError("ensemble needs at least one block")
        n = self.blocks[0].n_rows
        if n < 1:
            raise PreconditionError("blocks must have at least one row")
        for i, block in enumerate(self.blocks, start=1):
            if block.n_rows != n:
                raise ShapeError(f"block {i} has {block.n_rows} rows, expected {n}")
            if block.n_cols < 1:
                raise PreconditionError(f"block {i} has no columns")
            if _bareiss([row[:] for row in self._grids[i - 1]], block.n_cols) != block.n_cols:
                raise PreconditionError(f"block {i} is not full column rank")

    @cached_property
    def _grids(self) -> tuple[list[list[int]], ...]:
        """Each block with its column denominators cleared; copy rows before eliminating.

        Column scaling keeps every rank and minor singularity the routes read.
        """
        return tuple(_integer_columns(block) for block in self.blocks)

    def _memoized(self, key: Any, build: Callable[[], T]) -> T:
        """build(), computed once per key and kept as long as this ensemble is."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    @classmethod
    def of(cls, *blocks) -> "Ensemble":
        return cls(tuple(b if isinstance(b, ExactMatrix) else ExactMatrix.from_rows(b) for b in blocks))

    @property
    def n(self) -> int:
        return self.blocks[0].n_rows

    @property
    def K(self) -> int:
        return len(self.blocks)

    @property
    def column_counts(self) -> tuple[int, ...]:
        return tuple(b.n_cols for b in self.blocks)

    @property
    def R(self) -> int:
        """Maximum possible rank of the scaled concatenation: min(sum m_i, n)."""
        return min(sum(self.column_counts), self.n)


def _per_ensemble(build: Callable[[Ensemble], T]) -> Callable[[Ensemble], T]:
    """Memoize build(ensemble) on the ensemble itself."""

    @wraps(build)
    def memoized(ensemble: Ensemble) -> T:
        return ensemble._memoized(build, lambda: build(ensemble))

    return memoized


@dataclass(frozen=True)
class Witness:
    """A concrete (Y, J, X, partition) tuple backing a verdict.

    slack is sum_i dim(S_J & colspan B_{i,*,Y_i}) - |J| - tau for the
    reported J; nonnegative exactly when the tuple certifies a holding
    existential.
    """

    kind: str
    Y: tuple[IndexSet, ...]
    J: IndexSet | None = None
    X: IndexSet | None = None
    partition: tuple[IndexSet, ...] | None = None
    slack: int | None = None

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "Y": [list(y) for y in self.Y],
            "J": list(self.J) if self.J is not None else None,
            "X": list(self.X) if self.X is not None else None,
            "partition": [list(p) for p in self.partition] if self.partition is not None else None,
            "slack": self.slack,
        }


@dataclass(frozen=True)
class CheckResult:
    condition: str
    holds: bool
    witnesses: tuple[Witness, ...] = ()

    def to_dict(self) -> dict:
        return {
            "condition": self.condition,
            "holds": self.holds,
            "witnesses": [w.to_dict() for w in self.witnesses],
        }


# ---------------------------------------------------------------------------
# Canonical enumeration
# ---------------------------------------------------------------------------

def lex_subset_masks(universe: int, cap: int | None = None) -> Iterator[int]:
    """Bitmasks of all subsets of [universe] in lexicographic member order.

    With `cap` given, only elements of the mask `cap` participate, so the
    iteration runs over subsets of that set (still in lexicographic order
    of member tuples: (), (1), (1,2), ..., (2), ...).
    """
    elems = [v for v in range(1, universe + 1) if cap is None or cap >> (v - 1) & 1]

    def rec(mask: int, start: int) -> Iterator[int]:
        yield mask
        for idx in range(start, len(elems)):
            yield from rec(mask | 1 << (elems[idx] - 1), idx + 1)

    return rec(0, 0)


def _compositions(bounds: Sequence[int], total: int) -> Iterator[tuple[int, ...]]:
    # Weak compositions of `total` bounded above by `bounds`, lexicographic.
    if total < 0 or total > sum(bounds):
        return
    if len(bounds) == 1:
        if total <= bounds[0]:
            yield (total,)
        return
    for first in range(0, min(bounds[0], total) + 1):
        for rest in _compositions(bounds[1:], total - first):
            yield (first,) + rest


def column_choices(ensemble: Ensemble, total: int) -> Iterator[tuple[IndexSet, ...]]:
    """All tuples (Y_1..Y_K), Y_i a subset of [m_i], with sum |Y_i| = total."""
    ms = ensemble.column_counts
    for sizes in _compositions(ms, total):
        pools = [
            [IndexSet(m, combo) for combo in itertools.combinations(range(1, m + 1), size)]
            for m, size in zip(ms, sizes)
        ]
        yield from itertools.product(*pools)


def _ordered_partitions(members: tuple[int, ...], sizes: Sequence[int]) -> Iterator[tuple[tuple[int, ...], ...]]:
    # Ordered partitions of `members` into parts of the given sizes.
    if not sizes:
        if not members:
            yield ()
        return
    for part in itertools.combinations(members, sizes[0]):
        rest = tuple(v for v in members if v not in part)
        for tail in _ordered_partitions(rest, sizes[1:]):
            yield (part,) + tail


# ---------------------------------------------------------------------------
# Rank tables: rank of a block's chosen columns restricted to a row subset
# ---------------------------------------------------------------------------

class _RankTable:
    """Memoized rank of one block's chosen columns over arbitrary row subsets.

    The block is full column rank, so its chosen columns are too: over all
    rows the rank is the column count.
    """

    def __init__(self, grid: list[list[int]], cols: IndexSet):
        self._rows = [[row[c - 1] for c in cols] for row in grid]
        self._n_cols = self.full_rank = len(cols)
        self._all = (1 << len(grid)) - 1
        self._memo: dict[int, int] = {self._all: self.full_rank}

    def rank_of_rows(self, rowmask: int) -> int:
        cached = self._memo.get(rowmask)
        if cached is not None:
            return cached
        rows = [row[:] for i, row in enumerate(self._rows) if rowmask >> i & 1]
        value = _bareiss(rows, self._n_cols)
        self._memo[rowmask] = value
        return value

    def sparse_dim(self, jmask: int) -> int:
        # dim(S_J & colspan) = rank - rank(rows outside J)
        return self.full_rank - self.rank_of_rows(~jmask & self._all)


def _rank_tables(ensemble: Ensemble, ys: tuple[IndexSet, ...]) -> list[_RankTable]:
    """The ensemble's rank table of each block's chosen columns, built once per (block, Y_i)."""
    return [
        ensemble._memoized((_RankTable, i, y.members), lambda: _RankTable(grid, y))
        for i, (grid, y) in enumerate(zip(ensemble._grids, ys))
    ]


# ---------------------------------------------------------------------------
# C2 and the maximum almost-sure rank loss
# ---------------------------------------------------------------------------

class _C2Scan:
    """The lexicographic J scan of one R-column choice, resumable.

    first_at maps each slack level reached so far to the lex-first J mask
    reaching it and that mask's own slack; next_mask is None once every
    mask has been scanned, and best/argmax are then the maximum slack and
    its lex-first J.
    """

    def __init__(self, ys: tuple[IndexSet, ...]):
        self.ys = ys
        self.next_mask: int | None = 0
        self.best = -1
        self.argmax = 0
        self.first_at: dict[int, tuple[int, int]] = {}

    def advance(self, tables: list[_RankTable], n: int, tau: int) -> None:
        """Scan on until some J reaches slack tau or the masks run out."""
        jmask, best = self.next_mask, self.best
        top = 1 << (n - 1)
        while jmask is not None and best < tau:
            slack = sum(t.sparse_dim(jmask) for t in tables) - jmask.bit_count()
            if slack > best:
                for level in range(best + 1, slack + 1):
                    self.first_at[level] = (jmask, slack)
                best, self.argmax = slack, jmask
            jmask = _lex_successor(jmask, top)
        self.next_mask, self.best = jmask, best


def _lex_successor(mask: int, top: int) -> int | None:
    # The mask after `mask` in lex_subset_masks order; top is the bit of element n.
    if mask & top == 0:
        return mask | 1 << mask.bit_length()
    mask ^= top
    if mask == 0:
        return None
    high = 1 << (mask.bit_length() - 1)
    return mask ^ high | high << 1


@_per_ensemble
def _c2_scans(ensemble: Ensemble) -> tuple[_C2Scan, ...]:
    return tuple(_C2Scan(ys) for ys in column_choices(ensemble, ensemble.R))


def check_C2(ensemble: Ensemble, tau: int) -> CheckResult:
    """For every R-column choice, does some J capture |J| + tau sparse dimensions?

    Each column choice's J scan runs only until it reaches tau and resumes
    there when a later call asks for more, so a choice is scanned at most
    once in total over any sequence of calls.
    """
    _check_tau(ensemble, tau)
    n = ensemble.n
    witnesses = []
    for scan in _c2_scans(ensemble):
        if tau not in scan.first_at and scan.next_mask is not None:
            scan.advance(_rank_tables(ensemble, scan.ys), n, tau)
        if tau not in scan.first_at:
            return CheckResult(
                "C2",
                False,
                (
                    Witness(
                        kind="C2-counterexample",
                        Y=scan.ys,
                        J=IndexSet.from_mask(n, scan.argmax),
                        slack=scan.best - tau,
                    ),
                ),
            )
        jmask, slack = scan.first_at[tau]
        witnesses.append(
            Witness(
                kind="C2-witness",
                Y=scan.ys,
                J=IndexSet.from_mask(n, jmask),
                slack=slack - tau,
            )
        )
    return CheckResult("C2", True, tuple(witnesses))


# ---------------------------------------------------------------------------
# C6: the union of the blocks' row matroids
# ---------------------------------------------------------------------------

@_per_ensemble
def _row_union(ensemble: Ensemble) -> Partition:
    """A maximum partition of the rows into sets I_i independent in B_i, checked.

    Its size is the generic rank of the scaled concatenation.  Before it is
    returned the certificate is re-checked with exact rank alone: the rows
    I_i of each B_i are independent, and sum |I_i| = n - |T| + sum_i
    rank(B_i[T, :]), which bounds every partition from above.
    """
    grids = ensemble._grids
    widths = ensemble.column_counts

    def row_rank(i: int, rows: Sequence[int]) -> int:
        return _bareiss([grids[i][r - 1][:] for r in rows], widths[i])

    cert = matroid_partition(
        range(1, ensemble.n + 1), ensemble.K, lambda i, rows: row_rank(i, rows) == len(rows)
    )
    if any(row_rank(i, part) != len(part) for i, part in enumerate(cert.parts)):
        raise InternalInvariantError("C6: a part of the row partition is dependent")
    bound = ensemble.n - len(cert.T) + sum(row_rank(i, cert.T) for i in range(ensemble.K))
    if cert.size != bound:
        raise InternalInvariantError(f"C6: partition of {cert.size} rows, but T bounds it by {bound}")
    return cert


def max_tau(ensemble: Ensemble) -> int:
    """Largest tau such that the ensemble almost surely loses rank by tau.

    tau = 0 holds vacuously; the value equals R minus the generic rank of
    the scaled concatenation, which C6 computes in polynomial time.
    """
    return ensemble.R - _row_union(ensemble).size


# ---------------------------------------------------------------------------
# C3, C4, C5: the quantified-over-X conditions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Violation:
    order: int  # position in the canonical scan, for first-found reporting
    witness: Witness


def _first_violation(per_size: dict[int, _Violation], min_size_exclusive: int) -> Witness | None:
    hits = [v for size, v in per_size.items() if size > min_size_exclusive]
    if not hits:
        return None
    return min(hits, key=lambda v: v.order).witness


@_per_ensemble
def _c3_scan(ensemble: Ensemble) -> dict[int, _Violation]:
    """First determinant-product violation per |X|, over the full canonical scan."""
    n = ensemble.n
    per_size: dict[int, _Violation] = {}
    order = 0
    grids = ensemble._grids
    for xmask in lex_subset_masks(n):
        size = xmask.bit_count()
        if size == 0 or size in per_size:
            continue
        x = IndexSet.from_mask(n, xmask)
        for ys in column_choices(ensemble, size):
            sizes = tuple(len(y) for y in ys)
            for parts in _ordered_partitions(x.members, sizes):
                order += 1
                if all(
                    _bareiss([[grid[v - 1][c - 1] for c in y] for v in part], len(y)) == len(y)
                    for grid, part, y in zip(grids, parts, ys)
                    if len(y) > 0
                ):
                    per_size[size] = _Violation(
                        order,
                        Witness(
                            kind="C3-violation",
                            Y=ys,
                            X=x,
                            partition=tuple(IndexSet(n, p) for p in parts),
                        ),
                    )
                    break
            if size in per_size:
                break
    return per_size


def check_C3(ensemble: Ensemble, tau: int) -> CheckResult:
    """Do all oversized square selections have vanishing subdeterminant products?"""
    _check_tau(ensemble, tau)
    witness = _first_violation(_c3_scan(ensemble), ensemble.R - tau)
    if witness is None:
        return CheckResult("C3", True)
    return CheckResult("C3", False, (witness,))


@_per_ensemble
def _c4_scan(ensemble: Ensemble) -> dict[int, _Violation]:
    n = ensemble.n
    per_size: dict[int, _Violation] = {}
    order = 0
    for xmask in lex_subset_masks(n):
        size = xmask.bit_count()
        if size == 0 or size in per_size:
            continue
        x = IndexSet.from_mask(n, xmask)
        for ys in column_choices(ensemble, size):
            tables = _rank_tables(ensemble, ys)
            sizes = tuple(len(y) for y in ys)
            for parts in _ordered_partitions(x.members, sizes):
                order += 1
                total = sum(
                    t.sparse_dim(~sum(1 << (v - 1) for v in part) & (1 << n) - 1)
                    for t, part in zip(tables, parts)
                )
                if total == 0:
                    per_size[size] = _Violation(
                        order,
                        Witness(
                            kind="C4-violation",
                            Y=ys,
                            X=x,
                            partition=tuple(IndexSet(n, p) for p in parts),
                        ),
                    )
                    break
            if size in per_size:
                break
    return per_size


def check_C4(ensemble: Ensemble, tau: int) -> CheckResult:
    """Sparse-subspace form: every partition leaves some block a sparse dimension."""
    _check_tau(ensemble, tau)
    witness = _first_violation(_c4_scan(ensemble), ensemble.R - tau)
    if witness is None:
        return CheckResult("C4", True)
    return CheckResult("C4", False, (witness,))


@dataclass(frozen=True)
class _C5Scan:
    violations: dict[int, _Violation] = field(hash=False)
    holders: tuple[Witness, ...] = ()


@_per_ensemble
def _c5_scan(ensemble: Ensemble) -> _C5Scan:
    n = ensemble.n
    per_size: dict[int, _Violation] = {}
    holders: list[Witness] = []
    order = 0
    for xmask in lex_subset_masks(n):
        size = xmask.bit_count()
        if size == 0 or size in per_size:
            continue
        x = IndexSet.from_mask(n, xmask)
        xc_mask = ~xmask & (1 << n) - 1
        for ys in column_choices(ensemble, size):
            order += 1
            tables = _rank_tables(ensemble, ys)
            found = None
            best, best_mask = None, 0
            for jmask in lex_subset_masks(n, cap=xmask):
                margin = sum(t.sparse_dim(jmask | xc_mask) for t in tables) - jmask.bit_count()
                if best is None or margin > best:
                    best, best_mask = margin, jmask
                if margin > 0:
                    found = jmask
                    break
            if found is not None:
                holders.append(
                    Witness(kind="C5-witness", Y=ys, X=x, J=IndexSet.from_mask(n, found))
                )
            else:
                per_size[size] = _Violation(
                    order,
                    Witness(
                        kind="C5-counterexample",
                        Y=ys,
                        X=x,
                        J=IndexSet.from_mask(n, best_mask),
                        slack=best,
                    ),
                )
                break
    return _C5Scan(per_size, tuple(holders))


def check_C5(ensemble: Ensemble, tau: int) -> CheckResult:
    """For every X and column choice, some J inside X overshoots |J| sparse dims."""
    _check_tau(ensemble, tau)
    scan = _c5_scan(ensemble)
    witness = _first_violation(scan.violations, ensemble.R - tau)
    if witness is None:
        threshold = ensemble.R - tau
        return CheckResult(
            "C5", True, tuple(w for w in scan.holders if len(w.X) > threshold)
        )
    return CheckResult("C5", False, (witness,))


# ---------------------------------------------------------------------------
# Cross-validation of all five conditions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EquivalenceReport:
    tau: int
    c1: C1Verdict
    results: tuple[CheckResult, ...]

    @property
    def verdicts(self) -> dict[str, bool]:
        out = {"C1": self.c1.holds}
        out.update({r.condition: r.holds for r in self.results})
        return out

    @property
    def agreement(self) -> bool:
        return len(set(self.verdicts.values())) == 1

    def to_dict(self) -> dict:
        return {
            "tau": self.tau,
            "verdicts": self.verdicts,
            "agreement": self.agreement,
            "c1": {
                "label": self.c1.label,
                "sampled_ranks": list(self.c1.sampled_ranks),
                "failure_probability_bound": str(self.c1.bound),
            },
            "results": [r.to_dict() for r in self.results],
        }


def cross_validate(ensemble: Ensemble, tau: int, cfg: TrialConfig | None = None) -> EquivalenceReport:
    """Run C1 through C5 at the given tau and assert all verdicts coincide.

    Raises EquivalenceViolation (carrying the full report) if they do not;
    a disagreement would falsify the certified equivalence and is a bug
    signal, never an expected outcome.
    """
    _check_tau(ensemble, tau)
    report = EquivalenceReport(
        tau=tau,
        c1=check_C1(ensemble, tau, cfg),
        results=(
            check_C2(ensemble, tau),
            check_C3(ensemble, tau),
            check_C4(ensemble, tau),
            check_C5(ensemble, tau),
        ),
    )
    if not report.agreement:
        raise EquivalenceViolation(
            f"conditions disagree at tau={tau}: {report.verdicts}", report=report
        )
    return report
