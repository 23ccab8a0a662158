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
concatenation (`generic_rank`) is the rank of the union of the blocks'
row matroids, min over T of n - |T| + sum_i rank(B_i[T, :]), found by
Edmonds' matroid partition in time polynomial in n, K and the column
counts.  Its certificate (the partition and the set T) is checked with
exact rank before the value is returned.

Cost: C2 and C5 share one resumable J-scan (`_JScan`), which walks row
masks in lex order, stepped by `_lex_next`.  C2 scans each column choice's
2^n row masks only until some J reaches the tau asked, and resumes there
when a later call asks for a higher tau; a tau the ensemble does not reach
still scans the failing column choice to the end.  C3-C5 at tau scan the
row sets X of one size, R - tau + 1 (`_pairs_of_size`), each with every
|X|-column choice Ys, and stop at the first violation; a holding C5 goes
on to the sizes above for its holders.  C5 runs a J-scan over X's subsets
to slack 1 at each pair.  C3 and C4 share one search (`_partition_scan`)
that chooses the parts of an ordered partition of X block by block, tests
each against its block's rank table as it is chosen (C3 a subdeterminant
by a fresh `_bareiss` of the table's rows, C4 the part's rank) and never
extends a failing part.  No condition's verdict is read off another's.

C6 keeps each part's rows as one integer echelon basis
(`exactla._RowBasis`, the package's one reduced echelon routine), so the
partition's question about a row and a part (does the row fit, and if
not, which rows could it replace) costs one reduction of the row against
that basis: its fundamental circuit is the support of the combination
the reduction leaves.  A part that only gains a row extends its basis;
one that an augmenting path changed otherwise is rebuilt.

Every route reads each block's own cleared integer grid
(`ExactMatrix._grid`), and each matrix keeps its row-subset ranks
(`ExactMatrix._rank_of_rows`).  C2-C5 read one restriction of a block per
column choice Y_i, its rank table, which `_pairs_of_size` hands C3-C5 with
each (X, Ys): C2, C4 and C5 read its row-subset ranks and C3 its grid.
C6's certificate check reads the blocks' ranks.  C1 and C3 never read
that memo, so they stay independent of it.  The `Ensemble` keeps only
what a later call reads back, freed with it: the rank tables, the C2 scan
state and C1's sampled ranks.  The C3-C5 results per size and C6's
partition are computed where asked and not stored.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, TypeVar

from .errors import EquivalenceViolation, InternalInvariantError, PreconditionError, ShapeError
from .exactla import ExactMatrix, IndexSet, _bareiss, _mask, _RowBasis
from .matroid import Partition, matroid_partition
from .randrank import C1Verdict, TrialConfig, _check_tau, check_C1

T = TypeVar("T")


@dataclass(frozen=True)
class Ensemble:
    """Full-column-rank blocks B_1..B_K sharing a row count n."""

    blocks: tuple[ExactMatrix, ...]
    _memo: dict[Any, Any] = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.blocks, tuple) or not all(isinstance(b, ExactMatrix) for b in self.blocks):
            raise PreconditionError("blocks must be a tuple of ExactMatrix")  # a list would not hash
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
            if block._rank != block.n_cols:
                raise PreconditionError(f"block {i} is not full column rank")

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


@dataclass(frozen=True)
class Witness:
    """A concrete (Y, J, X, partition) tuple backing a verdict.

    For C2, slack is sum_i dim(S_J & colspan B_{i,*,Y_i}) - |J| - tau for
    the reported J, nonnegative exactly when the tuple certifies a holding
    existential.  A C5 counterexample's slack is the J-scan's best margin
    (at most 0; no tau is subtracted), and C5's holders carry none.
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

def _lex_next(mask: int, cap: int) -> int | None:
    """The subset of `cap` after `mask` in lexicographic order of member tuples; None after the last.

    Add cap's least element above mask's largest; failing that, drop mask's
    largest and move the next largest up to cap's next element.
    """
    high = mask.bit_length()
    above = cap >> high << high
    if above:
        return mask | above & -above
    mask ^= 1 << high >> 1
    if not mask:
        return None
    high = mask.bit_length()
    above = cap >> high << high
    return mask ^ 1 << high >> 1 | above & -above


def column_choices(ensemble: Ensemble, total: int) -> Iterator[tuple[IndexSet, ...]]:
    """All tuples (Y_1..Y_K), Y_i a subset of [m_i], with sum |Y_i| = total."""
    ms = ensemble.column_counts
    for sizes in itertools.product(*(range(m + 1) for m in ms)):
        if sum(sizes) != total:
            continue
        pools = [
            [IndexSet(m, combo) for combo in itertools.combinations(range(1, m + 1), size)]
            for m, size in zip(ms, sizes)
        ]
        yield from itertools.product(*pools)


# ---------------------------------------------------------------------------
# Rank tables: a block's chosen columns, which memoize their row-subset ranks
# ---------------------------------------------------------------------------

def _rank_tables(ensemble: Ensemble, ys: tuple[IndexSet, ...]) -> list[ExactMatrix]:
    """Each block's chosen columns, restricted once per (block, Y_i) and kept by the ensemble."""
    return [
        ensemble._memoized((_rank_tables, i, y.members), lambda: block.take_cols(y))
        for i, (block, y) in enumerate(zip(ensemble.blocks, ys))
    ]


# ---------------------------------------------------------------------------
# The J-scan (C2 and C5) and C2
# ---------------------------------------------------------------------------

class _JScan:
    """The lexicographic scan of the row sets J inside `cap` for one column choice, resumable.

    A J's slack is sum_i sparse_dim_i(J | base) - |J| over the rank tables
    of ys, for a base row set disjoint from cap.  first_at maps each slack
    level reached so far to the lex-first J mask reaching it and that
    mask's own slack; next_mask is None once every J has been scanned, and
    best/argmax are then the maximum slack and its lex-first J.
    """

    def __init__(self, ys: tuple[IndexSet, ...], cap: int, base: int = 0):
        self.ys, self.cap, self.base = ys, cap, base
        self.next_mask: int | None = 0
        self.best, self.argmax = -1, 0
        self.first_at: dict[int, tuple[int, int]] = {}

    def advance(self, tables: list[ExactMatrix], level: int) -> None:
        """Scan on until some J reaches slack `level` or the masks run out."""
        jmask, best, cap = self.next_mask, self.best, self.cap
        # sparse_dim_i(J | base) = rank_i - rank_i(rows outside J and base), and those rows are free ^ J.
        ranks, full = [t._rank_of_rows for t in tables], sum(t._rank for t in tables)
        free = ((1 << tables[0].n_rows) - 1) & ~self.base
        while jmask is not None and best < level:
            outside = free ^ jmask
            slack = full - sum([rank(outside) for rank in ranks]) - jmask.bit_count()
            if slack > best:
                for reached in range(best + 1, slack + 1):
                    self.first_at[reached] = (jmask, slack)
                best, self.argmax = slack, jmask
            jmask = _lex_next(jmask, cap)
        self.next_mask, self.best = jmask, best


def _c2_scans(ensemble: Ensemble) -> tuple[_JScan, ...]:
    """One J-scan per R-column choice, kept by the ensemble because later taus resume it."""
    rows = (1 << ensemble.n) - 1
    return ensemble._memoized(
        _c2_scans, lambda: tuple(_JScan(ys, rows) for ys in column_choices(ensemble, ensemble.R))
    )


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
            scan.advance(_rank_tables(ensemble, scan.ys), tau)
        if tau not in scan.first_at:
            j = IndexSet.from_mask(n, scan.argmax)
            w = Witness(kind="C2-counterexample", Y=scan.ys, J=j, slack=scan.best - tau)
            return CheckResult("C2", False, (w,))
        jmask, slack = scan.first_at[tau]
        witnesses.append(Witness(kind="C2-witness", Y=scan.ys, J=IndexSet.from_mask(n, jmask), slack=slack - tau))
    return CheckResult("C2", True, tuple(witnesses))


# ---------------------------------------------------------------------------
# C6: the union of the blocks' row matroids
# ---------------------------------------------------------------------------

def _row_circuits(ensemble: Ensemble) -> Callable[[int, tuple[int, ...], int], list[int] | None]:
    """C6's circuit oracle: one `_RowBasis` per part, each row reduced once per query.

    A part that gained one row since the last query extends its basis;
    any other change (an augmenting path moved rows out) rebuilds it.
    """
    grids, widths = [block._grid for block in ensemble.blocks], ensemble.column_counts
    bases = [_RowBasis(grid, width) for grid, width in zip(grids, widths)]

    def circuit(i: int, part: tuple[int, ...], y: int) -> list[int] | None:
        basis = bases[i]
        if basis.key != part:
            added = set(part).difference(basis.rows)
            if len(added) != 1 or len(part) != len(basis.rows) + 1:
                basis = bases[i] = _RowBasis(grids[i], widths[i])
                added = part
            for row in sorted(added):
                basis.add(row)
        return basis.circuit(y)

    return circuit


def _row_union(ensemble: Ensemble) -> Partition:
    """A maximum partition of the rows into sets I_i independent in B_i, checked.

    Its size is the generic rank of the scaled concatenation.  Before it is
    returned the certificate is re-checked with exact rank alone: the rows
    I_i of each B_i are independent, and sum |I_i| = n - |T| + sum_i
    rank(B_i[T, :]), which bounds every partition from above.
    """
    cert = matroid_partition(range(1, ensemble.n + 1), ensemble.K, _row_circuits(ensemble))
    if any(block._rank_of_rows(_mask(part)) != len(part) for block, part in zip(ensemble.blocks, cert.parts)):
        raise InternalInvariantError("C6: a part of the row partition is dependent")
    bound = ensemble.n - len(cert.T) + sum(block._rank_of_rows(_mask(cert.T)) for block in ensemble.blocks)
    if cert.size != bound:
        raise InternalInvariantError(f"C6: partition of {cert.size} rows, but T bounds it by {bound}")
    return cert


def generic_rank(ensemble: Ensemble) -> int:
    """Almost-sure rank of the row-scaled concatenation, exact, from C6's checked partition."""
    return _row_union(ensemble).size


def max_tau(ensemble: Ensemble) -> int:
    """Largest tau such that the ensemble almost surely loses rank by tau.

    tau = 0 holds vacuously; the value equals R minus the generic rank of
    the scaled concatenation, which C6 computes in polynomial time.
    """
    return ensemble.R - generic_rank(ensemble)


# ---------------------------------------------------------------------------
# C3, C4, C5: the quantified-over-X conditions
# ---------------------------------------------------------------------------

def _pairs_of_size(
    ensemble: Ensemble, size: int
) -> Iterator[tuple[IndexSet, int, tuple[IndexSet, ...], list[ExactMatrix]]]:
    """The (X, X's mask, Ys, Ys' rank tables) of one size |X| in the canonical scan order.

    X runs over the size-row sets in lex member order and Ys over the
    size-column choices; each pair's tables are looked up as it is reached,
    so a scan that stops early builds none past its stop.  C3-C5 at tau
    quantify over |X| > R - tau, but scan only size R - tau + 1: violating
    X are the independent sets of the blocks' row matroids' union, so a
    larger size holds one only if that size does, and that size's lex-first
    X is a prefix of, and precedes, the next's.
    """
    n = ensemble.n
    for members in itertools.combinations(range(1, n + 1), size):
        x, xmask = IndexSet(n, members), _mask(members)
        for ys in column_choices(ensemble, size):
            yield x, xmask, ys, _rank_tables(ensemble, ys)


def _partition_scan(ensemble: Ensemble, tau: int, condition: str, passes: Callable) -> CheckResult:
    """C3 or C4 at tau: fails at the first (X, Ys) and partition of X whose every part passes.

    Part i has |Y_i| rows and passes(table_i, part) tests it against block
    i's rank table.  It runs over the combinations of the rows the earlier
    parts leave, and a failing part is not extended: no passing partition
    lies under it, so the first one found is the lex-first.
    """
    _check_tau(ensemble, tau)

    def first(rest: tuple[int, ...], i: int) -> tuple | None:  # reads the pair's tables
        if i == len(tables):
            return ()
        for part in itertools.combinations(rest, tables[i].n_cols):
            if passes(tables[i], part) and (tail := first(tuple(v for v in rest if v not in part), i + 1)) is not None:
                return (part,) + tail
        return None

    for x, _, ys, tables in _pairs_of_size(ensemble, ensemble.R - tau + 1):
        parts = first(x.members, 0)
        if parts is not None:
            partition = tuple(IndexSet(ensemble.n, p) for p in parts)
            hit = Witness(f"{condition}-violation", ys, X=x, partition=partition)
            return CheckResult(condition, False, (hit,))
    return CheckResult(condition, True)


def check_C3(ensemble: Ensemble, tau: int) -> CheckResult:
    """Do all oversized square selections have vanishing subdeterminant products?"""
    # A part passes when B_i[part, Y_i] is nonsingular; Bareiss eliminates in place, so it gets copied rows.
    return _partition_scan(
        ensemble, tau, "C3", lambda t, part: _bareiss([t._grid[v - 1][:] for v in part], t.n_cols) == t.n_cols
    )


def check_C4(ensemble: Ensemble, tau: int) -> CheckResult:
    """Sparse-subspace form: every partition leaves some block a sparse dimension."""
    # The rows outside a part keep rank_i less the part's rank as sparse dimension, so a full-rank part passes.
    return _partition_scan(ensemble, tau, "C4", lambda t, part: t._rank_of_rows(_mask(part)) == t._rank)


def _c5_at(ensemble: Ensemble, size: int) -> CheckResult:
    """C5 over the X of one size: fails at the first (X, Ys) without a holder, else lists every holder.

    For each (X, Ys), a J-scan with cap X and base X's complement runs to
    level 1: the lex-first J inside X whose sparse dims over J and X's
    complement exceed |J| is the pair's holder.  A pair without one is a
    violation, reported with the lex-first J of largest margin.
    """
    n = ensemble.n
    full = (1 << n) - 1
    holders: list[Witness] = []
    for x, xmask, ys, tables in _pairs_of_size(ensemble, size):
        scan = _JScan(ys, xmask, ~xmask & full)
        scan.advance(tables, 1)
        if 1 not in scan.first_at:
            hit = Witness(kind="C5-counterexample", Y=ys, X=x, J=IndexSet.from_mask(n, scan.argmax), slack=scan.best)
            return CheckResult("C5", False, (hit,))
        holders.append(Witness(kind="C5-witness", Y=ys, X=x, J=IndexSet.from_mask(n, scan.first_at[1][0])))
    return CheckResult("C5", True, tuple(holders))


def check_C5(ensemble: Ensemble, tau: int) -> CheckResult:
    """For every X and column choice, some J inside X overshoots |J| sparse dims.

    The sizes R - tau + 1..R are scanned in turn and the first failing one
    is the verdict; if all hold, their holders are listed by X's members.
    """
    _check_tau(ensemble, tau)
    holders: list[Witness] = []
    for size in range(ensemble.R - tau + 1, ensemble.R + 1):
        result = _c5_at(ensemble, size)
        if not result.holds:
            return result
        holders += result.witnesses
    return CheckResult("C5", True, tuple(sorted(holders, key=lambda w: w.X.members)))


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
