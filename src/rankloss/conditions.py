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
enumeration so reported witnesses are deterministic.  Cost grows as 2^n
times the number of column choices; comfortable through n around 14 for
C2 and n around 10 for the X-quantified conditions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator, Sequence

from .errors import EquivalenceViolation, PreconditionError, ShapeError
from .exactla import ExactMatrix, IndexSet, _bareiss, _integer_rows, det, is_full_column_rank
from .randrank import C1Verdict, TrialConfig, check_C1


@dataclass(frozen=True)
class Ensemble:
    """Full-column-rank blocks B_1..B_K sharing a row count n."""

    blocks: tuple[ExactMatrix, ...]

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
            if not is_full_column_rank(block):
                raise PreconditionError(f"block {i} is not full column rank")

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
    """Memoized rank of one block's chosen columns over arbitrary row subsets."""

    def __init__(self, grid: list[list[int]], cols: IndexSet):
        self._rows = [[row[c - 1] for c in cols] for row in grid]
        self._n_cols = len(cols)
        self._all = (1 << len(grid)) - 1
        self._memo: dict[int, int] = {}
        self.full_rank = self.rank_of_rows(self._all)

    def rank_of_rows(self, rowmask: int) -> int:
        cached = self._memo.get(rowmask)
        if cached is not None:
            return cached
        rows = [row[:] for i, row in enumerate(self._rows) if rowmask >> i & 1]
        value = _bareiss(rows, self._n_cols)[0]
        self._memo[rowmask] = value
        return value

    def sparse_dim(self, jmask: int) -> int:
        # dim(S_J & colspan) = rank - rank(rows outside J)
        return self.full_rank - self.rank_of_rows(~jmask & self._all)


class _RankTableSet:
    """The rank tables of one scan: each block cleared once, one table per (block, Y_i).

    Built at the start of a scan and dropped with it, so memory stays
    bounded by the scan's own column choices.
    """

    def __init__(self, ensemble: Ensemble):
        self._grids = [_integer_rows(block)[0] for block in ensemble.blocks]
        self._memo: dict[tuple[int, tuple[int, ...]], _RankTable] = {}

    def of(self, ys: tuple[IndexSet, ...]) -> list[_RankTable]:
        out = []
        for i, y in enumerate(ys):
            table = self._memo.get((i, y.members))
            if table is None:
                table = self._memo[i, y.members] = _RankTable(self._grids[i], y)
            out.append(table)
        return out


# ---------------------------------------------------------------------------
# C2 and the maximum almost-sure rank loss
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _YProfile:
    ys: tuple[IndexSet, ...]
    max_slack: int
    argmax_mask: int
    # slack level -> (lex-first J mask reaching that level, its actual slack)
    first_at: dict[int, tuple[int, int]] = field(hash=False)


@lru_cache(maxsize=None)
def _c2_profiles(ensemble: Ensemble) -> tuple[_YProfile, ...]:
    n = ensemble.n
    table_set = _RankTableSet(ensemble)
    profiles = []
    for ys in column_choices(ensemble, ensemble.R):
        tables = table_set.of(ys)
        best, argmax = -1, 0
        first_at: dict[int, tuple[int, int]] = {}
        for jmask in lex_subset_masks(n):
            slack = sum(t.sparse_dim(jmask) for t in tables) - jmask.bit_count()
            if slack > best:
                for level in range(best + 1, slack + 1):
                    first_at[level] = (jmask, slack)
                best, argmax = slack, jmask
        profiles.append(_YProfile(ys, best, argmax, first_at))
    return tuple(profiles)


def _check_tau(ensemble: Ensemble, tau: int) -> None:
    if not 1 <= tau <= ensemble.R:
        raise PreconditionError(f"tau must be in [1, {ensemble.R}], got {tau}")


def check_C2(ensemble: Ensemble, tau: int) -> CheckResult:
    """For every R-column choice, does some J capture |J| + tau sparse dimensions?"""
    _check_tau(ensemble, tau)
    n = ensemble.n
    witnesses = []
    for profile in _c2_profiles(ensemble):
        if profile.max_slack < tau:
            return CheckResult("C2", False, (_c2_counterexample(profile, n, tau),))
        jmask, slack = profile.first_at[tau]
        witnesses.append(
            Witness(
                kind="C2-witness",
                Y=profile.ys,
                J=IndexSet.from_mask(n, jmask),
                slack=slack - tau,
            )
        )
    return CheckResult("C2", True, tuple(witnesses))


def _c2_counterexample(profile: _YProfile, n: int, tau: int) -> Witness:
    return Witness(
        kind="C2-counterexample",
        Y=profile.ys,
        J=IndexSet.from_mask(n, profile.argmax_mask),
        slack=profile.max_slack - tau,
    )


def max_tau(ensemble: Ensemble) -> int:
    """Largest tau such that the ensemble almost surely loses rank by tau.

    tau = 0 holds vacuously; the value equals R minus the generic rank of
    the scaled concatenation.
    """
    return min(profile.max_slack for profile in _c2_profiles(ensemble))


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


@lru_cache(maxsize=None)
def _c3_scan(ensemble: Ensemble) -> dict[int, _Violation]:
    """First determinant-product violation per |X|, over the full canonical scan."""
    n = ensemble.n
    per_size: dict[int, _Violation] = {}
    order = 0
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
                    det(block.submatrix(IndexSet(n, part), y)) != 0
                    for block, part, y in zip(ensemble.blocks, parts, ys)
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


@lru_cache(maxsize=None)
def _c4_scan(ensemble: Ensemble) -> dict[int, _Violation]:
    n = ensemble.n
    per_size: dict[int, _Violation] = {}
    order = 0
    table_set = _RankTableSet(ensemble)
    for xmask in lex_subset_masks(n):
        size = xmask.bit_count()
        if size == 0 or size in per_size:
            continue
        x = IndexSet.from_mask(n, xmask)
        for ys in column_choices(ensemble, size):
            tables = table_set.of(ys)
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


@lru_cache(maxsize=None)
def _c5_scan(ensemble: Ensemble) -> _C5Scan:
    n = ensemble.n
    per_size: dict[int, _Violation] = {}
    holders: list[Witness] = []
    order = 0
    table_set = _RankTableSet(ensemble)
    for xmask in lex_subset_masks(n):
        size = xmask.bit_count()
        if size == 0:
            continue
        x = IndexSet.from_mask(n, xmask)
        xc_mask = ~xmask & (1 << n) - 1
        for ys in column_choices(ensemble, size):
            order += 1
            tables = table_set.of(ys)
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
                if size not in per_size:
                    holders.append(
                        Witness(kind="C5-witness", Y=ys, X=x, J=IndexSet.from_mask(n, found))
                    )
            elif size not in per_size:
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
