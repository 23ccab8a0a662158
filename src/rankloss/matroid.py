"""Rank-oracle matroids: the scaled-row linear matroid, duals, and union rank.

A matroid here is a ground set plus a rank evaluator; duals and union
rank compose oracles without enumerating independent sets.  Union ranks come
from Edmonds' matroid partition, the one routine C6 also runs on the
blocks' row matroids.  It asks a circuit oracle, once per element and
part it searches, for the element's fundamental circuit in the part,
which holds every exchange the element can make there: `union_rank`
builds that oracle from independence queries, and C6 reads circuits off
one integer echelon basis per part.  The scaled-linear matroid on a row
set X ranks J as |J| - dim(S_{J u X^c} & colspan R), R = B_{*,Y}, which is
|J| - rank(R) + rank(R[X \\ J]): one row-mask rank that R keeps, so it is
the dual of R[X]'s row matroid.  It is defined only when rank(R[X]) =
rank(R), that is when colspan R meets the sparse subspace of X^c trivially.
"""

from __future__ import annotations

import itertools
from bisect import insort
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .errors import CapacityError, InternalInvariantError, PreconditionError, ShapeError
from .exactla import ExactMatrix, IndexSet, _mask, rank


@dataclass
class RankOracleMatroid:
    """A matroid given by its ground set and a rank function, asked afresh on every query."""

    ground: tuple[int, ...]
    rank_fn: Callable[[frozenset[int]], int]

    def __post_init__(self):
        self.ground = tuple(sorted(set(self.ground)))

    @property
    def ground_set(self) -> frozenset[int]:
        return frozenset(self.ground)

    def rank(self, subset: Iterable[int]) -> int:
        key = frozenset(subset)
        if not key <= self.ground_set:
            raise PreconditionError(f"{sorted(key - self.ground_set)} not in ground set")
        return self.rank_fn(key)

    def full_rank(self) -> int:
        return self.rank(self.ground)

    def rank_table(self) -> dict[tuple[int, ...], int]:
        """Rank of every subset; exponential, intended for small grounds."""
        out = {}
        for r in range(len(self.ground) + 1):
            for combo in itertools.combinations(self.ground, r):
                out[combo] = self.rank(combo)
        return out


def is_independent(matroid: RankOracleMatroid, subset: Iterable[int]) -> bool:
    """A set is independent exactly when its rank equals its size."""
    key = frozenset(subset)
    return matroid.rank(key) == len(key)


def scaled_linear_matroid(block: ExactMatrix, X: IndexSet, Y: IndexSet) -> RankOracleMatroid:
    """Matroid on ground X induced by the chosen columns of a block.

    Requires dim(S_{X^c} & colspan B_{*,Y}) = 0; when that fails the
    construction is undefined and callers short-circuit instead (the
    quantified conditions hold trivially there).
    """
    if X.universe != block.n_rows:
        raise ShapeError(f"X over [{X.universe}] against {block.n_rows}-row matrix")
    restricted = block.take_cols(Y)
    full, x = rank(restricted), _mask(X)
    if restricted._rank_of_rows(x) != full:
        raise PreconditionError(
            "scaled-linear matroid undefined: column span meets the sparse "
            f"subspace of the complement of X={list(X)} nontrivially"
        )

    def rank_fn(subset: frozenset[int]) -> int:
        return len(subset) - full + restricted._rank_of_rows(x & ~_mask(subset))

    return RankOracleMatroid(tuple(X), rank_fn)


def dual(matroid: RankOracleMatroid) -> RankOracleMatroid:
    """Dual matroid: rank*(J) = |J| - r(E) + r(E \\ J)."""
    ground = matroid.ground_set

    def rank_fn(subset: frozenset[int]) -> int:
        return len(subset) - matroid.full_rank() + matroid.rank(ground - subset)

    return RankOracleMatroid(matroid.ground, rank_fn)


@dataclass(frozen=True)
class Partition:
    """A maximum partitionable set and the set T that proves it maximum.

    parts[i] is independent in matroid i and the parts are disjoint.  T
    holds every element reachable from an uncovered one in the exchange
    graph, so the parts span T in every matroid and cover everything
    outside it: sum |parts[i]| = |E \\ T| + sum_i r_i(T).
    """

    parts: tuple[tuple[int, ...], ...]
    T: tuple[int, ...]

    @property
    def size(self) -> int:
        return sum(len(p) for p in self.parts)


def matroid_partition(
    elements: Sequence[int],
    k: int,
    circuit: Callable[[int, tuple[int, ...], int], Sequence[int] | None],
) -> Partition:
    """Edmonds' matroid partition: the most elements coverable by k independent sets.

    `circuit(i, part, y)` answers for the sorted tuple `part`, independent
    in matroid i, and an element y outside it: None when part + y is
    independent, and otherwise y's fundamental circuit in part, the members
    z for which part - z + y is independent.  Elements are added in
    ascending order.  Each searches, breadth first, for a shortest
    augmenting path in the exchange graph, where y -> z when z is in y's
    circuit in parts[i] and y is a sink when parts[i] + y is independent,
    so an element that fits a part outright goes to the first such part.
    Shortest paths keep every part independent, and an element that finds
    no path never will, since the covered set only grows.  Parts and
    exchanges are tried in ascending order too, so the result is
    deterministic.  The oracle is asked once per (element, part) an
    element is searched from: O(|E|^2 k) calls in all.
    """
    parts: list[list[int]] = [[] for _ in range(k)]
    owner: dict[int, int] = {}

    def search(sources: list[int]) -> tuple[list[tuple[int, int]] | None, list[int]]:
        # BFS from the sources; on reaching a sink, the path as (element, part it enters).
        parent: dict[int, tuple[int, int] | None] = {s: None for s in sources}
        queue = list(sources)
        for y in queue:
            circuits = []
            for i in range(k):
                if owner.get(y) == i:
                    continue
                members = circuit(i, tuple(parts[i]), y)
                if members is None:
                    path = [(y, i)]
                    while parent[path[-1][0]] is not None:
                        path.append(parent[path[-1][0]])
                    return path, queue
                circuits.append((i, members))
            for i, members in circuits:
                for z in sorted(members):
                    if z not in parent:
                        parent[z] = (y, i)
                        queue.append(z)
        return None, queue

    left = []
    for s in sorted(elements):
        path, _ = search([s])
        if path is None:
            left.append(s)
            continue
        for y, i in path:
            if y in owner:
                parts[owner[y]].remove(y)
            insort(parts[i], y)
            owner[y] = i
    path, reach = search(left)
    if path is not None:
        raise InternalInvariantError("matroid partition left an augmentable element uncovered")
    return Partition(tuple(tuple(p) for p in parts), tuple(sorted(reach)))


def independence_circuits(
    independent: Callable[[int, tuple[int, ...]], bool],
) -> Callable[[int, tuple[int, ...], int], list[int] | None]:
    """A `matroid_partition` circuit oracle from an independence test on sorted tuples.

    It asks whether part + y is independent, then, if not, part - z + y
    for each z of part in ascending order: at most |part| + 1 queries per answer.
    """

    def circuit(i: int, part: tuple[int, ...], y: int) -> list[int] | None:
        if independent(i, tuple(sorted(part + (y,)))):
            return None
        return [z for z in part if independent(i, tuple(sorted([v for v in part if v != z] + [y])))]

    return circuit


def union_rank(matroids: Sequence[RankOracleMatroid], U: Iterable[int]) -> int:
    """Rank of U in the union matroid: min over T of |U \\ T| + sum_i r_i(T).

    Computed as the size of a maximum partition of U into sets independent
    in the respective matroids (`matroid_partition`); acceptance criterion 4.
    """
    if not matroids:
        raise PreconditionError("union of no matroids")
    ground = matroids[0].ground_set
    for m in matroids[1:]:
        if m.ground_set != ground:
            raise PreconditionError("union requires a common ground set")
    u = sorted(frozenset(U))
    if not frozenset(u) <= ground:
        raise PreconditionError(f"{sorted(frozenset(u) - ground)} not in ground set")
    circuit = independence_circuits(lambda i, s: is_independent(matroids[i], s))
    return matroid_partition(u, len(matroids), circuit).size


@dataclass(frozen=True)
class AxiomReport:
    ok: bool
    violations: tuple[str, ...]


def verify_axioms(matroid: RankOracleMatroid) -> AxiomReport:
    """Brute-force check of the rank axioms and exchange behavior.

    Verifies: r(empty) = 0, 0 <= r(J) <= |J|, monotonicity, submodularity,
    the hereditary and exchange properties of the induced independent
    sets, and that r agrees with the enumerated independence rank
    max{|I| : I subset of J, I independent}.
    """
    ground = matroid.ground
    if len(ground) > 8:
        raise CapacityError(f"exhaustive axiom check limited to 8 elements, got {len(ground)}")
    violations: list[str] = []
    subsets = [frozenset(c) for r in range(len(ground) + 1) for c in itertools.combinations(ground, r)]
    ranks = {s: matroid.rank(s) for s in subsets}

    if ranks[frozenset()] != 0:
        violations.append(f"rank(empty) = {ranks[frozenset()]} != 0")
    for s in subsets:
        if not 0 <= ranks[s] <= len(s):
            violations.append(f"rank({sorted(s)}) = {ranks[s]} outside [0, {len(s)}]")
    for s, t in itertools.product(subsets, subsets):
        if s <= t and ranks[s] > ranks[t]:
            violations.append(f"monotonicity fails: r({sorted(s)}) > r({sorted(t)})")
            break
    for s, t in itertools.combinations(subsets, 2):
        if ranks[s | t] + ranks[s & t] > ranks[s] + ranks[t]:
            violations.append(
                f"submodularity fails at {sorted(s)}, {sorted(t)}: "
                f"r(union)+r(inter) = {ranks[s | t]}+{ranks[s & t]} > {ranks[s]}+{ranks[t]}"
            )
            break

    independent = {s for s in subsets if ranks[s] == len(s)}
    for s in independent:
        if not all(frozenset(c) in independent for r in range(len(s)) for c in itertools.combinations(sorted(s), r)):
            violations.append(f"hereditary property fails below {sorted(s)}")
            break
    exchange_ok = True
    for small, big in itertools.product(independent, independent):
        if len(small) < len(big):
            if not any(small | {e} in independent for e in big - small):
                violations.append(f"exchange fails for {sorted(small)} into {sorted(big)}")
                exchange_ok = False
                break
        if not exchange_ok:
            break
    for s in subsets:
        enumerated = max((len(i) for i in independent if i <= s), default=0)
        if ranks[s] != enumerated:
            violations.append(
                f"rank({sorted(s)}) = {ranks[s]} but enumerated independence rank is {enumerated}"
            )
            break
    return AxiomReport(not violations, tuple(violations))

