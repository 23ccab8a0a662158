"""Support bipartite graphs, maximum matching, and the Hall-style threshold.

The graph pairs row indices with column vectors: a column vertex is
adjacent to every row where it has a nonzero entry, given as the column's
support mask (`ExactMatrix._supports`).  Matching sizes on
such graphs are the final reformulation of the rank-loss certificate, via
the defect version of Hall's theorem: a bipartite graph G = (A u B, E)
has a matching of size k iff |N(I)| >= |I| - |B| + k for every I in B.

Every answer comes from one maximum matching, found by augmenting paths
in polynomial time.  The defect max_I |I| - |N(I)| equals |B| minus the
maximum matching size (Konig-Ore duality), and the Hall threshold holds
exactly when that size is at least k, so no subset of B is ever scanned.

`tim` reads one maximum matching as the term rank of a receiver's
columns: no row scaling lifts their rank above it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import PreconditionError, ShapeError


@dataclass(frozen=True)
class SupportGraph:
    """Bipartite support graph: rows 1..n_left against tagged column vertices.

    Each right vertex carries (block index, column label, adjacency
    bitmask over rows); bit i-1 set means the vector is nonzero in row i.
    """

    n_left: int
    rights: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        if type(self.n_left) is not int or self.n_left < 0:  # exactly int: bool is an int subclass
            raise ShapeError(f"n_left must be a nonnegative int, got {self.n_left!r}")
        if not isinstance(self.rights, tuple) or not all(
            isinstance(r, tuple) and len(r) == 3 and all(type(v) is int for v in r) for r in self.rights
        ):
            raise ShapeError("rights must be a tuple of (block, label, mask) int triples")  # a list would not hash
        for block, label, mask in self.rights:
            if mask < 0 or mask >> self.n_left:
                raise ShapeError(
                    f"column {label} of block {block}: adjacency {mask} outside rows 1..{self.n_left}"
                )

    @property
    def n_right(self) -> int:
        return len(self.rights)


def matching_sizes(n_left: int, masks: Sequence[int], cuts: Sequence[int]) -> tuple[int, ...]:
    """Maximum matching size among the first c right vertices, for each c in ascending cuts.

    Right vertex r is adjacent to the rows in masks[r] (bit i set for row
    i + 1 of 1..n_left).  One augmenting-path pass over the right vertices
    in order: a path from right vertex r only passes through rows matched
    to earlier ones, so after the first c the matching is a maximum one of
    those c (Kuhn's algorithm run on them alone).
    """
    match_of_row = [-1] * n_left  # row index -> right vertex or -1
    visited = 0  # rows visited by the current search, as a mask

    def try_augment(r: int) -> bool:
        nonlocal visited
        adj = masks[r]
        while free := adj & ~visited:
            bit = free & -free
            visited |= bit
            row = bit.bit_length() - 1
            if match_of_row[row] == -1 or try_augment(match_of_row[row]):
                match_of_row[row] = r
                return True
        return False

    sizes = []
    size = done = 0
    for cut in cuts:
        for r in range(done, cut):
            visited = 0
            size += try_augment(r)
        done = cut
        sizes.append(size)
    return tuple(sizes)


def max_matching(graph: SupportGraph) -> int:
    """Maximum matching size via augmenting paths."""
    return matching_sizes(graph.n_left, [mask for _, _, mask in graph.rights], (graph.n_right,))[0]


def defect(graph: SupportGraph) -> int:
    """max over right subsets I of |I| - |N(I)|, by duality: |right| - max matching (acceptance criterion 5)."""
    return graph.n_right - max_matching(graph)


def hall_threshold_check(graph: SupportGraph, k: int) -> bool:
    """Is |N(I)| >= |I| - |right| + k for every right subset I?

    Equivalent to the graph having a matching of size k (acceptance criterion 5).
    """
    if type(k) is not int:
        raise PreconditionError(f"k must be an int, got {k!r}")
    if not 0 <= k <= min(graph.n_left, graph.n_right):
        raise PreconditionError(
            f"k must lie in [0, {min(graph.n_left, graph.n_right)}], got {k}"
        )
    return max_matching(graph) >= k
