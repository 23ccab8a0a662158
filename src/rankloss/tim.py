"""Topological interference management built on the rank-loss certifier.

A topology lists, per receiver, the transmitters heard above the noise
floor.  The analyzer characterizes when half symmetric DoF is achievable
(bipartiteness of the reduced conflict graph), evaluates the linear
symmetric DoF formula for exclusive-alignment topologies, synthesizes the
corresponding beamforming schemes, and decides decodability exactly for
generic row scalings.  Each receiver that hears interference needs the
generic ranks of [interference | B_j] and [interference]: one scaling
drawn by `randrank` from the fixed `_DRAW`, its rows built by
`_scaled_rows`, and one elimination modulo a prime q give both, and
rank mod q <= rank over Q <= generic rank <= term rank of the support
(Edmonds 1967).  So a trial that reaches both term ranks (one matching
pass over the columns' support masks gives both) has the generic ranks;
on a miss C6 (`conditions.generic_rank`) decides, so every verdict is
exact and nothing here takes a sampling setting.
`tim verify` and the postconditions of synthesized exclusive-alignment
schemes both run `verify_decodability`.  A `Scheme` carries its alignment
windows J_r, and one rule for them (`_window_fault`) serves synthesis,
`tim verify` and normalization.  Each beamformer is its `ExactMatrix`'s
integer grid, built once by synthesis or the loader, and its rank and
support masks live on it, so `Scheme` and verification rank-check it
once and no entry becomes a Fraction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .conditions import Ensemble, generic_rank
from .errors import CapacityError, InternalInvariantError, PreconditionError, ShapeError
from .exactla import (
    ExactMatrix,
    IndexSet,
    _rank_mod,
    _RowBasis,
    is_full_column_rank,
    row_support,
    sparse_dim,
)
from .matching import SupportGraph, matching_sizes
from .randrank import TrialConfig, _draw_diags, _scaled_rows

BOTH_SLOTS = 0  # marker for a transmitter active in every slot of a 2-slot scheme
FILL_ATTEMPTS = 8  # prime fills synth_exclusive_scheme tries before giving up
_DRAW = TrialConfig()  # receiver j's one scaling is stream j of this draw


@dataclass(frozen=True)
class Topology:
    """K-user interference pattern: interference[j-1] = transmitters heard at receiver j."""

    interference: tuple[frozenset[int], ...]

    def __post_init__(self):
        if not isinstance(self.interference, tuple):  # a list would compare unequal and not hash
            raise PreconditionError(f"interference must be a tuple, got {type(self.interference).__name__}")
        k = len(self.interference)
        if k < 1:
            raise PreconditionError("topology needs at least one user")
        for j, members in enumerate(self.interference, start=1):
            # A list could repeat a transmitter, and set algebra needs frozensets.
            if not isinstance(members, frozenset):
                raise PreconditionError(
                    f"receiver {j}: interference set must be a frozenset, got {type(members).__name__}"
                )
            for i in members:
                if type(i) is not int:  # bool is an int subclass, not a transmitter
                    raise PreconditionError(f"receiver {j}: transmitter {i!r} is not an int")
                if not 1 <= i <= k:
                    raise PreconditionError(f"receiver {j}: transmitter {i} outside [1, {k}]")
                if i == j:
                    raise PreconditionError(f"receiver {j} lists its own transmitter as interference")

    @classmethod
    def of(cls, *sets: Iterable[int]) -> "Topology":
        try:
            interference = tuple(frozenset(s) for s in sets)
        except TypeError:  # a set that is not iterable, or holds an unhashable member
            raise PreconditionError(f"interference sets must be iterables of ints, got {sets!r}") from None
        return cls(interference)

    @property
    def K(self) -> int:
        return len(self.interference)

    def interferers(self, j: int) -> frozenset[int]:
        return self.interference[j - 1]

    def has_interference(self) -> bool:
        return any(self.interference)

    def alignment_receivers(self) -> tuple[int, ...]:
        """Receivers with exactly two interferers (the alignment sets)."""
        return tuple(j for j in range(1, self.K + 1) if len(self.interferers(j)) == 2)


@dataclass(frozen=True)
class ConflictGraph:
    """Directed conflict graph on users."""

    n_vertices: int
    edges: frozenset[tuple[int, int]]

    def out_neighbors(self, v: int) -> frozenset[int]:
        return frozenset(j for i, j in self.edges if i == v)

    def undirected_adjacency(self) -> dict[int, set[int]]:
        adj: dict[int, set[int]] = {v: set() for v in range(1, self.n_vertices + 1)}
        for i, j in self.edges:
            adj[i].add(j)
            adj[j].add(i)
        return adj


def regular_conflict_graph(topology: Topology) -> ConflictGraph:
    """Edge i -> j exactly when transmitter i interferes at receiver j."""
    edges = {
        (i, j)
        for j in range(1, topology.K + 1)
        for i in topology.interferers(j)
    }
    return ConflictGraph(topology.K, frozenset(edges))


def reduced_conflict_graph(topology: Topology) -> ConflictGraph:
    """Regular edges restricted to sources that share an interfered receiver.

    Edge i -> j survives exactly when transmitter i interferes at some
    receiver k that a second, distinct transmitter also interferes at.
    The qualification depends only on i, so each source keeps either all
    or none of its outgoing edges.
    """
    keep = set().union(*(members for members in topology.interference if len(members) >= 2))
    edges = {(i, j) for (i, j) in regular_conflict_graph(topology).edges if i in keep}
    return ConflictGraph(topology.K, frozenset(edges))


def is_bipartite(graph: ConflictGraph) -> tuple[bool, tuple[tuple[int, ...], tuple[int, ...]] | None]:
    """2-color the underlying undirected graph.

    Returns (True, (part1, part2)) with a canonical partition (BFS in
    ascending vertex order; isolated vertices land in part1), or
    (False, None) when an odd cycle exists.
    """
    adj = graph.undirected_adjacency()
    color: dict[int, int] = {}
    for root in range(1, graph.n_vertices + 1):
        if root in color:
            continue
        color[root] = 0
        queue = [root]
        while queue:
            v = queue.pop(0)
            for w in sorted(adj[v]):
                if w not in color:
                    color[w] = 1 - color[v]
                    queue.append(w)
                elif color[w] == color[v]:
                    return False, None
    part1 = tuple(v for v in range(1, graph.n_vertices + 1) if color[v] == 0)
    part2 = tuple(v for v in range(1, graph.n_vertices + 1) if color[v] == 1)
    return True, (part1, part2)


def _k_coloring(adj: dict[int, set[int]], order: Sequence[int], k: int) -> dict[int, int] | None:
    """Lexicographically first k-coloring of the vertices in `order`, or None.

    Backtracking in the given vertex order, smallest color first.  A vertex
    never takes a color above the highest used so far plus one, which skips
    colorings that differ only by a renaming of colors and leaves the
    lexicographically first coloring unchanged.
    """
    assignment: dict[int, int] = {}

    def assign(idx: int, top: int) -> bool:
        if idx == len(order):
            return True
        v = order[idx]
        used = {assignment[w] for w in adj[v] if w in assignment}
        for c in range(min(top + 1, k - 1) + 1):
            if c not in used:
                assignment[v] = c
                if assign(idx + 1, max(top, c)):
                    return True
                del assignment[v]
        return False

    return assignment if assign(0, -1) else None


def chromatic_number(graph: ConflictGraph) -> int:
    """Exact chromatic number of the underlying undirected graph."""
    if graph.n_vertices > 20:
        raise CapacityError(f"exact coloring limited to 20 vertices, got {graph.n_vertices}")
    adj = graph.undirected_adjacency()
    if not any(adj.values()):
        return 1
    vertices = sorted(adj, key=lambda v: (-len(adj[v]), v))
    return next(k for k in itertools.count(2) if _k_coloring(adj, vertices, k) is not None)


def check_P1_P2(topology: Topology) -> tuple[bool, tuple[tuple, ...]]:
    """Maximum-degree (P1) and exclusive-alignment-set (P2) properties.

    P1: every receiver hears at most two interferers.  P2: whenever one of
    two distinct receivers hears two interferers, their interference sets
    are disjoint.
    """
    violations: list[tuple] = []
    for j in range(1, topology.K + 1):
        if len(topology.interferers(j)) > 2:
            violations.append(("P1", j))
    for j, k in itertools.combinations(range(1, topology.K + 1), 2):
        ij, ik = topology.interferers(j), topology.interferers(k)
        if max(len(ij), len(ik)) == 2 and ij & ik:
            violations.append(("P2", j, k, tuple(sorted(ij & ik))))
    return not violations, tuple(violations)


def _require_P1_P2(topology: Topology) -> None:
    """Refuse a topology that breaks P1 or P2, naming its violations."""
    ok, violations = check_P1_P2(topology)
    if not ok:
        raise PreconditionError(f"P1/P2 violated: {violations}")


def half_dof_feasible(topology: Topology) -> bool:
    """Half symmetric DoF is achievable iff the reduced conflict graph is bipartite."""
    return is_bipartite(reduced_conflict_graph(topology))[0]


# ---------------------------------------------------------------------------
# Schemes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Scheme:
    """A linear precoding design: per-user n x m_i beamformers over n slots.

    `windows` holds each receiver's alignment window J_r or None, and is
    None for a design with no windows, such as the half-DoF scheme.
    """

    n: int
    beamformers: tuple[ExactMatrix, ...]
    windows: tuple[IndexSet | None, ...] | None = None

    def __post_init__(self):
        if type(self.n) is not int or self.n < 1:  # bool is an int subclass, not a slot count
            raise ShapeError(f"n must be a positive int, got {self.n!r}")
        if not isinstance(self.beamformers, tuple) or not all(isinstance(b, ExactMatrix) for b in self.beamformers):
            raise ShapeError("beamformers must be a tuple of ExactMatrix")
        for i, b in enumerate(self.beamformers, start=1):
            if b.n_rows != self.n:
                raise ShapeError(f"user {i}: beamformer has {b.n_rows} rows, expected {self.n}")
            if b.n_cols < 1 or b.n_cols > self.n:
                raise ShapeError(f"user {i}: {b.n_cols} columns outside [1, {self.n}]")
            if not is_full_column_rank(b):
                raise PreconditionError(f"user {i}: beamformer is not full column rank")
        windows = (None,) * self.K if self.windows is None else self.windows
        if not isinstance(windows, tuple) or not all(s is None or isinstance(s, IndexSet) for s in windows):
            raise ShapeError("windows must be None or a tuple of IndexSets and Nones")
        if len(windows) != self.K:
            raise ShapeError(f"{len(windows)} windows for {self.K} users")
        for j, s in enumerate(windows, start=1):
            if s is not None and s.universe != self.n:
                raise ShapeError(f"receiver {j}: J over [{s.universe}], expected [{self.n}]")

    @property
    def K(self) -> int:
        return len(self.beamformers)

    @property
    def symbol_counts(self) -> tuple[int, ...]:
        return tuple(b.n_cols for b in self.beamformers)

    def activation_pattern(self) -> tuple[tuple[int, ...], ...]:
        """Per user, the slots carrying any nonzero beamformer entry."""
        return tuple(tuple(row_support(b)) for b in self.beamformers)


def _require_same_users(topology: Topology, scheme: Scheme) -> None:
    """Refuse a scheme whose user count is not the topology's."""
    if scheme.K != topology.K:
        raise ShapeError(f"scheme has {scheme.K} users, topology has {topology.K}")


def _window_fault(topology: Topology, scheme: Scheme) -> str | None:
    """Why the scheme's alignment windows break the exclusive-alignment rule, else None.

    A scheme with no windows passes.  Otherwise the m_i are equal, tau =
    3m - n >= 1, and a window J_r sits at exactly the receivers with two
    interferers, whose sparse dimensions on J_r sum to at least |J_r| + tau
    (C2 for the pair), and r's own block avoids S_J.  Each is at most |J|,
    so at |J| = tau (synthesis, normalization) both members' spans contain S_J.
    """
    if scheme.windows is None:
        return None
    ms = set(scheme.symbol_counts)
    if len(ms) != 1:
        return "alignment windows apply to symmetric schemes (equal m_i)"
    tau = 3 * ms.pop() - scheme.n
    if tau < 1:
        return f"tau = 3m - n = {tau} must be positive"
    receivers = topology.alignment_receivers()
    for r, window in enumerate(scheme.windows, start=1):
        if r not in receivers:
            if window is not None:
                return f"receiver {r} has an assigned J but no size-2 alignment set"
            continue
        if window is None:
            return f"receiver {r} has a size-2 alignment set but no assigned J"
        surplus = sum(sparse_dim(scheme.beamformers[i - 1], window) for i in topology.interferers(r)) - len(window)
        if surplus < tau:
            return f"receiver {r}: sparse surplus {surplus} below tau = {tau}"
        if sparse_dim(scheme.beamformers[r - 1], window) != 0:
            return f"receiver {r}: own beamformer meets S_J nontrivially"
    return None


def _slot_column(n: int, slot: int) -> list[int]:
    if slot == BOTH_SLOTS:
        return [1] * n
    return [int(i + 1 == slot) for i in range(n)]


def synth_half_dof_scheme(topology: Topology) -> Scheme:
    """Two-slot repetition scheme from the reduced conflict graph bipartition.

    Transmitters constrained by reduced edges take the slot of their part.
    When the reduced graph has no edges at all, every beamformer is dense
    (active in both slots).  Otherwise each transmitter whose outgoing
    interference was entirely dropped from the reduced graph is placed on
    a slot avoiding its dropped-edge partners, and repeats across both
    slots only when no single slot avoids them all.
    """
    reduced = reduced_conflict_graph(topology)
    ok, parts = is_bipartite(reduced)
    if not ok:
        raise PreconditionError("half DoF infeasible: reduced conflict graph is not bipartite")
    if not reduced.edges:
        return Scheme(2, tuple(ExactMatrix.from_columns([_slot_column(2, BOTH_SLOTS)]) for _ in range(topology.K)))

    adj = reduced.undirected_adjacency()
    part2 = set(parts[1])
    slot: dict[int, int] = {}
    for v in range(1, topology.K + 1):
        if adj[v]:
            slot[v] = 2 if v in part2 else 1

    regular = regular_conflict_graph(topology)
    dropped = regular.edges - reduced.edges
    for v in range(1, topology.K + 1):
        if reduced.out_neighbors(v):
            continue  # all outgoing edges kept; the bipartition already separates them
        partners = {r for (s, r) in dropped if s == v} | {s for (s, r) in dropped if r == v}
        taken = {slot[u] for u in sorted(partners) if slot.get(u) in (1, 2)}
        if v in slot:
            if slot[v] in taken:
                slot[v] = BOTH_SLOTS
        else:
            free = {1, 2} - taken
            if not free:
                slot[v] = BOTH_SLOTS
            elif len(free) == 1:
                slot[v] = free.pop()
            else:
                slot[v] = 2
    return Scheme(2, tuple(ExactMatrix.from_columns([_slot_column(2, slot[v])]) for v in range(1, topology.K + 1)))


def ldof_sym(topology: Topology) -> Fraction:
    """Linear symmetric DoF for exclusive-alignment topologies.

    min(1/2, (chi + 1) / (3 chi)) with chi the chromatic number of the
    reduced conflict graph; defined only for interference networks
    satisfying the maximum-degree and exclusive-alignment-set properties.
    """
    if not topology.has_interference():
        raise PreconditionError("formula applies to topologies with at least one interference link")
    _require_P1_P2(topology)
    chi = chromatic_number(reduced_conflict_graph(topology))
    return min(Fraction(1, 2), Fraction(chi + 1, 3 * chi))


def _prime_stream(skip: int = 0) -> Iterator[int]:
    """The primes in ascending order, less the first `skip`, by an incremental sieve."""
    marks: dict[int, int] = {}  # next composite to cross out -> the prime crossing it
    count = 0
    for candidate in itertools.count(2):
        p = marks.pop(candidate, None)
        if p is None:
            marks[candidate * candidate] = candidate
            count += 1
            if count > skip:
                yield candidate
        else:
            nxt = candidate + p
            while nxt in marks:
                nxt += p
            marks[nxt] = p


def _color_alignment_sets(topology: Topology, chi: int) -> dict[int, int]:
    # Nodes: receivers with two interferers.  Edge r-d when one's transmitter
    # belongs to the other's alignment set; exactly the pairs whose sparse
    # subspaces must not overlap.
    nodes = topology.alignment_receivers()
    adj = {r: {d for d in nodes if r in topology.interferers(d) or d in topology.interferers(r)} for r in nodes}
    coloring = _k_coloring(adj, sorted(nodes, key=lambda v: (-len(adj[v]), v)), chi)
    if coloring is None:
        raise InternalInvariantError(f"alignment-conflict relation needs more than chi = {chi} colors")
    return coloring


def synth_exclusive_scheme(topology: Topology) -> Scheme:
    """Beamformer synthesis achieving min(1/2, (chi+1)/(3 chi)).

    For chi = 1 (no reduced edges) the two-slot dense scheme already gives
    half DoF, with no window at any receiver.  Otherwise, over n = 3 chi
    slots with m = chi + 1 symbols per user, each color class of the
    alignment-conflict relation receives a disjoint 3-slot window J; both
    members of an alignment set spend 3 columns spanning the sparse
    subspace of their window and the rest on dense generic columns, while
    uninvolved transmitters stay fully generic.  Generic entries are
    distinct small primes; a fill is replaced by the next block of primes
    unless it passes the exact postconditions: the window check
    (`_window_fault`), and generic decodability at every receiver,
    rank([interference | B_j]) = m_j + rank(interference), decided by
    `verify_decodability` (one certified trial, C6 on a miss).  After
    FILL_ATTEMPTS failed fills it raises InternalInvariantError.
    """
    _require_P1_P2(topology)
    chi = chromatic_number(reduced_conflict_graph(topology))
    if chi == 1:
        scheme = synth_half_dof_scheme(topology)
        return Scheme(scheme.n, scheme.beamformers, (None,) * topology.K)

    n, m, tau = 3 * chi, chi + 1, 3
    coloring = _color_alignment_sets(topology, chi)
    windows = tuple(
        IndexSet.of(n, range(3 * coloring[r] + 1, 3 * coloring[r] + 4)) if r in coloring else None
        for r in range(1, topology.K + 1)
    )
    member_window = {i: windows[r - 1] for r in coloring for i in topology.interferers(r)}

    for attempt in range(FILL_ATTEMPTS):
        primes = _prime_stream(skip=97 * attempt)
        beamformers = []
        for user in range(1, topology.K + 1):
            window = member_window.get(user)
            cols: list[list[int]] = []
            if window is not None:
                for _ in range(tau):
                    col = [0] * n
                    for row in window:
                        col[row - 1] = next(primes)
                    cols.append(col)
            generic = m - len(cols)
            for _ in range(generic):
                cols.append([next(primes) for _ in range(n)])
            # Integer columns are canonical at scale 1.
            beamformers.append(ExactMatrix._of([list(row) for row in zip(*cols)], (1,) * m))
        scheme = _exclusive_postconditions(topology, beamformers, windows)
        if scheme is not None:
            return scheme
    raise InternalInvariantError("generic fill failed its postconditions repeatedly")


def _exclusive_postconditions(topology: Topology, beamformers: list[ExactMatrix], windows: tuple) -> Scheme | None:
    """The fill's scheme when it passes the rank, window and decodability checks, else None."""
    if not all(is_full_column_rank(b) for b in beamformers):
        return None
    scheme = Scheme(beamformers[0].n_rows, tuple(beamformers), windows)
    if _window_fault(topology, scheme) is None and verify_decodability(topology, scheme).ok:
        return scheme
    return None


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecodabilityReport:
    """Per-receiver almost-sure decodability verdicts, exact.

    A receiver decodes when the desired block almost surely contributes
    its full symbol count on top of the interference:
    rank([interference | D_jj B_j]) = m_j + rank(interference) for generic
    row scalings.  `ranks[j-1]` is receiver j's exact generic pair
    (combined, interference); `certified[j-1]` is True when one modular
    trial reached the support's term ranks and False when C6 decided.  A
    receiver that hears no interferer has the pair (m_j, 0), certified by
    its block's full column rank, with no draw.
    """

    per_receiver: tuple[bool, ...]
    ranks: tuple[tuple[int, int], ...]
    certified: tuple[bool, ...]

    @property
    def ok(self) -> bool:
        return all(self.per_receiver)


def _term_ranks(blocks: Sequence[ExactMatrix], own: ExactMatrix) -> tuple[int, int]:
    """Term ranks of [B_1 | ... | B_k | own] and [B_1 | ... | B_k].

    No row scaling lifts a rank above its term rank.  One matching pass
    over the columns' support masks gives both, read after the blocks'
    columns and after own's.
    """
    rights = tuple(
        (i, c, mask)
        for i, block in enumerate((*blocks, own), start=1)
        for c, mask in enumerate(block._supports, start=1)
    )
    width = len(rights) - own.n_cols
    interfering, combined = matching_sizes(SupportGraph(own.n_rows, rights), (width, len(rights)))
    return combined, interfering


def _generic_pair(blocks: list[ExactMatrix], own: ExactMatrix, stream: int) -> tuple[tuple[int, int], bool]:
    """Generic ranks of [B_1 | ... | B_k | own] and [B_1 | ... | B_k], and whether one trial certified them.

    One draw, stream `stream` of `_DRAW`, scales own first, then the
    blocks, and one elimination mod q ranks [blocks | own] and, by its
    pivots among the blocks' columns, [blocks].  rank mod q <= rank over Q
    at that scaling <= generic rank <= term rank, so a pair that reaches
    the term ranks is the generic pair.  Otherwise C6 (`generic_rank`)
    decides both.
    """
    width = sum(b.n_cols for b in blocks)
    own_diag, *diags = _draw_diags(_DRAW, stream, own.n_rows, 1 + len(blocks))
    grids = [b._grid for b in blocks] + [own._grid]
    pair = _rank_mod(_scaled_rows(grids, diags + [own_diag]), width + own.n_cols, width)
    if pair == _term_ranks(blocks, own):
        return pair, True
    return (generic_rank(Ensemble((*blocks, own))), generic_rank(Ensemble(tuple(blocks)))), False


def verify_decodability(topology: Topology, scheme: Scheme) -> DecodabilityReport:
    """Exact check of the projection decodability condition for generic row scalings.

    Receiver j draws stream j of `_DRAW` once (`_generic_pair`); a trial
    that misses its term ranks is decided by C6, so no verdict or rank
    depends on the draw.
    """
    _require_same_users(topology, scheme)
    ranks = []
    certified = []
    for j in range(1, topology.K + 1):
        own = scheme.beamformers[j - 1]
        blocks = [scheme.beamformers[i - 1] for i in sorted(topology.interferers(j))]
        if blocks:
            pair, by_trial = _generic_pair(blocks, own, j)
        else:
            # B_j has full column rank, so its rank is m_j at every scaling: draw none.
            pair, by_trial = (own.n_cols, 0), True
        ranks.append(pair)
        certified.append(by_trial)
    per_receiver = tuple(c == b.n_cols + i for (c, i), b in zip(ranks, scheme.beamformers))
    return DecodabilityReport(per_receiver, tuple(ranks), tuple(certified))


@dataclass(frozen=True)
class StructureCheck:
    kind: str  # "alignment-collapse" or "conflict-overlap"
    users: tuple[int, ...]
    receiver: int | None
    ok: bool


@dataclass(frozen=True)
class StructureReport:
    checks: tuple[StructureCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def violations(self) -> tuple[StructureCheck, ...]:
        return tuple(c for c in self.checks if not c.ok)


def half_dof_structure_check(topology: Topology, scheme: Scheme) -> StructureReport:
    """Finite structural necessities for an exact half-rate scheme.

    With m_i = n/2 throughout, a decodable design must

    (a) collapse each alignment pair: some row set J must capture
        |J| + n/2 sparse dimensions across the pair's spans (equivalently,
        the pair shares a fully occupied half-size sparse window), or the
        interference at the shared receiver cannot fit in n/2 dimensions;
    (b) avoid conflict overlap along every reduced edge (i, k): if some
        slot t exists that both users can avoid while each keeping n/2 of
        its dimensions (sparse dimension >= n/2 inside the complement of
        {t}), the scaled spans intersect almost surely and receiver k
        fails.

    Both are decided exactly in polynomial time.  For (a) the pair has
    m_1 + m_2 = n, so its one column choice is all columns, and the
    largest sparse surplus over J is the pair's max_tau; by C2 <=> C6 it
    reaches n/2 exactly when C6's generic rank of the pair is at most n/2.
    For (b) a full-column-rank n x n/2 block keeps sparse dimension n/2
    off slot t exactly when its row t is zero, so t is commonly avoidable
    exactly when it lies in neither block's row support.

    A reported violation shows the scheme cannot satisfy decodability;
    both checks are exact and never flag a decodable design (acceptance
    criterion 8).
    """
    _require_same_users(topology, scheme)
    n = scheme.n
    if n % 2 != 0 or any(m != n // 2 for m in scheme.symbol_counts):
        raise PreconditionError("structure check applies to exact half-rate schemes (m_i = n/2)")
    half = n // 2
    checks: list[StructureCheck] = []
    for r in range(1, topology.K + 1):
        members = sorted(topology.interferers(r))
        if len(members) < 2:
            continue
        for i1, i2 in itertools.combinations(members, 2):
            pair = Ensemble((scheme.beamformers[i1 - 1], scheme.beamformers[i2 - 1]))
            checks.append(StructureCheck("alignment-collapse", (i1, i2), r, generic_rank(pair) <= half))
    reduced = reduced_conflict_graph(topology)
    for i, k in sorted(reduced.edges):
        covered = row_support(scheme.beamformers[i - 1]).union(row_support(scheme.beamformers[k - 1]))
        checks.append(StructureCheck("conflict-overlap", (i, k), None, len(covered) == n))
    return StructureReport(tuple(checks))


def normalize_alignment(topology: Topology, scheme: Scheme) -> Scheme:
    """Rework an aligned design so each alignment window is tight and clean.

    Given windows J_r that pass `_window_fault`, produces new beamformers
    and windows J_r' of size tau = 3m - n with S_{J_r'} contained in both
    members' column spans and still avoiding the receiver's own span.
    Follows the column-swap construction: shrink J_r away from the
    members' own windows, then replace each member's intersection basis by
    coordinate columns.  A member with sparse dimension d on the shrunk
    window J' keeps its m - d columns at the pivots of an echelon basis of
    its rows off J' (`_RowBasis`): they stay independent off J', so they
    meet S_{J'} trivially, and d coordinate columns replace the rest.
    """
    if scheme.windows is None:
        raise PreconditionError("scheme file carries no sparse_assignment to normalize")
    _require_P1_P2(topology)
    _require_same_users(topology, scheme)
    fault = _window_fault(topology, scheme)
    if fault is not None:
        raise PreconditionError(fault)
    n, m = scheme.n, scheme.symbol_counts[0]
    tau = 3 * m - n
    receivers = topology.alignment_receivers()

    new_beamformers = list(scheme.beamformers)
    new_windows: list[IndexSet | None] = [None] * topology.K
    for r in receivers:
        members = sorted(topology.interferers(r))
        removed = {v for i in members if i in receivers for v in scheme.windows[i - 1]}
        j_prime = scheme.windows[r - 1].difference(IndexSet.of(n, removed))
        dims = [sparse_dim(scheme.beamformers[i - 1], j_prime) for i in members]
        if sum(dims) < len(j_prime) + tau:
            raise PreconditionError(
                f"receiver {r}: surplus does not survive removing the members' own windows"
            )
        j_new = IndexSet(n, j_prime.members[:tau])
        spare = [v for v in j_prime.members if v not in j_new.members]
        for i, d in zip(members, dims):
            member = scheme.beamformers[i - 1]
            pivots = _RowBasis(member._grid, m).extend(j_prime.complement()).pivots
            kept = member.take_cols(IndexSet.of(m, (p + 1 for p in pivots)))
            fresh_rows = list(j_new.members) + spare[: d - tau]
            fresh = ExactMatrix._of(
                [[int(row == target) for target in fresh_rows] for row in range(1, n + 1)],
                (1,) * len(fresh_rows),
            )
            new_beamformers[i - 1] = fresh.hstack(kept)
        new_windows[r - 1] = j_new

    result = Scheme(n, tuple(new_beamformers), tuple(new_windows))
    fault = _window_fault(topology, result)
    if fault is not None:
        raise InternalInvariantError(f"after normalization, {fault}")
    return result
