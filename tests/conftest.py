"""Shared fixtures: canonical worked examples and random generators."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from pathlib import Path
from typing import Sequence

import pytest

from rankloss.conditions import Ensemble, generic_rank
from rankloss.errors import PreconditionError, ShapeError
from rankloss.exactla import (
    ExactMatrix,
    IndexSet,
    _rational_pair,
    is_full_column_rank,
    nullspace_basis,
    rank,
    sparse_dim,
)
from rankloss.matching import SupportGraph
from rankloss.matroid import dual, is_independent, scaled_linear_matroid, union_rank
from rankloss.tim import Scheme, StructureCheck, StructureReport, Topology, reduced_conflict_graph

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# 50% zero mass keeps sparse structure likely while staying full column rank.
ENTRY_POOL = [-1, 0, 0, 0, 1, 2]


def e1() -> Ensemble:
    """Two 4x2 blocks, both with a zero fourth row: rank loss exactly 1."""
    b1 = ExactMatrix.from_rows([[1, 1], [1, 2], [1, 3], [0, 0]])
    b2 = ExactMatrix.from_rows([[1, 0], [0, 1], [1, 1], [0, 0]])
    return Ensemble((b1, b2))


def e1_generic() -> Ensemble:
    """E1 with block 2's fourth row replaced by generic nonzeros: no rank loss."""
    b1 = ExactMatrix.from_rows([[1, 1], [1, 2], [1, 3], [0, 0]])
    b2 = ExactMatrix.from_rows([[1, 0], [0, 1], [1, 1], [5, 7]])
    return Ensemble((b1, b2))


def e3() -> Ensemble:
    """Dense 3x1 and 3x2 blocks: the determinant expansion is generically nonzero."""
    b1 = ExactMatrix.from_columns([[1, 2, 4]])
    b2 = ExactMatrix.from_columns([[1, 3, 9], [1, 5, 25]])
    return Ensemble((b1, b2))


def t6() -> Topology:
    """Six users; reduced conflict graph bipartite while the regular one is not."""
    return Topology.of({6}, {6}, {6}, {2, 5}, {3, 4}, {1})


def t9a() -> Topology:
    """Nine users, three mutually conflicting alignment sets: chi = 3."""
    return Topology.of({2, 4}, {3, 5}, {1, 6}, *[set()] * 6)


def t9b() -> Topology:
    """Nine users with a shared interferer: exclusive-alignment property fails."""
    return Topology.of({2, 3}, {7}, {4, 5}, {7}, {6, 1}, {7}, set(), set(), {7, 8})


def parse_rational(literal) -> Fraction:
    """A rational literal as a Fraction, read by the package's one literal grammar (`_rational_pair`)."""
    if isinstance(literal, Fraction):
        return literal
    return Fraction(*_rational_pair(literal))


def full_set(universe: int) -> IndexSet:
    """Every index of [1, universe]."""
    return IndexSet(universe, tuple(range(1, universe + 1)))


def identity_matrix(n: int) -> ExactMatrix:
    return ExactMatrix.from_rows([[int(i == j) for j in range(n)] for i in range(n)], n_cols=n)


def column(m: ExactMatrix, j: int) -> tuple[Fraction, ...]:
    """Column with 0-based index j, read through `rows`."""
    return tuple(row[j] for row in m.rows)


def transpose(m: ExactMatrix) -> ExactMatrix:
    return ExactMatrix(tuple(column(m, j) for j in range(m.n_cols)), m.n_rows)


def take_rows(m: ExactMatrix, rows: IndexSet) -> ExactMatrix:
    """B_{X,*}: keep the rows in X, preserving their order."""
    if rows.universe != m.n_rows:
        raise ShapeError(f"row set over [{rows.universe}] applied to {m.n_rows}-row matrix")
    return ExactMatrix(tuple(m.rows[i - 1] for i in rows), m.n_cols)


def matmul(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """The product AB over Fraction."""
    if a.n_cols != b.n_rows:
        raise ShapeError(f"inner dimension mismatch: {a.n_cols} vs {b.n_rows}")
    cols = [column(b, j) for j in range(b.n_cols)]
    return ExactMatrix(
        tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a.rows), b.n_cols
    )


def submatrix(m: ExactMatrix, rows: IndexSet, cols: IndexSet) -> ExactMatrix:
    """B_{X,Y}: keep rows in X and columns in Y, preserving relative order."""
    return take_rows(m, rows).take_cols(cols)


def scale_column(m: ExactMatrix, j: int, factor) -> ExactMatrix:
    f = Fraction(factor)
    return ExactMatrix(
        tuple(tuple(v * f if k == j else v for k, v in enumerate(row)) for row in m.rows),
        m.n_cols,
    )


def is_zero(m: ExactMatrix) -> bool:
    return all(v == 0 for row in m.rows for v in row)


def issubset(a: IndexSet, b: IndexSet) -> bool:
    return a.universe == b.universe and set(a.members) <= set(b.members)


def cofactor_det(m: ExactMatrix) -> Fraction:
    """Determinant by Laplace expansion along the first row: independent of any elimination."""
    if m.n_rows == 0:
        return Fraction(1)
    total = Fraction(0)
    for j, v in enumerate(m.rows[0]):
        minor = ExactMatrix(tuple(row[:j] + row[j + 1:] for row in m.rows[1:]), m.n_cols - 1)
        total += (-1) ** j * v * cofactor_det(minor)
    return total


def sparse_intersection_basis(b: ExactMatrix, j: IndexSet) -> ExactMatrix:
    """Columns spanning colspan(B) & S_J, through the nullspace: independent of rank differences.

    Coefficient vectors c with B_{J^c,*} c = 0 are exactly those whose
    image Bc is supported inside J, so B times a nullspace basis of the
    J^c row restriction spans the intersection.
    """
    return matmul(b, nullspace_basis(take_rows(b, j.complement())))


def rref(m: ExactMatrix) -> tuple[ExactMatrix, tuple[int, ...]]:
    """Reduced row echelon form and the 0-based pivot columns, by Gauss-Jordan over Fraction.

    The reference for the library's integer echelon basis.
    """
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


def nullspace_rref(m: ExactMatrix) -> ExactMatrix:
    """nullspace_basis read off `rref`: one column per free variable, 1 there."""
    reduced, pivots = rref(m)
    cols = []
    for f in (j for j in range(m.n_cols) if j not in pivots):
        vec = [Fraction(0)] * m.n_cols
        vec[f] = Fraction(1)
        for r, p in enumerate(pivots):
            vec[p] = -reduced.rows[r][f]
        cols.append(vec)
    return ExactMatrix.from_columns(cols, n_rows=m.n_cols)


def adapted_basis_greedy(block: ExactMatrix, y: IndexSet, j: IndexSet) -> ExactMatrix:
    """A basis of colspan(B_{*,Y}) adapted to S_J, by its definition.

    Its leading columns span S_J & colspan(B_{*,Y}), through the nullspace
    of the rows outside J; columns of B_{*,Y} then follow greedily by rank.
    The only adapted basis: the Step 5 bridge test builds its support
    graphs on these columns, and the trailing columns are the ones
    `normalize_alignment` keeps of each member.
    """
    restricted = block.take_cols(y)
    basis = matmul(restricted, nullspace_rref(take_rows(restricted, j.complement())))
    target, current = rank(restricted), rank(basis)
    for c in range(restricted.n_cols):
        if current == target:
            break
        candidate = basis.hstack(ExactMatrix.from_columns([column(restricted, c)]))
        if rank(candidate) > current:
            basis, current = candidate, current + 1
    return basis


def minimal_fully_occupied(ensemble, Ys: Sequence[IndexSet], J: IndexSet, x: int) -> bool:
    """Exact check that the sparse subspace of a minimal J is fully occupied.

    Preconditions (all verified): the column choice has total size
    min(sum m_i, n); J achieves a sparse surplus of at least x; and no
    proper subset of J does.  The check then asks whether S_J lies almost
    surely inside the column span of the scaled chosen columns
    [D_1 B_1[:, Y_1] ... D_K B_K[:, Y_K]]: the lemma is about the column
    choice Ys, which is stronger than asking it of every column.  S_J's
    coordinate columns I_J keep their span under any scaling, so that
    holds exactly when C6 gives [chosen | I_J] the generic rank of the
    chosen blocks alone; a block whose Y_i is empty adds no column and is
    left out.  The lemma says every input that meets the preconditions
    answers True, so this is a check of the lemma, not a library route.
    """
    if len(Ys) != ensemble.K:
        raise ShapeError(f"{len(Ys)} column choices for {ensemble.K} blocks")
    total_cols = sum(len(y) for y in Ys)
    if total_cols != ensemble.R:
        raise PreconditionError(
            f"column choice totals {total_cols}, must equal min(sum m_i, n) = {ensemble.R}"
        )
    restricted = [b.take_cols(y) for b, y in zip(ensemble.blocks, Ys)]

    def surplus(rows: IndexSet) -> int:
        return sum(sparse_dim(b, rows) for b in restricted) - len(rows)

    if len(J) == 0:
        return True
    if surplus(J) < x:
        raise PreconditionError(f"J does not achieve sparse surplus {x}")
    for smaller in range(len(J)):
        for combo in itertools.combinations(J.members, smaller):
            if surplus(IndexSet(ensemble.n, combo)) >= x:
                raise PreconditionError(f"J is not minimal: {list(combo)} already achieves surplus {x}")

    chosen = tuple(b for b in restricted if b.n_cols)
    coordinates = ExactMatrix._of([[int(r == j) for j in J] for r in range(1, ensemble.n + 1)], (1,) * len(J))
    return generic_rank(Ensemble((*chosen, coordinates))) == generic_rank(Ensemble(chosen))


def defect_scan(graph: SupportGraph) -> int:
    """max over right subsets I of |I| - |N(I)|, by scanning all 2^|right| subsets.

    The reference for the library's defect, which comes from matching duality.
    """
    best = 0
    for mask in range(1 << graph.n_right):
        members = [r for r in range(graph.n_right) if mask >> r & 1]
        nbhd = 0
        for r in members:
            nbhd |= graph.adjacency(r)
        best = max(best, len(members) - nbhd.bit_count())
    return best


def build_support_graph(columns: Sequence[tuple[int, Sequence]]) -> SupportGraph:
    """Graph over (block, column-vector) pairs; edges exactly at nonzero entries.

    The reference for the library's graphs, which read `ExactMatrix._supports`
    instead of the columns' Fraction entries.
    """
    if not columns:
        raise PreconditionError("support graph needs at least one column")
    n = len(columns[0][1])
    rights = []
    per_block_count: dict[int, int] = {}
    for block, vec in columns:
        if len(vec) != n:
            raise ShapeError(f"column of length {len(vec)}, expected {n}")
        label = per_block_count.get(block, 0) + 1
        per_block_count[block] = label
        mask = 0
        for i, v in enumerate(vec):
            if Fraction(v) != 0:
                mask |= 1 << i
        rights.append((block, label, mask))
    return SupportGraph(n, tuple(rights))


def ensemble_support_graph(ensemble, Ys: Sequence[IndexSet] | None = None) -> SupportGraph:
    """Support graph of the chosen columns of every block (all columns by default)."""
    cols: list[tuple[int, tuple]] = []
    for i, block in enumerate(ensemble.blocks, start=1):
        chosen = Ys[i - 1] if Ys is not None else full_set(block.n_cols)
        for j in chosen:
            cols.append((i, column(block, j - 1)))
    return build_support_graph(cols)


def union_deficiency(ensemble, X: IndexSet, Ys: Sequence[IndexSet]) -> bool:
    """Is the union of the per-block dual matroids rank-deficient on X?

    Builds each block's scaled-linear matroid (raising a construction
    error naming the block when its precondition fails), dualizes, and
    tests union rank < |X|.  The reference for C4's partition condition.
    """
    if len(Ys) != ensemble.K:
        raise ShapeError(f"{len(Ys)} column choices for {ensemble.K} blocks")
    duals = []
    for i, (block, y) in enumerate(zip(ensemble.blocks, Ys), start=1):
        try:
            duals.append(dual(scaled_linear_matroid(block, X, y)))
        except PreconditionError as exc:
            raise PreconditionError(f"block {i}: {exc}") from None
    return union_rank(duals, X) < len(X)


def subsets(ground):
    """Every subset of a ground tuple, as tuples, by size and then lexicographically."""
    for r in range(len(ground) + 1):
        yield from itertools.combinations(ground, r)


def brute_union_rank(matroids, u) -> int:
    """Union rank of u by brute force: the largest subset split into pieces independent in each matroid."""
    best = 0
    for s in subsets(tuple(sorted(u))):
        if len(s) <= best:
            continue
        for assignment in itertools.product(range(len(matroids)), repeat=len(s)):
            parts = [set() for _ in matroids]
            for elem, who in zip(s, assignment):
                parts[who].add(elem)
            if all(is_independent(m, p) for m, p in zip(matroids, parts)):
                best = len(s)
                break
    return best


def structure_report_scan(topology: Topology, scheme: Scheme) -> StructureReport:
    """half_dof_structure_check by its definitions, for exact half-rate schemes.

    Alignment collapse scans all 2^n row sets J for sparse surplus n/2;
    conflict overlap asks, slot by slot, whether both users keep sparse
    dimension n/2 off that slot.  The reference for the library's C6 and
    row-support answers.
    """
    n = scheme.n
    half = n // 2
    checks = []
    for r in range(1, topology.K + 1):
        members = sorted(topology.interferers(r))
        for i1, i2 in itertools.combinations(members, 2):
            pair = (scheme.beamformers[i1 - 1], scheme.beamformers[i2 - 1])
            collapses = any(
                sum(sparse_dim(b, IndexSet.from_mask(n, jmask)) for b in pair)
                >= jmask.bit_count() + half
                for jmask in range(1 << n)
            )
            checks.append(StructureCheck("alignment-collapse", (i1, i2), r, collapses))
    for i, k in sorted(reduced_conflict_graph(topology).edges):
        b_i, b_k = scheme.beamformers[i - 1], scheme.beamformers[k - 1]
        overlap = any(
            sparse_dim(b_i, avoid) >= half and sparse_dim(b_k, avoid) >= half
            for avoid in (IndexSet.of(n, set(range(1, n + 1)) - {t}) for t in range(1, n + 1))
        )
        checks.append(StructureCheck("conflict-overlap", (i, k), None, not overlap))
    return StructureReport(tuple(checks))


def two_slot_schemes(k: int):
    """Every k-user scheme over two slots with one symbol per user: slot 1, slot 2 or both."""
    columns = ([1, 0], [0, 1], [1, 1])
    for combo in itertools.product(columns, repeat=k):
        yield Scheme(2, tuple(ExactMatrix.from_columns([c]) for c in combo))


def block_schemes(k: int):
    """n = 4, m = 2 structured half-rate designs: slot-block or dense supports."""
    shapes = (
        [[1, 0], [2, 1], [0, 0], [0, 0]],
        [[0, 0], [0, 0], [1, 0], [3, 1]],
        [[1, 0], [0, 1], [2, 3], [1, 5]],
    )
    for combo in itertools.product(shapes, repeat=k):
        yield Scheme(4, tuple(ExactMatrix.from_rows(rows) for rows in combo))


def fraction_scaled_rank(blocks, diags) -> int:
    """Rank of [D_1 B_1 | ... | D_k B_k], built over Fraction and ranked by the public kernel.

    The reference for the sampled route, which clears each block's column
    denominators once and eliminates integer rows; no blocks give rank 0.
    """
    scaled = [
        ExactMatrix(tuple(tuple(v * d for v in row) for row, d in zip(b.rows, diag)), b.n_cols)
        for b, diag in zip(blocks, diags)
    ]
    if not scaled:
        return 0
    out = scaled[0]
    for block in scaled[1:]:
        out = out.hstack(block)
    return rank(out)


def random_block(rng: random.Random, n: int, m: int) -> ExactMatrix:
    while True:
        rows = [[rng.choice(ENTRY_POOL) for _ in range(m)] for _ in range(n)]
        block = ExactMatrix.from_rows(rows)
        if is_full_column_rank(block):
            return block


def random_ensemble(rng: random.Random, max_n: int = 6, max_k: int = 3) -> Ensemble:
    n = rng.randint(2, max_n)
    k = rng.randint(1, max_k)
    ms = [rng.randint(1, min(3, n)) for _ in range(k)]
    return Ensemble(tuple(random_block(rng, n, m) for m in ms))


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)


@pytest.fixture(scope="module")
def matroid_instances():
    """Acceptance criteria 3 and 4's 200 scaled-linear matroids, grouped by their X."""
    rng = random.Random(1848)
    instances = []
    total = 0
    while total < 200:
        n = rng.randint(2, 6)
        xmembers = [v for v in range(1, n + 1) if rng.random() < 0.8] or [1]
        x = IndexSet.of(n, xmembers)
        group = []
        for _ in range(rng.randint(1, 3)):
            if total >= 200:
                break
            for _attempt in range(40):
                m = rng.randint(1, min(3, n))
                block = random_block(rng, n, m)
                y = full_set(m)
                try:
                    matroid = scaled_linear_matroid(block, x, y)
                except PreconditionError:
                    continue
                group.append((block, y, matroid))
                total += 1
                break
        if group:
            instances.append((x, group))
    return instances
