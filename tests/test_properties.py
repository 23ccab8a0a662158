"""Invariances the theory guarantees, checked on random small ensembles.

Almost-sure rank loss depends only on each block's column span and on
the row structure up to the random scaling, so `max_tau` and every
`cross_validate` verdict must survive a joint row permutation, a block
permutation, rescaling one row of one block, and a change of basis of
one block's columns.  `cross_validate` raises when C1-C5 disagree, so
each example also checks the five routes against one another; `max_tau`
comes from C6, and C2 must hold exactly at the taus up to it.  C6's
partition must also be the one `matroid_partition` finds with circuits
read off plain independence queries.  The package's constructors refuse
any other Python value with a PreconditionError.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rankloss.conditions import Ensemble, _row_union, check_C2, cross_validate, max_tau
from rankloss.errors import PreconditionError
from rankloss.exactla import ExactMatrix, IndexSet, _bareiss, is_full_column_rank
from rankloss.matroid import independence_circuits, matroid_partition
from rankloss.randrank import TrialConfig
from rankloss.tim import Scheme, Topology

from conftest import cofactor_det, matmul

PROPERTY = settings(max_examples=30, derandomize=True, deadline=None, database=None)

entries = st.sampled_from([1, 0, -1, 2])
sparse_entries = st.sampled_from([0, 1, 0, -1, 2, 0])


def _matrix(draw, n_rows: int, n_cols: int, pool=entries) -> list[list[int]]:
    return draw(st.lists(st.lists(pool, min_size=n_cols, max_size=n_cols), min_size=n_rows, max_size=n_rows))


@st.composite
def ensembles(draw) -> Ensemble:
    # Rows left zero in every block make rank loss likely once sum m_i
    # reaches n - 1; draws are ordered so examples shrink towards that case.
    n = draw(st.integers(2, 5))
    zero_rows = draw(st.permutations(range(n)))[: min(draw(st.sampled_from([1, 2, 0])), n - 1)]
    width = min(3, n - len(zero_rows))
    blocks = []
    for _ in range(draw(st.sampled_from([3, 2, 1]))):
        rows = _matrix(draw, n, draw(st.sampled_from(range(width, 0, -1))))
        for r in zero_rows:
            rows[r] = [0] * len(rows[r])
        block = ExactMatrix.from_rows(rows)
        assume(is_full_column_rank(block))
        blocks.append(block)
    return Ensemble(tuple(blocks))


def outcome(e: Ensemble) -> tuple[int, list[dict[str, bool]]]:
    return max_tau(e), [cross_validate(e, tau).verdicts for tau in range(1, e.R + 1)]


@PROPERTY
@given(ensembles(), st.data())
def test_joint_row_permutation(e, data):
    perm = data.draw(st.permutations(range(e.n)))
    permuted = Ensemble(tuple(ExactMatrix(tuple(b.rows[i] for i in perm), b.n_cols) for b in e.blocks))
    assert outcome(permuted) == outcome(e)


@PROPERTY
@given(ensembles(), st.data())
def test_block_permutation(e, data):
    assert outcome(Ensemble(tuple(data.draw(st.permutations(e.blocks))))) == outcome(e)


@PROPERTY
@given(
    ensembles(),
    st.data(),
    st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(lambda q: q != 0),
)
def test_row_scaling(e, data, q):
    i = data.draw(st.integers(0, e.K - 1))
    r = data.draw(st.integers(0, e.n - 1))
    block = e.blocks[i]
    rows = tuple(tuple(v * q for v in row) if k == r else row for k, row in enumerate(block.rows))
    scaled = e.blocks[:i] + (ExactMatrix(rows, block.n_cols),) + e.blocks[i + 1 :]
    assert outcome(Ensemble(scaled)) == outcome(e)


@PROPERTY
@given(ensembles(), st.data())
def test_column_change_of_basis(e, data):
    i = data.draw(st.integers(0, e.K - 1))
    m = e.blocks[i].n_cols
    g = ExactMatrix.from_rows(_matrix(data.draw, m, m))
    assume(cofactor_det(g) != 0)
    changed = e.blocks[:i] + (matmul(e.blocks[i], g),) + e.blocks[i + 1 :]
    assert outcome(Ensemble(changed)) == outcome(e)


@PROPERTY
@given(ensembles())
def test_c2_holds_exactly_up_to_c6_max_tau(e):
    # C6 (matroid partition) and C2 (exhaustive J scans) agree at every tau.
    tau_star = max_tau(e)
    assert [check_C2(e, tau).holds for tau in range(1, e.R + 1)] == [tau <= tau_star for tau in range(1, e.R + 1)]


@st.composite
def wider_ensembles(draw) -> Ensemble:
    # Up to 7 rows and 4 blocks, fractional entries, and in some a row
    # zero in every block; sparse entries make augmenting paths likely.
    n = draw(st.integers(1, 7))
    zero_rows = draw(st.sets(st.integers(0, n - 1), max_size=2)) if n > 1 else set()
    blocks = []
    for _ in range(draw(st.integers(1, 4))):
        width = draw(st.integers(1, max(1, min(4, n - len(zero_rows)))))
        rows = _matrix(draw, n, width, sparse_entries)
        for r in range(n):
            rows[r] = [0] * width if r in zero_rows else [Fraction(v, draw(st.sampled_from([1, 3]))) for v in rows[r]]
        block = ExactMatrix.from_rows(rows)
        assume(is_full_column_rank(block))
        blocks.append(block)
    return Ensemble(tuple(blocks))


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(wider_ensembles())
def test_c6_partition_matches_independence_queries(e):
    grids, widths = [block._grid for block in e.blocks], e.column_counts

    def independent(i, rows):
        return _bareiss([grids[i][r - 1][:] for r in rows], widths[i]) == len(rows)

    assert _row_union(e) == matroid_partition(range(1, e.n + 1), e.K, independence_circuits(independent))


_valid = [
    Topology.of({2}, set()),
    Scheme(2, (ExactMatrix.from_columns([[1, 0]]),)),
    Ensemble.of([[1], [0]]),
    IndexSet(2, (1,)),
    ExactMatrix.from_columns([[1, 0]]),
    TrialConfig(),
]
# Ints stay small: a count sizes what a constructor allocates.
_counts = st.integers(-1, 3)
_scalars = (
    st.none() | st.booleans() | _counts | st.floats() | st.text(max_size=3)
    | st.frozensets(_counts, max_size=2) | st.sampled_from(_valid)
)
_values = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=3) | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=6,
)
_tuples = st.lists(_values, max_size=3).map(tuple)

# Each constructor, its required argument count, and per argument a
# strategy of roughly the right type, so that its later checks are reached.
CONSTRUCTORS = [
    (Topology, 1, (_tuples,)),
    (Topology.of, 1, (st.lists(_counts, max_size=3),) * 3),
    (Scheme, 2, (_counts, _tuples, st.none() | _tuples)),
    (Ensemble, 1, (_tuples,)),
    (Ensemble.of, 1, (st.lists(_values, max_size=3),) * 2),
    (IndexSet, 2, (_counts, _tuples)),
    (IndexSet.of, 2, (_counts, st.lists(_counts, max_size=3))),
    (IndexSet.from_mask, 2, (_counts, st.integers(-1, 15))),
    (ExactMatrix, 1, (st.lists(_values, max_size=3), st.none() | _counts)),
    (ExactMatrix.from_rows, 1, (st.lists(_values, max_size=3), st.none() | _counts)),
    (ExactMatrix.from_columns, 1, (st.lists(_values, max_size=3), st.none() | _counts)),
    (TrialConfig, 0, (_counts, _counts, _counts)),
]


@st.composite
def constructor_calls(draw):
    build, required, typed = draw(st.sampled_from(CONSTRUCTORS))
    count = draw(st.integers(required, len(typed)))
    return build, [draw(st.one_of(strategy, _values)) for strategy in typed[:count]]


@settings(max_examples=600, derandomize=True, deadline=None, database=None)
@given(constructor_calls())
def test_constructors_raise_only_precondition_errors(call):
    # ShapeError and CapacityError are PreconditionErrors; an AttributeError
    # or a TypeError means a constructor met a value it never checked.
    build, args = call
    try:
        build(*args)
    except PreconditionError:
        pass
