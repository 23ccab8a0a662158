"""Support graphs, matching duality, and the bridge to the C2 certificate."""

from __future__ import annotations

import random

import pytest

from rankloss.conditions import check_C2, column_choices, max_tau
from rankloss.errors import PreconditionError, ShapeError
from rankloss.exactla import ExactMatrix, IndexSet, sparse_dim
from rankloss.matching import SupportGraph, defect, hall_threshold_check, max_matching

from conftest import (
    adapted_basis_greedy,
    build_support_graph,
    column,
    defect_scan,
    e1,
    ensemble_support_graph,
    identity_matrix,
    random_ensemble,
)


def identity_graph(n: int) -> SupportGraph:
    eye = identity_matrix(n)
    return build_support_graph([(1, column(eye, j)) for j in range(n)])


def test_build_support_graph_identity():
    g = identity_graph(4)
    assert g.n_right == 4
    assert max_matching(g) == 4
    assert defect(g) == 0


def test_build_support_graph_fixture_columns():
    b1 = ExactMatrix.from_rows([[1, 1], [1, 2], [1, 3], [0, 0]])
    g = build_support_graph([(1, column(b1, 0)), (1, column(b1, 1))])
    for _, _, adj in g.rights:
        assert adj == 0b0111  # rows 1..3 only


def test_zero_column_is_isolated():
    g = build_support_graph([(1, (0, 0, 0))])
    assert g.rights[0][2] == 0
    assert max_matching(g) == 0
    assert defect(g) == 1


@pytest.mark.parametrize("n_left, mask", [(1, 0b10), (2, -1)])
def test_adjacency_outside_the_rows_refused(n_left, mask):
    # Such masks used to read a wrong max_matching or defect.
    with pytest.raises(ShapeError):
        SupportGraph(n_left, ((1, 1, mask),))


@pytest.mark.parametrize(
    "n_left, rights",
    [
        (-1, ((1, 1, 1),)),
        (True, ()),
        ("2", ()),
        (2, None),
        (2, [(1, 1, 1)]),
        (2, ((1, 1, 1.0),)),
        (2, ((1, 1, True),)),
        (2, ((1, 1),)),
        (2, ([1, 1, 1],)),
    ],
)
def test_malformed_graph_refused(n_left, rights):
    # A malformed graph is refused when it is built, not met later as a TypeError or a wrong answer.
    with pytest.raises(ShapeError):
        SupportGraph(n_left, rights)


@pytest.mark.parametrize("k", [True, 1.0, 1.5, "1", None])
def test_threshold_that_is_not_an_int_refused(k):
    # A bool or a float is not a threshold, even where it compares like one.
    with pytest.raises(PreconditionError):
        hall_threshold_check(identity_graph(2), k)


def test_pigeonhole_three_on_two_rows():
    g = build_support_graph([(1, (1, 1)), (1, (2, 1)), (2, (1, 3))])
    assert max_matching(g) == 2
    assert defect(g) == 1


def test_e1_columns_matching():
    g = ensemble_support_graph(e1())
    assert g.n_right == 4
    assert max_matching(g) == 3
    assert defect(g) == 1


def test_hall_threshold_examples():
    assert hall_threshold_check(identity_graph(4), 4)
    g = ensemble_support_graph(e1())
    assert not hall_threshold_check(g, 4)
    assert hall_threshold_check(g, 3)
    empty = build_support_graph([(1, (0, 0))])
    assert hall_threshold_check(empty, 0)
    with pytest.raises(PreconditionError):
        hall_threshold_check(empty, 3)


def random_graph(rng: random.Random, max_side: int = 12) -> SupportGraph:
    n_left = rng.randint(1, max_side)
    n_right = rng.randint(1, max_side)
    rights = []
    for r in range(n_right):
        adj = 0
        for i in range(n_left):
            if rng.random() < 0.3:
                adj |= 1 << i
        rights.append((1, r + 1, adj))
    return SupportGraph(n_left, rights=tuple(rights))


def test_koenig_duality_random(rng):
    for _ in range(120):
        g = random_graph(rng)
        assert max_matching(g) == g.n_right - defect_scan(g)


def test_hall_iff_matching_random(rng):
    for _ in range(60):
        g = random_graph(rng, max_side=8)
        mm = max_matching(g)
        for k in range(0, min(g.n_left, g.n_right) + 1):
            assert hall_threshold_check(g, k) == (mm >= k)


def test_step5_bridge_property(rng):
    # With bases adapted to a certificate J*, the support-graph matching is
    # at most R - tau exactly when the sparse-surplus certificate exists.
    for _ in range(25):
        e = random_ensemble(rng, max_n=5, max_k=2)
        r_cap = e.R
        tau = 1
        result = check_C2(e, tau)
        for ys in column_choices(e, r_cap):
            restricted = [b.take_cols(y) for b, y in zip(e.blocks, ys)]
            best_jmask, best_surplus = 0, 0
            for jmask in range(1 << e.n):
                j = IndexSet.from_mask(e.n, jmask)
                surplus = sum(sparse_dim(b, j) for b in restricted) - len(j)
                if surplus > best_surplus:
                    best_jmask, best_surplus = jmask, surplus
            j_star = IndexSet.from_mask(e.n, best_jmask)
            cols = []
            for i, (block, y) in enumerate(zip(e.blocks, ys), start=1):
                basis = adapted_basis_greedy(block, y, j_star)
                cols.extend((i, column(basis, c)) for c in range(basis.n_cols))
            graph = build_support_graph(cols)
            has_certificate = best_surplus >= tau
            if has_certificate:
                assert max_matching(graph) <= r_cap - tau
            else:
                assert max_matching(graph) >= r_cap - tau + 1
        assert result.holds == (max_tau(e) >= tau)
