"""Conflict graphs, DoF characterization, scheme synthesis, and verifiers."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from rankloss.errors import PreconditionError
from rankloss.exactla import ExactMatrix, IndexSet, sparse_dim
from rankloss.randrank import TrialConfig
from rankloss.tim import (
    ConflictGraph,
    Scheme,
    SparseAssignment,
    Topology,
    check_P1_P2,
    chromatic_number,
    half_dof_feasible,
    half_dof_structure_check,
    is_bipartite,
    ldof_sym,
    minimal_fully_occupied,
    normalize_alignment,
    reduced_conflict_graph,
    regular_conflict_graph,
    synth_exclusive_scheme,
    synth_half_dof_scheme,
    verify_decodability,
    _color_alignment_sets,
)

from conftest import e1, t6, t9a, t9b

FAST = TrialConfig(trials=5, seed=17)


def odd_cycle_topology() -> Topology:
    """Triangle of mutually conflicting alignment sets: reduced graph has C3."""
    return Topology.of({2, 3}, {3, 1}, {1, 2})


def chi2_topology() -> Topology:
    """Two alignment sets sharing a conflict: chi of the reduced graph is 2."""
    return Topology.of({2, 3}, {4, 5}, set(), set(), set())


# ---------------------------------------------------------------------------
# Conflict graphs
# ---------------------------------------------------------------------------

def test_regular_graph_t6():
    edges = regular_conflict_graph(t6()).edges
    assert edges == frozenset(
        {(6, 1), (6, 2), (6, 3), (2, 4), (5, 4), (3, 5), (4, 5), (1, 6)}
    )


def test_regular_graph_trivial():
    assert regular_conflict_graph(Topology.of(set(), set())).edges == frozenset()
    assert regular_conflict_graph(Topology.of(set(), {1})).edges == frozenset({(1, 2)})


def test_reduced_graph_t6():
    assert reduced_conflict_graph(t6()).edges == frozenset({(2, 4), (5, 4), (3, 5), (4, 5)})


def test_reduced_graph_shared_receiver():
    top = Topology.of(set(), set(), {1, 2})
    assert reduced_conflict_graph(top).edges == frozenset({(1, 3), (2, 3)})


def test_reduced_subset_of_regular_random(rng):
    for _ in range(50):
        k = rng.randint(1, 6)
        sets = []
        for j in range(1, k + 1):
            others = [i for i in range(1, k + 1) if i != j]
            rng.shuffle(others)
            sets.append(set(others[: rng.randint(0, min(3, len(others)))]))
        top = Topology.of(*sets)
        assert reduced_conflict_graph(top).edges <= regular_conflict_graph(top).edges


def test_bipartite_t6():
    ok, parts = is_bipartite(reduced_conflict_graph(t6()))
    assert ok
    nontrivial = {frozenset(p) - {1, 6} for p in parts}
    assert nontrivial == {frozenset({2, 5}), frozenset({3, 4})}
    assert not is_bipartite(regular_conflict_graph(t6()))[0]


def test_bipartite_triangle():
    triangle = ConflictGraph(3, frozenset({(1, 2), (2, 3), (3, 1)}), "regular")
    assert not is_bipartite(triangle)[0]


def test_chromatic_numbers():
    edgeless = ConflictGraph(4, frozenset(), "regular")
    assert chromatic_number(edgeless) == 1
    assert chromatic_number(regular_conflict_graph(t6())) == 3
    c5 = ConflictGraph(5, frozenset({(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)}), "regular")
    assert chromatic_number(c5) == 3


def test_chromatic_capacity():
    with pytest.raises(Exception):
        chromatic_number(ConflictGraph(21, frozenset(), "regular"))


# ---------------------------------------------------------------------------
# P1/P2 and feasibility
# ---------------------------------------------------------------------------

def test_p1_p2_fixtures():
    assert check_P1_P2(t9a()) == (True, ())
    ok, violations = check_P1_P2(t9b())
    assert not ok
    assert ("P2", 2, 9, (7,)) in violations
    # mechanical application on T6: all size-2 sets are pairwise disjoint
    assert check_P1_P2(t6())[0]


def test_p1_violation():
    top = Topology.of(set(), set(), set(), {1, 2, 3})
    ok, violations = check_P1_P2(top)
    assert not ok and ("P1", 4) in violations


def test_half_dof_feasible_cases():
    assert half_dof_feasible(t6())
    assert not half_dof_feasible(odd_cycle_topology())
    assert half_dof_feasible(Topology.of(set(), set()))


# ---------------------------------------------------------------------------
# Half-DoF scheme synthesis
# ---------------------------------------------------------------------------

def test_t6_scheme_matches_activation_pattern():
    scheme = synth_half_dof_scheme(t6())
    assert scheme.n == 2 and scheme.symbol_counts == (1,) * 6
    assert scheme.activation_pattern() == ((2,), (1,), (2,), (2,), (1,), (1, 2))


def test_scheme_no_interference_all_dense():
    scheme = synth_half_dof_scheme(Topology.of(set(), set(), set()))
    assert scheme.activation_pattern() == ((1, 2),) * 3


def test_scheme_single_link_no_shared_receiver():
    # reduced graph edgeless: both users repeat across both slots
    scheme = synth_half_dof_scheme(Topology.of(set(), {1}))
    assert scheme.activation_pattern() == ((1, 2), (1, 2))
    report = verify_decodability(Topology.of(set(), {1}), scheme, FAST)
    assert report.ok


def test_scheme_infeasible_raises():
    with pytest.raises(PreconditionError):
        synth_half_dof_scheme(odd_cycle_topology())


def random_topology(rng: random.Random, max_k: int = 6) -> Topology:
    k = rng.randint(2, max_k)
    sets = []
    for j in range(1, k + 1):
        others = [i for i in range(1, k + 1) if i != j]
        rng.shuffle(others)
        sets.append(set(others[: rng.choice([0, 0, 1, 1, 1, 2, 2, 3])]))
    return Topology.of(*sets)


def test_feasible_topologies_decode(rng):
    # Achievability, exercised: whenever the reduced graph is bipartite the
    # synthesized two-slot scheme passes decodability at every receiver.
    checked = 0
    while checked < 30:
        top = random_topology(rng)
        if not half_dof_feasible(top):
            continue
        scheme = synth_half_dof_scheme(top)
        report = verify_decodability(top, scheme, FAST)
        assert report.ok, (top, scheme.activation_pattern(), report.per_receiver)
        assert half_dof_structure_check(top, scheme).ok
        checked += 1


# ---------------------------------------------------------------------------
# LDoF formula and exclusive schemes
# ---------------------------------------------------------------------------

def test_ldof_values():
    assert ldof_sym(Topology.of(set(), {1})) == Fraction(1, 2)  # chi = 1
    assert ldof_sym(chi2_topology()) == Fraction(1, 2)  # (2+1)/6
    assert ldof_sym(t9a()) == Fraction(4, 9)
    assert ldof_sym(t6()) == Fraction(1, 2)


def test_ldof_preconditions():
    with pytest.raises(PreconditionError):
        ldof_sym(Topology.of(set(), set()))  # no interference link
    with pytest.raises(PreconditionError):
        ldof_sym(t9b())  # P2 violated


def test_exclusive_scheme_t9a():
    scheme, assignment = synth_exclusive_scheme(t9a())
    assert scheme.n == 9 and scheme.symbol_counts == (4,) * 9
    windows = [set(s) for s in (assignment.get(1), assignment.get(2), assignment.get(3))]
    assert sorted(map(tuple, map(sorted, windows))) == [(1, 2, 3), (4, 5, 6), (7, 8, 9)]
    assert all(assignment.get(r) is None for r in range(4, 10))
    report = verify_decodability(t9a(), scheme, FAST)
    assert report.ok


def test_exclusive_scheme_chi2():
    top = chi2_topology()
    scheme, assignment = synth_exclusive_scheme(top)
    assert scheme.n == 6 and scheme.symbol_counts == (3,) * 5
    w1, w2 = set(assignment.get(1)), set(assignment.get(2))
    assert not (w1 & w2) and len(w1) == len(w2) == 3
    assert verify_decodability(top, scheme, FAST).ok


def test_alignment_coloring_where_greedy_overshoots():
    # Largest-degree-first greedy would need a third color on this
    # alignment-conflict relation; the coloring must stay within chi = 2.
    top = Topology.of(
        {2, 16}, {10}, {8}, {12, 14}, {3}, set(), {8}, {3}, {15}, {4, 19},
        set(), {13, 17}, {10}, set(), set(), {6, 20}, {1, 7}, {3}, set(), {8},
    )
    assert chromatic_number(reduced_conflict_graph(top)) == 2
    assert _color_alignment_sets(top, 2) == {1: 0, 4: 1, 12: 0, 17: 1, 10: 0, 16: 1}
    scheme, _ = synth_exclusive_scheme(top)
    assert scheme.n == 6
    assert verify_decodability(top, scheme, FAST).ok


def test_exclusive_scheme_chi1_routes_to_half():
    scheme, assignment = synth_exclusive_scheme(Topology.of(set(), {1}))
    assert scheme.n == 2
    assert all(s is None for s in assignment.sets)


def test_exclusive_scheme_requires_p1p2():
    with pytest.raises(PreconditionError):
        synth_exclusive_scheme(t9b())


def random_p1p2_topology(rng: random.Random) -> Topology:
    # alignment sets chained or cycled through their receivers (each member
    # appears in exactly one set, so P2 holds by construction), plus
    # singleton links among leftover users
    k = rng.randint(5, 9)
    users = list(range(1, k + 1))
    rng.shuffle(users)
    n_align = rng.randint(1, 3)
    receivers = users[:n_align]
    pool = users[n_align:]
    sets = [set() for _ in range(k)]
    cycle = rng.random() < 0.6 and n_align >= 2
    for idx, r in enumerate(receivers):
        members = set()
        if cycle:
            members.add(receivers[(idx + 1) % n_align])
        while len(members) < 2 and pool:
            members.add(pool.pop())
        if len(members) == 2:
            sets[r - 1] = members
    pair_members = set().union(*(s for s in sets if s)) if any(sets) else set()
    free = [u for u in users if u not in pair_members]
    for j in free:
        others = [u for u in free if u != j and not sets[j - 1]]
        if others and rng.random() < 0.4 and not sets[j - 1]:
            sets[j - 1] = {rng.choice(others)}
    return Topology.of(*sets)


def test_random_p1p2_topologies_exclusive_scheme_decodes(rng):
    checked = 0
    seen_chis = set()
    while checked < 20:
        top = random_p1p2_topology(rng)
        if not check_P1_P2(top)[0] or not top.has_interference():
            continue
        chi = chromatic_number(reduced_conflict_graph(top))
        seen_chis.add(chi)
        scheme, assignment = synth_exclusive_scheme(top)
        if chi == 1:
            assert scheme.n == 2
        else:
            assert scheme.n == 3 * chi and set(scheme.symbol_counts) == {chi + 1}
            report = verify_decodability(top, scheme, FAST)
            assert report.ok, (top, assignment.sets, report.per_receiver)
        checked += 1
    assert {2, 3} <= seen_chis, f"generator did not cover chi in {{2,3}}: {seen_chis}"


def test_exclusive_window_structure():
    scheme, assignment = synth_exclusive_scheme(t9a())
    top = t9a()
    for r in (1, 2, 3):
        window = assignment.get(r)
        for i in top.interferers(r):
            assert sparse_dim(scheme.beamformers[i - 1], window) == 3
        assert sparse_dim(scheme.beamformers[r - 1], window) == 0


# ---------------------------------------------------------------------------
# Decodability and structure checks
# ---------------------------------------------------------------------------

def test_t6_decodability_all_receivers():
    report = verify_decodability(t6(), synth_half_dof_scheme(t6()), TrialConfig(seed=2))
    assert report.per_receiver == (True,) * 6


def test_decodability_shape_error():
    scheme = synth_half_dof_scheme(Topology.of(set(), {1}))
    with pytest.raises(Exception):
        verify_decodability(t6(), scheme, FAST)


def test_structure_check_t6_passes():
    report = half_dof_structure_check(t6(), synth_half_dof_scheme(t6()))
    assert report.ok


def test_structure_check_requires_half_rate():
    top = Topology.of(set(), {1})
    bad = Scheme(4, tuple(ExactMatrix.from_columns([[1, 2, 3, 4]]) for _ in range(2)))
    with pytest.raises(PreconditionError):
        half_dof_structure_check(top, bad)


def test_structure_check_generic_conflicting_pair_fails():
    # generic beamformers on an alignment pair cannot collapse into a
    # half-size sparse window
    top = Topology.of(set(), set(), {1, 2})
    s = Scheme(
        4,
        (
            ExactMatrix.from_columns([[1, 2, 3, 4], [0, 1, 1, 5]]),
            ExactMatrix.from_columns([[1, 5, 7, 11], [2, 0, 1, 3]]),
            ExactMatrix.from_columns([[2, 3, 5, 7], [1, 1, 0, 2]]),
        ),
    )
    report = half_dof_structure_check(top, s)
    kinds = {(c.kind, c.ok) for c in report.checks}
    assert ("alignment-collapse", False) in kinds


def test_structure_check_never_flags_decodable_scheme():
    # regression: a repetition column overlapping a slotted user's support
    # is fine when no commonly avoidable slot exists
    top = Topology.of(set(), {6}, {4}, {6, 7}, {7}, set(), {2, 3})
    scheme = synth_half_dof_scheme(top)
    assert verify_decodability(top, scheme, FAST).ok
    report = half_dof_structure_check(top, scheme)
    assert report.ok, report.violations()


def test_structure_check_flags_all_dense_on_odd_cycle():
    # every user repeating in both slots: no pair can collapse its
    # interference into one dimension
    top = odd_cycle_topology()
    dense = Scheme(2, tuple(ExactMatrix.from_columns([[1, 1]]) for _ in range(3)))
    report = half_dof_structure_check(top, dense)
    assert not report.ok
    assert all(c.kind == "alignment-collapse" for c in report.violations())


def all_two_slot_schemes(k: int):
    patterns = [(1,), (2,), (1, 2)]
    columns = {(1,): [1, 0], (2,): [0, 1], (1, 2): [1, 1]}
    for combo in itertools.product(patterns, repeat=k):
        yield Scheme(2, tuple(ExactMatrix.from_columns([columns[p]]) for p in combo))


def test_odd_cycle_always_violates_structure():
    # pigeonhole: three pairwise-disjoint half-size supports cannot exist
    top = odd_cycle_topology()
    for scheme in all_two_slot_schemes(3):
        report = half_dof_structure_check(top, scheme)
        assert not report.ok


def test_no_m5_design_in_synthesized_family_at_n9():
    # Interference-dimension accounting for the synthesized family at chi=3:
    # a member spends w columns inside a shared window of |J| = w and the
    # remaining m - w columns densely, so an alignment receiver sees
    # min(w + 2(m - w), n) interference dimensions, and three mutually
    # conflicting windows must be pairwise disjoint (3w <= n).  No window
    # size admits m = 5 symbols over n = 9 slots.
    n, m = 9, 5
    feasible = [
        w
        for w in range(n + 1)
        if 3 * w <= n and min(w + 2 * (m - w), n) <= n - m and w <= m
    ]
    assert feasible == []
    # the synthesized m = 4 point is the boundary: window size 3 works
    assert [w for w in range(n + 1) if 3 * w <= n and w + 2 * (4 - w) <= n - 4 and w <= 4] == [3]


# ---------------------------------------------------------------------------
# Fully-occupied sparse subspaces
# ---------------------------------------------------------------------------

def test_minimal_fully_occupied_e1():
    e = e1()
    ys = (IndexSet.full(2), IndexSet.full(2))
    assert minimal_fully_occupied(e, ys, IndexSet.of(4, [1, 2, 3]), 1, FAST)


def test_minimal_fully_occupied_empty_vacuous():
    e = e1()
    ys = (IndexSet.full(2), IndexSet.full(2))
    assert minimal_fully_occupied(e, ys, IndexSet.empty(4), 1, FAST)


def test_minimal_fully_occupied_rejects_non_minimal():
    e = e1()
    ys = (IndexSet.full(2), IndexSet.full(2))
    with pytest.raises(PreconditionError):
        minimal_fully_occupied(e, ys, IndexSet.full(4), 1, FAST)


def test_minimal_fully_occupied_rejects_bad_surplus():
    e = e1()
    ys = (IndexSet.full(2), IndexSet.full(2))
    with pytest.raises(PreconditionError):
        minimal_fully_occupied(e, ys, IndexSet.of(4, [1, 2]), 1, FAST)


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------

def test_normalize_idempotent_on_synth_output():
    top = t9a()
    scheme, assignment = synth_exclusive_scheme(top)
    new_scheme, new_assignment = normalize_alignment(top, scheme, assignment)
    for r in (1, 2, 3):
        assert set(new_assignment.get(r)) == set(assignment.get(r))
        window = new_assignment.get(r)
        for i in top.interferers(r):
            assert sparse_dim(new_scheme.beamformers[i - 1], window) == sparse_dim(
                scheme.beamformers[i - 1], window
            )
    assert verify_decodability(top, new_scheme, FAST).ok


def test_normalize_trims_oversized_window():
    # single alignment set, n=5, m=2, tau = 3m - n = 1
    top = Topology.of(set(), set(), {1, 2})
    b1 = ExactMatrix.from_columns([[1, 0, 0, 0, 0], [0, 1, 0, 0, 0]])
    b2 = ExactMatrix.from_columns([[1, 2, 0, 0, 0], [3, 1, 4, 1, 5]])
    b3 = ExactMatrix.from_columns([[2, 3, 5, 7, 11], [1, 4, 9, 16, 25]])
    scheme = Scheme(5, (b1, b2, b3))
    assignment = SparseAssignment(5, (None, None, IndexSet.of(5, [1, 2])))
    new_scheme, new_assignment = normalize_alignment(top, scheme, assignment)
    j_new = new_assignment.get(3)
    assert len(j_new) == 1
    for i in (1, 2):
        assert sparse_dim(new_scheme.beamformers[i - 1], j_new) == 1
    assert sparse_dim(new_scheme.beamformers[2], j_new) == 0


def test_normalize_extra_mass_yields_exact_window():
    top = t9a()
    scheme, assignment = synth_exclusive_scheme(top)
    # user 2's fourth column leaks partially outside its window {1,2,3}
    extra = [0] * 9
    extra[0], extra[1], extra[2], extra[6] = 1, 2, 3, 5  # support {1,2,3,7}
    b2 = ExactMatrix.from_columns(
        [[1 if r == c else 0 for r in range(9)] for c in range(3)] + [extra]
    )
    blocks = list(scheme.beamformers)
    blocks[1] = b2
    new_scheme, new_assignment = normalize_alignment(top, Scheme(9, tuple(blocks)), assignment)
    j_new = new_assignment.get(1)
    assert set(j_new) == {1, 2, 3}
    # exactly tau columns of the rebuilt beamformer live in the window
    assert sparse_dim(new_scheme.beamformers[1], j_new) == 3
    assert new_scheme.beamformers[1].n_cols == 4


def test_normalize_rejects_own_overlap():
    top = Topology.of(set(), set(), {1, 2})
    b1 = ExactMatrix.from_columns([[1, 0, 0, 0, 0], [0, 1, 0, 0, 0]])
    b2 = ExactMatrix.from_columns([[1, 2, 0, 0, 0], [3, 1, 4, 1, 5]])
    own_in_window = ExactMatrix.from_columns([[1, 1, 0, 0, 0], [0, 0, 1, 2, 3]])
    scheme = Scheme(5, (b1, b2, own_in_window))
    assignment = SparseAssignment(5, (None, None, IndexSet.of(5, [1, 2])))
    with pytest.raises(PreconditionError):
        normalize_alignment(top, scheme, assignment)
