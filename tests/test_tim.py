"""Conflict graphs, DoF characterization, scheme synthesis, and verifiers."""

from __future__ import annotations

import itertools
import json
import random
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import rankloss
from rankloss import fileio
from rankloss.conditions import Ensemble, generic_rank
from rankloss.errors import PreconditionError, ShapeError
from rankloss.exactla import ExactMatrix, IndexSet, is_full_column_rank, sparse_dim
from rankloss.matching import build_support_graph, max_matching
from rankloss.randrank import TrialConfig
from rankloss.tim import (
    ConflictGraph,
    Scheme,
    SparseAssignment,
    StructureCheck,
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
    _prime_stream,
    _term_ranks,
)

from conftest import (
    ENTRY_POOL,
    FIXTURES,
    block_schemes,
    e1,
    fraction_scaled_rank,
    structure_report_scan,
    t6,
    t9a,
    t9b,
    two_slot_schemes,
)

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
    report = verify_decodability(Topology.of(set(), {1}), scheme)
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
        report = verify_decodability(top, scheme)
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
    report = verify_decodability(t9a(), scheme)
    assert report.ok


def test_exclusive_scheme_chi2():
    top = chi2_topology()
    scheme, assignment = synth_exclusive_scheme(top)
    assert scheme.n == 6 and scheme.symbol_counts == (3,) * 5
    w1, w2 = set(assignment.get(1)), set(assignment.get(2))
    assert not (w1 & w2) and len(w1) == len(w2) == 3
    assert verify_decodability(top, scheme).ok


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
    assert verify_decodability(top, scheme).ok


def test_exclusive_scheme_chi1_routes_to_half():
    scheme, assignment = synth_exclusive_scheme(Topology.of(set(), {1}))
    assert scheme.n == 2
    assert all(s is None for s in assignment.sets)


def test_exclusive_scheme_rejects_singular_prime_fill():
    # The first block of primes meets the window structure but leaves
    # receiver 4's desired block inside its interference; the generic
    # decodability postcondition moves the fill to the next block.
    top = Topology.of([], [1], [], [1], [8], [3, 5], [], [9], [4, 6])
    scheme, _ = synth_exclusive_scheme(top)
    assert verify_decodability(top, scheme).ok


def test_prime_stream_matches_sieve():
    limit = 17_390  # just past the 2000th prime, 17389
    composite = bytearray(limit)
    primes = []
    for v in range(2, limit):
        if not composite[v]:
            primes.append(v)
            composite[v * v :: v] = b"\x01" * len(range(v * v, limit, v))
    primes = primes[:2000]
    assert list(itertools.islice(_prime_stream(), 2000)) == primes
    assert list(itertools.islice(_prime_stream(skip=97), 5)) == primes[97:102]


def test_synthesis_and_verify_clear_each_beamformer_once(monkeypatch):
    # Synthesis builds each beamformer's integer grid once; the
    # postconditions, every C6 Ensemble, Scheme and verify_decodability read
    # that grid and its rank, parse no literal and build no Fraction rows.
    built, parsed = [], []
    of = ExactMatrix._of.__func__

    def recording(cls, grid, scales):
        built.append(of(cls, grid, scales))
        return built[-1]

    monkeypatch.setattr(ExactMatrix, "_of", classmethod(recording))
    monkeypatch.setattr(rankloss.exactla, "_rational_pair", parsed.append)
    # t9a takes the first fill; this topology's first fill fails its postconditions
    for top in (t9a(), Topology.of([], [1], [], [1], [8], [3, 5], [], [9], [4, 6])):
        built.clear()
        scheme, _ = synth_exclusive_scheme(top)
        assert verify_decodability(top, scheme).ok
        grids = Counter(tuple(map(tuple, m._grid)) for m in built)
        for b in scheme.beamformers:
            assert any(m is b for m in built)
            assert grids[tuple(map(tuple, b._grid))] == 1
            assert set(b._scales) == {1} and "_rank" in vars(b)
        assert parsed == [] and not any("rows" in vars(m) for m in built)


def test_one_matching_pass_gives_both_term_ranks(rng):
    # The pass read after the interference columns and after all columns
    # equals two separate maximum matchings on the columns' Fraction supports.
    def term_rank(blocks):
        columns = [(i, b.column(c)) for i, b in enumerate(blocks, start=1) for c in range(b.n_cols)]
        return max_matching(build_support_graph(columns))

    for topology, scheme in fixture_cases() + generated_exclusive_cases(rng, 20):
        for j in range(1, topology.K + 1):
            interference = [scheme.beamformers[i - 1] for i in sorted(topology.interferers(j))]
            if interference:
                own = scheme.beamformers[j - 1]
                separate = (term_rank(interference + [own]), term_rank(interference))
                assert _term_ranks(interference, own) == separate, (topology, j)


def test_verify_eliminates_once_per_receiver_trial(monkeypatch, c6_calls):
    # Both ranks of a receiver come from one modular elimination of
    # [interference | B_j] at one draw, and on these schemes every trial
    # reaches the term ranks, so nothing is eliminated over the integers
    # and C6 never runs; a receiver that hears no interferer has rank m_j
    # at every draw and is not eliminated at all.
    calls = Counter()

    def counting(name, eliminate):
        def counted(*args):
            calls[name] += 1
            return eliminate(*args)

        return counted

    cases = [(t9a(), synth_exclusive_scheme(t9a())[0]), (t6(), synth_half_dof_scheme(t6()))]
    bareiss = counting("bareiss", rankloss.exactla._bareiss)
    for module in (rankloss.exactla, rankloss.randrank, rankloss.conditions):
        monkeypatch.setattr(module, "_bareiss", bareiss)
    rank_mod = counting("rank_mod", rankloss.exactla._rank_mod)
    for module in (rankloss.exactla, rankloss.tim):
        monkeypatch.setattr(module, "_rank_mod", rank_mod)
    for topology, scheme in cases:
        calls.clear()
        report = verify_decodability(topology, scheme)
        heard = [j for j in range(1, topology.K + 1) if topology.interferers(j)]
        assert calls == {"rank_mod": len(heard)}
        assert c6_calls == []
        assert report.certified == (True,) * topology.K
        for j in range(1, topology.K + 1):
            if j not in heard:
                assert report.ranks[j - 1] == (scheme.beamformers[j - 1].n_cols, 0)


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
            report = verify_decodability(top, scheme)
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
    report = verify_decodability(t6(), synth_half_dof_scheme(t6()))
    assert report.per_receiver == (True,) * 6


def test_decodability_shape_error():
    scheme = synth_half_dof_scheme(Topology.of(set(), {1}))
    with pytest.raises(Exception):
        verify_decodability(t6(), scheme)


def c6_decodability(topology: Topology, scheme: Scheme):
    """verify_decodability's verdicts and rank pairs, each generic rank from C6."""
    ranks = []
    for j in range(1, topology.K + 1):
        desired = scheme.beamformers[j - 1]
        interference = tuple(scheme.beamformers[i - 1] for i in sorted(topology.interferers(j)))
        if interference:
            ranks.append((generic_rank(Ensemble(interference + (desired,))), generic_rank(Ensemble(interference))))
        else:
            ranks.append((desired.n_cols, 0))
    per_receiver = tuple(c == b.n_cols + i for (c, i), b in zip(ranks, scheme.beamformers))
    return per_receiver, tuple(ranks)


def fraction_route_pair(topology: Topology, scheme: Scheme, j: int) -> tuple[int, int]:
    """Receiver j's rank pair at its one draw (stream j of `tim._DRAW`), rebuilt over Fraction."""
    desired = scheme.beamformers[j - 1]
    interference = [scheme.beamformers[i - 1] for i in sorted(topology.interferers(j))]
    cfg = rankloss.tim._DRAW
    rng = cfg.trial_rng(j)
    # stream j: the desired block draws first, then the interferers in ascending order
    diags = [[rng.randint(1, cfg.entry_bound) for _ in range(scheme.n)] for _ in range(1 + len(interference))]
    return (
        fraction_scaled_rank(interference + [desired], diags[1:] + diags[:1]),
        fraction_scaled_rank(interference, diags[1:]),
    )


def assert_matches_c6(topology: Topology, scheme: Scheme):
    """The report equals C6's; a certified pair is also the exact pair at its draw."""
    report = verify_decodability(topology, scheme)
    assert (report.per_receiver, report.ranks) == c6_decodability(topology, scheme)
    for j in range(1, topology.K + 1):
        if report.certified[j - 1] and topology.interferers(j):
            assert report.ranks[j - 1] == fraction_route_pair(topology, scheme, j)
    return report


def mixed_case() -> tuple[Topology, Scheme]:
    """Fractional entries with mixed denominators inside a column.

    Receiver 2 hears no one and receiver 3 cannot decode.  With scalings
    in {1, 2}, det [D b_2 | D' b_1] = d_1 d'_2 - d_2 d'_1 / 2 vanishes at
    some draws, though receiver 1 decodes almost surely.
    """
    return (
        Topology.of({2}, set(), {1, 4}, {1}),
        Scheme(
            3,
            (
                ExactMatrix.from_columns([[Fraction(1, 2), 1, 0]]),
                ExactMatrix.from_columns([[1, 1, 0]]),
                ExactMatrix.from_columns(
                    [[Fraction(-4, 15), 1, Fraction(2, 3)], [Fraction(1, 6), Fraction(-1, 10), 1]]
                ),
                ExactMatrix.from_columns([[0, Fraction(5, 7), Fraction(-3, 4)]]),
            ),
        ),
    )


def dense_case() -> tuple[Topology, Scheme]:
    """Every user repeating in both slots of a triangle: no receiver decodes."""
    return odd_cycle_topology(), Scheme(2, tuple(ExactMatrix.from_columns([[1, 1]]) for _ in range(3)))


def test_decodability_matches_c6(monkeypatch):
    mixed, dense = mixed_case(), dense_case()
    cases = [mixed, dense, *fixture_cases()]
    small = TrialConfig(entry_bound=2, seed=2)
    for draw in (TrialConfig(), small):
        monkeypatch.setattr(rankloss.tim, "_DRAW", draw)
        for topology, scheme in cases:
            assert_matches_c6(topology, scheme)
    # Sampled draws at scalings in {1, 2} can hit receiver 1's vanishing
    # determinant and call it undecodable.  Its one draw at `small` does, so
    # the trial misses the term ranks and C6 decides receiver 1.
    report = verify_decodability(*mixed)
    assert (report.per_receiver, report.certified) == ((True, True, False, True), (False, True, True, True))
    assert verify_decodability(*dense).per_receiver == (False, False, False)


def generated_exclusive_cases(rng: random.Random, count: int) -> list[tuple[Topology, Scheme]]:
    """`count` generated P1/P2 topologies with interference, each with its synthesized scheme."""
    cases = []
    while len(cases) < count:
        top = random_p1p2_topology(rng)
        if check_P1_P2(top)[0] and top.has_interference():
            cases.append((top, synth_exclusive_scheme(top)[0]))
    return cases


def fixture_cases() -> list[tuple[Topology, Scheme]]:
    """T6 with its half-DoF scheme, T9a with its exclusive scheme, T9b with its fixture scheme."""
    t9b_scheme, _ = fileio.load_scheme(str(FIXTURES / "T9b_scheme.json"))
    return [
        (t6(), synth_half_dof_scheme(t6())),
        (t9a(), synth_exclusive_scheme(t9a())[0]),
        (t9b(), t9b_scheme),
    ]


@pytest.fixture
def c6_calls(monkeypatch) -> list[int]:
    """The column count of each ensemble `tim` hands to C6 (`generic_rank`)."""
    calls = []
    c6 = rankloss.tim.generic_rank

    def counting_c6(ensemble):
        calls.append(sum(b.n_cols for b in ensemble.blocks))
        return c6(ensemble)

    monkeypatch.setattr(rankloss.tim, "generic_rank", counting_c6)
    return calls


def test_verify_falls_back_to_c6_below_the_term_ranks(monkeypatch, rng, c6_calls):
    # Over GF(3) most scaled entries and minors vanish, so many trials fall
    # short of the term ranks and C6 decides those receivers.
    cases = fixture_cases() + generated_exclusive_cases(rng, 20)
    monkeypatch.setattr(rankloss.exactla, "_MODULUS", 3)
    monkeypatch.setattr(rankloss.tim, "_DRAW", TrialConfig(seed=17))
    c6_calls.clear()
    misses = heard = 0
    for topology, scheme in cases:
        report = assert_matches_c6(topology, scheme)
        misses += report.certified.count(False)
        heard += sum(1 for j in range(1, topology.K + 1) if topology.interferers(j))
    assert 0 < misses < heard
    assert len(c6_calls) == 2 * misses


def test_verify_falls_back_when_the_rank_is_below_the_term_rank(c6_calls):
    # Rows 1 and 2 of B_1 are equal, and B_2 is zero there, so the
    # interference at receiver 3 has rank 2 under every scaling while its
    # support has term rank 3: receiver 3's trial misses and C6 decides it.
    # Receiver 1's [B_3 | B_1] reaches its term ranks.
    topology = Topology.of({3}, set(), {1, 2})
    scheme = Scheme(
        3,
        (
            ExactMatrix.from_rows([[1, 1], [1, 1], [1, 2]]),
            ExactMatrix.from_columns([[0, 0, 1]]),
            ExactMatrix.from_columns([[1, 0, 0]]),
        ),
    )
    assert _term_ranks(scheme.beamformers[:1], scheme.beamformers[1]) == (3, 2)
    assert generic_rank(Ensemble(scheme.beamformers[:2])) == 2
    c6_calls.clear()
    report = assert_matches_c6(topology, scheme)
    assert c6_calls == [4, 3]
    assert report.ranks[2] == (3, 2)
    assert report.certified == (True, True, False)


def test_verify_verdicts_do_not_depend_on_the_seed(monkeypatch, rng):
    # At scalings in {1, 2} single draws are often non-generic, so the
    # certified trial misses at some seeds; C6 gives the same answer.
    cases = [mixed_case(), dense_case(), *fixture_cases(), *generated_exclusive_cases(rng, 20)]
    draws = [TrialConfig(entry_bound=bound, seed=s) for bound in (2**31, 2) for s in range(5)]
    misses = 0
    for topology, scheme in cases:
        reports = []
        for draw in draws:
            monkeypatch.setattr(rankloss.tim, "_DRAW", draw)
            reports.append(verify_decodability(topology, scheme))
        assert len({(r.per_receiver, r.ranks) for r in reports}) == 1, topology
        misses += sum(r.certified.count(False) for r in reports)
    assert misses > 0


def test_exclusive_synthesis_is_unchanged_by_the_certified_trial(monkeypatch, c6_calls):
    # The postconditions still reject the singular first fill of this
    # topology, T9a still takes its recorded scheme, and synthesizing T9a
    # needs no C6 call: every receiver's trial reaches its term ranks.
    accepted = []
    postconditions = rankloss.tim._exclusive_postconditions

    def recording(*args):
        accepted.append(postconditions(*args))
        return accepted[-1]

    monkeypatch.setattr(rankloss.tim, "_exclusive_postconditions", recording)
    synth_exclusive_scheme(Topology.of([], [1], [], [1], [8], [3, 5], [], [9], [4, 6]))
    assert accepted == [False, True]
    accepted.clear()
    c6_calls.clear()
    scheme, assignment = synth_exclusive_scheme(t9a())
    assert accepted == [True]
    assert c6_calls == []
    golden = json.loads((Path(__file__).parent / "golden" / "T9a_exclusive_scheme.json").read_text())
    assert fileio.emit_scheme(scheme, assignment) == golden


def test_term_ranks_equal_generic_ranks_on_synthesized_schemes(rng):
    # Why certified-trial misses are rare: on these schemes the term rank of the
    # interference, and of it beside the desired block, is C6's generic rank.
    for topology, scheme in fixture_cases() + generated_exclusive_cases(rng, 100):
        for j in range(1, topology.K + 1):
            interference = tuple(scheme.beamformers[i - 1] for i in sorted(topology.interferers(j)))
            if not interference:
                continue
            combined = Ensemble(interference + (scheme.beamformers[j - 1],))
            generic = (generic_rank(combined), generic_rank(Ensemble(interference)))
            assert _term_ranks(interference, scheme.beamformers[j - 1]) == generic, (topology, j)


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
    assert verify_decodability(top, scheme).ok
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


def test_odd_cycle_always_violates_structure():
    # pigeonhole: three pairwise-disjoint half-size supports cannot exist
    top = odd_cycle_topology()
    for scheme in two_slot_schemes(3):
        report = half_dof_structure_check(top, scheme)
        assert not report.ok


def test_structure_check_rejects_user_count_mismatch():
    two_users = Scheme(2, (ExactMatrix.from_columns([[1, 0]]), ExactMatrix.from_columns([[0, 1]])))
    with pytest.raises(ShapeError):
        half_dof_structure_check(Topology.of(set(), set(), {1, 2}), two_users)
    three_users = Scheme(2, two_users.beamformers + (ExactMatrix.from_columns([[1, 1]]),))
    with pytest.raises(ShapeError):
        half_dof_structure_check(Topology.of(set(), {1}), three_users)


def half_rate_block(rng: random.Random, n: int, window: frozenset[int]) -> ExactMatrix:
    """Full-column-rank n x n/2 block whose nonzero rows lie inside `window`."""
    while True:
        block = ExactMatrix.from_rows(
            [[rng.choice(ENTRY_POOL) if i in window else 0 for _ in range(n // 2)] for i in range(1, n + 1)]
        )
        if is_full_column_rank(block):
            return block


def test_structure_check_matches_scan_on_generated_pairs():
    # Collapse by C6 and overlap by row supports against the 2^n scan and
    # the per-slot sparse-dimension test.  Half the pairs share one window,
    # so some collapse; windows leave rows zero, so some overlap.  Few
    # pairs are large because the scan doubles with each row.
    rng = random.Random(1106)
    top = Topology.of({2}, set(), {1, 2})  # alignment pair (1, 2); reduced edges (1,3), (2,1), (2,3)
    kinds = Counter()
    for n in [2] * 100 + [4] * 150 + [6] * 200 + [8] * 40 + [10] * 10:

        def window() -> frozenset[int]:
            return frozenset(rng.sample(range(1, n + 1), rng.randint(n // 2, n)))

        shared = window()
        w2 = shared if rng.random() < 0.5 else window()
        scheme = Scheme(n, tuple(half_rate_block(rng, n, w) for w in (shared, w2, window())))
        report = half_dof_structure_check(top, scheme)
        assert report == structure_report_scan(top, scheme)
        kinds.update((c.kind, c.ok) for c in report.checks)
    assert kinds[("alignment-collapse", True)] and kinds[("alignment-collapse", False)]
    assert kinds[("conflict-overlap", True)] and kinds[("conflict-overlap", False)]


def test_structure_check_matches_scan_on_criterion_families():
    # Every alignment pair and reduced edge in criterion 6 and criterion 8.
    triangle = Topology.of({2, 3}, {3, 1}, {1, 2})
    ring5 = Topology.of({2, 5}, {3, 1}, {4, 2}, {5, 3}, {1, 4})
    embedded = Topology.of({2, 3}, {3, 1}, {1, 2}, set(), {4}, set())
    cases = [(t6(), synth_half_dof_scheme(t6()))]
    for top in (triangle, ring5, embedded):
        cases.extend((top, s) for s in two_slot_schemes(top.K))
    cases.extend((triangle, s) for s in block_schemes(3))
    for top, scheme in cases:
        assert half_dof_structure_check(top, scheme) == structure_report_scan(top, scheme)


def test_structure_check_alignment_pair_at_n30_is_fast():
    # The 2^n scan this replaces needed seconds at n = 14.
    rng = random.Random(30)
    n, h = 30, 15
    top = Topology.of(set(), set(), {1, 2})

    def dense(rows: range) -> ExactMatrix:
        return ExactMatrix.from_rows(
            [[rng.randint(-9, 9) if i in rows else 0 for _ in range(h)] for i in range(1, n + 1)]
        )

    window = range(1, h + 1)
    shared = Scheme(n, (dense(window), dense(window), dense(range(1, n + 1))))
    generic = Scheme(n, tuple(dense(range(1, n + 1)) for _ in range(3)))
    for scheme, collapses in ((shared, True), (generic, False)):
        start = time.monotonic()
        report = half_dof_structure_check(top, scheme)
        assert time.monotonic() - start < 1.0
        assert report.checks[0] == StructureCheck("alignment-collapse", (1, 2), 3, collapses)


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
    assert minimal_fully_occupied(e, ys, IndexSet.of(4, [1, 2, 3]), 1)
    # sum m_i = 4 > n = 3, and Y_1 is empty: block 1 adds no column to the
    # chosen blocks that C6 ranks.
    e = Ensemble.of([[1], [1], [1]], [[1, 0], [0, 1], [0, 0]], [[1], [1], [0]])
    ys = (IndexSet.empty(1), IndexSet.full(2), IndexSet.full(1))
    assert minimal_fully_occupied(e, ys, IndexSet.of(3, [1, 2]), 1)


def test_minimal_fully_occupied_empty_vacuous():
    e = e1()
    ys = (IndexSet.full(2), IndexSet.full(2))
    assert minimal_fully_occupied(e, ys, IndexSet.empty(4), 1)


def test_minimal_fully_occupied_matches_fraction_route():
    # Three single columns in the rows J = {1, 2}: S_J is occupied at a
    # generic point, which C6 decides exactly, but scalings in {1, 2} can
    # make all three parallel, so a sampled check could answer False.
    e = Ensemble.of([[1], [1], [0]], [[Fraction(1, 3)], [Fraction(2, 3)], [0]], [[1], [Fraction(1, 2)], [0]])
    ys = (IndexSet.full(1),) * 3
    j = IndexSet.of(3, [1, 2])
    coordinates = ExactMatrix.from_columns([[1, 0, 0], [0, 1, 0]])

    def occupied_at(cfg: TrialConfig, stream: int) -> bool:
        rng = cfg.trial_rng(stream)
        diags = [[rng.randint(1, cfg.entry_bound) for _ in range(e.n)] for _ in range(e.K)]
        with_j = fraction_scaled_rank(e.blocks + (coordinates,), diags + [[1] * e.n])
        return with_j == fraction_scaled_rank(e.blocks, diags)

    assert minimal_fully_occupied(e, ys, j, 1) is True
    assert occupied_at(TrialConfig(), 0)
    # At scalings in {1, 2} the columns are parallel with probability 1/32.
    assert {occupied_at(TrialConfig(entry_bound=2), stream) for stream in range(100)} == {True, False}


def test_minimal_fully_occupied_is_about_the_chosen_columns():
    """On generated minimal J with sum m_i > n, S_J lies in the span of the chosen columns.

    The lemma is about the column choice Ys: S_J almost surely inside the
    span of the scaled columns Y_1..Y_K.  That is the stronger statement,
    since those columns span a subspace of every column's span, and
    `minimal_fully_occupied` answers it.  C6 on [B_1 .. B_K | I_J], every
    column of each block, answers the weaker one.  Both must be True.
    Shared zero rows make surpluses common; a Y_i can be empty.
    """
    rng = random.Random(1907)
    checked = empty_choices = 0
    while checked < 400:
        n, k = rng.randint(3, 6), rng.randint(2, 3)
        zero = set(rng.sample(range(1, n + 1), rng.randint(0, n - 2)))
        ms = [rng.randint(1, n - len(zero)) for _ in range(k)]
        if sum(ms) <= n:
            continue
        blocks = []
        for m in ms:
            while True:
                block = ExactMatrix.from_rows(
                    [[0 if i in zero else rng.choice(ENTRY_POOL) for _ in range(m)] for i in range(1, n + 1)]
                )
                if is_full_column_rank(block):
                    blocks.append(block)
                    break
        e = Ensemble(tuple(blocks))
        sizes = [0] * k
        while sum(sizes) < n:
            sizes[rng.choice([i for i in range(k) if sizes[i] < ms[i]])] += 1
        ys = tuple(IndexSet.of(m, rng.sample(range(1, m + 1), size)) for m, size in zip(ms, sizes))
        restricted = [b.take_cols(y) for b, y in zip(blocks, ys)]
        surplus = {
            rows: sum(sparse_dim(b, IndexSet(n, rows)) for b in restricted) - len(rows)
            for size in range(n + 1)
            for rows in itertools.combinations(range(1, n + 1), size)
        }
        for x in range(1, max(surplus.values()) + 1):
            # a smallest J reaching x is minimal
            j = IndexSet(n, next(rows for rows in surplus if surplus[rows] >= x))
            coordinates = ExactMatrix.from_columns([[int(r == c) for r in range(1, n + 1)] for c in j])
            assert minimal_fully_occupied(e, ys, j, x), (e, ys, j, x)
            assert generic_rank(Ensemble((*blocks, coordinates))) == generic_rank(e), (e, j)
            checked += 1
            empty_choices += 0 in sizes
    assert empty_choices > 0


def test_minimal_fully_occupied_rejects_non_minimal():
    e = e1()
    ys = (IndexSet.full(2), IndexSet.full(2))
    with pytest.raises(PreconditionError):
        minimal_fully_occupied(e, ys, IndexSet.full(4), 1)


def test_minimal_fully_occupied_rejects_bad_surplus():
    e = e1()
    ys = (IndexSet.full(2), IndexSet.full(2))
    with pytest.raises(PreconditionError):
        minimal_fully_occupied(e, ys, IndexSet.of(4, [1, 2]), 1)


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
    assert verify_decodability(top, new_scheme).ok


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
