"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute.  Every tolerance is exact; time budgets are asserted.
"""

from __future__ import annotations

import json
import random
import time

import pytest

from rankloss.cli import main
from rankloss.conditions import cross_validate, max_tau
from rankloss.matching import SupportGraph, hall_threshold_check, max_matching
from rankloss.matroid import (
    dual,
    union_rank,
    verify_axioms,
)
from rankloss.randrank import TrialConfig, sample_ranks
from rankloss.tim import (
    Topology,
    chromatic_number,
    half_dof_structure_check,
    is_bipartite,
    ldof_sym,
    reduced_conflict_graph,
    regular_conflict_graph,
    synth_exclusive_scheme,
    synth_half_dof_scheme,
    verify_decodability,
)

from conftest import (
    FIXTURES,
    block_schemes,
    brute_union_rank,
    defect_scan,
    random_ensemble,
    subsets,
    t6,
    t9a,
    t9b,
    two_slot_schemes,
)


def report_line(number: int, name: str, ok: bool, elapsed: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:2d} [{name}]: {status} ({elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# Criterion 1: worked-example reproduction through the CLI
# ---------------------------------------------------------------------------

def test_criterion_1_example_reproduction(capsys):
    start = time.monotonic()
    code = main(["certify", str(FIXTURES / "E1.json"), "--tau", "1"])
    out = json.loads(capsys.readouterr().out)
    ok = (
        code == 0
        and out["max_tau"] == 1
        and out["c2"]["holds"]
        and out["c2"]["witnesses"][0]["J"] == [1, 2, 3]
    )
    code = main(["certify", str(FIXTURES / "E1_generic.json")])
    out = json.loads(capsys.readouterr().out)
    ok = ok and code == 0 and out["max_tau"] == 0
    elapsed = time.monotonic() - start
    with capsys.disabled():
        report_line(1, "Example-2 reproduction", ok and elapsed < 1.0, elapsed)
    assert ok
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# Criteria 2 and 10: the 500-instance equivalence sweep and oracle soundness
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def equivalence_sweep():
    rng = random.Random(20260810)
    records = []
    start = time.monotonic()
    for index in range(500):
        ensemble = random_ensemble(rng, max_n=6, max_k=3)
        cfg = TrialConfig(trials=20, entry_bound=2**31, seed=index)
        tau_star = max_tau(ensemble)
        for tau in range(1, ensemble.R + 1):
            report = cross_validate(ensemble, tau, cfg)
            c1 = report.c1
            records.append(
                {
                    "ensemble": ensemble,
                    "cfg": cfg,
                    "tau": tau,
                    "agreement": report.agreement,
                    "c1_certain_fail": c1.certain and not c1.holds,
                    "c2_holds": report.verdicts["C2"],
                    "c6_holds": tau <= tau_star,
                }
            )
    return records, time.monotonic() - start


def test_criterion_2_equivalence_suite(equivalence_sweep, capsys):
    records, elapsed = equivalence_sweep
    disagreements = [r for r in records if not r["agreement"] or r["c2_holds"] != r["c6_holds"]]
    ok = not disagreements and elapsed < 300.0
    with capsys.disabled():
        report_line(2, "Condition-equivalence suite (500 ensembles)", ok, elapsed)
    assert not disagreements
    assert elapsed < 300.0


def test_criterion_10_oracle_soundness(equivalence_sweep, capsys):
    records, _ = equivalence_sweep
    start = time.monotonic()
    contradictions = [r for r in records if r["c1_certain_fail"] and r["c2_holds"]]
    reproducible = True
    for r in records[:10]:
        first = sample_ranks(r["ensemble"], r["cfg"])
        second = sample_ranks(r["ensemble"], r["cfg"])
        reproducible = reproducible and first == second
    elapsed = time.monotonic() - start
    ok = not contradictions and reproducible
    with capsys.disabled():
        report_line(10, "Randomized-oracle soundness", ok, elapsed)
    assert not contradictions
    assert reproducible


# ---------------------------------------------------------------------------
# Criteria 3 and 4: matroid machinery on shared random instances
# ---------------------------------------------------------------------------

def test_criterion_3_matroid_axiom_suite(matroid_instances, capsys):
    start = time.monotonic()
    ok = True
    count = 0
    for x, group in matroid_instances:
        for block, y, matroid in group:
            count += 1
            report = verify_axioms(matroid)
            ok = ok and report.ok
            d = dual(matroid)
            dd = dual(d)
            full = matroid.full_rank()
            for s in subsets(matroid.ground):
                # complement-of-basis semantics for the dual rank
                dual_enum = max(
                    len(i)
                    for i in subsets(s)
                    if matroid.rank(set(matroid.ground) - set(i)) == full
                )
                ok = ok and d.rank(s) == dual_enum
                ok = ok and dd.rank(s) == matroid.rank(s)
    elapsed = time.monotonic() - start
    ok = ok and count == 200 and elapsed < 60.0
    with capsys.disabled():
        report_line(3, f"Scaled-linear matroid axiom suite ({count} matroids)", ok, elapsed)
    assert ok


def test_criterion_4_matroid_union(matroid_instances, capsys):
    start = time.monotonic()
    ok = True
    for x, group in matroid_instances:
        matroids = [m for _, _, m in group]
        for u in subsets(tuple(x)):
            formula = union_rank(matroids, u)
            ok = ok and formula == brute_union_rank(matroids, u)
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 120.0
    with capsys.disabled():
        report_line(4, "Matroid-union correctness", ok, elapsed)
    assert ok


# ---------------------------------------------------------------------------
# Criterion 5: matching duality
# ---------------------------------------------------------------------------

def test_criterion_5_matching_duality(capsys):
    rng = random.Random(307)
    start = time.monotonic()
    ok = True
    for _ in range(300):
        n_left = rng.randint(1, 12)
        n_right = rng.randint(1, 12)
        rights = tuple(
            (1, r + 1, sum(1 << i for i in range(n_left) if rng.random() < 0.3))
            for r in range(n_right)
        )
        graph = SupportGraph(n_left, rights)
        scanned_defect = defect_scan(graph)
        ok = ok and max_matching(graph) == graph.n_right - scanned_defect
        for k in range(min(n_left, n_right) + 1):
            ok = ok and hall_threshold_check(graph, k) == (scanned_defect <= graph.n_right - k)
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 30.0
    with capsys.disabled():
        report_line(5, "Matching duality (300 graphs)", ok, elapsed)
    assert ok


# ---------------------------------------------------------------------------
# Criterion 6: the bipartite-topology pipeline
# ---------------------------------------------------------------------------

def test_criterion_6_half_dof_pipeline(capsys):
    start = time.monotonic()
    topology = t6()
    reduced = reduced_conflict_graph(topology)
    bipartite, parts = is_bipartite(reduced)
    nontrivial = {frozenset(p) - {1, 6} for p in parts}
    parts_ok = bipartite and nontrivial == {frozenset({2, 5}), frozenset({3, 4})}
    chi_ok = chromatic_number(regular_conflict_graph(topology)) == 3
    scheme = synth_half_dof_scheme(topology)
    pattern_ok = scheme.activation_pattern() == ((2,), (1,), (2,), (2,), (1,), (1, 2))
    # activation slot sets per the published scheme matrix: {2,5,6} and {1,3,4,6}
    slot1 = {u + 1 for u, p in enumerate(scheme.activation_pattern()) if 1 in p}
    slot2 = {u + 1 for u, p in enumerate(scheme.activation_pattern()) if 2 in p}
    slots_ok = slot1 == {2, 5, 6} and slot2 == {1, 3, 4, 6}
    decode = verify_decodability(topology, scheme)
    ok = parts_ok and chi_ok and pattern_ok and slots_ok and decode.ok
    elapsed = time.monotonic() - start
    with capsys.disabled():
        report_line(6, "Half-DoF pipeline on T6", ok, elapsed)
    assert parts_ok and chi_ok and pattern_ok and slots_ok
    assert decode.per_receiver == (True,) * 6


# ---------------------------------------------------------------------------
# Criterion 7: exclusive-alignment achievability
# ---------------------------------------------------------------------------

def test_criterion_7_exclusive_achievability(capsys):
    start = time.monotonic()
    topology = t9a()
    from rankloss.tim import check_P1_P2

    p1p2_ok = check_P1_P2(topology)[0]
    chi_ok = chromatic_number(reduced_conflict_graph(topology)) == 3
    from fractions import Fraction

    ldof_ok = ldof_sym(topology) == Fraction(4, 9)
    scheme = synth_exclusive_scheme(topology)
    shape_ok = scheme.n == 9 and scheme.symbol_counts == (4,) * 9
    decode = verify_decodability(topology, scheme)
    ok = p1p2_ok and chi_ok and ldof_ok and shape_ok and decode.ok
    elapsed = time.monotonic() - start
    with capsys.disabled():
        report_line(7, "Exclusive-alignment achievability on T9a (4/9)", ok, elapsed)
    assert p1p2_ok and chi_ok and ldof_ok and shape_ok
    assert decode.per_receiver == (True,) * 9


# ---------------------------------------------------------------------------
# Criterion 8: converse-structure property on odd-cycle topologies
# ---------------------------------------------------------------------------

def test_criterion_8_odd_cycle_structure(capsys):
    start = time.monotonic()
    triangle = Topology.of({2, 3}, {3, 1}, {1, 2})
    ring5 = Topology.of({2, 5}, {3, 1}, {4, 2}, {5, 3}, {1, 4})
    embedded = Topology.of({2, 3}, {3, 1}, {1, 2}, set(), {4}, set())
    ok = True
    for topology in (triangle, ring5, embedded):
        assert not is_bipartite(reduced_conflict_graph(topology))[0]
        for scheme in two_slot_schemes(topology.K):
            ok = ok and not half_dof_structure_check(topology, scheme).ok
    for scheme in block_schemes(3):
        ok = ok and not half_dof_structure_check(triangle, scheme).ok
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60.0
    with capsys.disabled():
        report_line(8, "Odd-cycle converse structure", ok, elapsed)
    assert ok


# ---------------------------------------------------------------------------
# Criterion 9: beyond-formula example
# ---------------------------------------------------------------------------

def test_criterion_9_beyond_formula(capsys):
    from rankloss import fileio
    from rankloss.tim import check_P1_P2

    start = time.monotonic()
    topology = t9b()
    p2_fails = not check_P1_P2(topology)[0]
    scheme = fileio.load_scheme(str(FIXTURES / "T9b_scheme.json"))
    shape_ok = scheme.n == 7 and scheme.symbol_counts == (3,) * 9
    decode = verify_decodability(topology, scheme)
    from fractions import Fraction

    beats_formula = Fraction(3, 7) > Fraction(5, 12)
    ok = p2_fails and shape_ok and decode.ok and beats_formula
    elapsed = time.monotonic() - start
    with capsys.disabled():
        report_line(9, "Beyond-formula design on T9b (3/7)", ok, elapsed)
    assert p2_fails and shape_ok and beats_formula
    assert decode.per_receiver == (True,) * 9
