"""The exact certifier: worked examples, witness canon, and invariances."""

from __future__ import annotations

import gc
import importlib
import itertools
import json
import pkgutil
import random
import weakref
from fractions import Fraction

import pytest

import rankloss
from rankloss.cli import main
from rankloss.conditions import (
    CheckResult,
    Ensemble,
    Witness,
    _row_union,
    check_C2,
    check_C3,
    check_C4,
    check_C5,
    column_choices,
    cross_validate,
    lex_subset_masks,
    max_tau,
)
from rankloss.errors import PreconditionError
from rankloss.exactla import ExactMatrix, IndexSet, is_full_column_rank, rank, sparse_dim
from rankloss.fileio import emit_ensemble
from rankloss.randrank import TrialConfig

from conftest import cofactor_det, e1, e1_generic, e3, fraction_scaled_rank, random_ensemble


def test_ensemble_validation():
    with pytest.raises(PreconditionError):
        Ensemble((ExactMatrix.from_columns([[1, 0], [2, 0]]),))  # rank deficient
    with pytest.raises(Exception):
        Ensemble((ExactMatrix.identity(2), ExactMatrix.identity(3)))  # row mismatch
    e = e1()
    assert (e.n, e.K, e.R) == (4, 2, 4)


def test_c2_holds_on_e1_with_canonical_witness():
    result = check_C2(e1(), 1)
    assert result.holds
    [w] = result.witnesses
    assert list(w.J) == [1, 2, 3]
    assert w.slack == 0


def test_c2_fails_on_generic_fourth_row():
    result = check_C2(e1_generic(), 1)
    assert not result.holds
    [w] = result.witnesses
    assert w.kind == "C2-counterexample"
    assert w.slack < 0


def test_c2_fails_at_tau_2_on_e1():
    result = check_C2(e1(), 2)
    assert not result.holds
    [w] = result.witnesses
    assert list(w.J) == [1, 2, 3]
    assert w.slack == -1


def test_c2_tau_out_of_range():
    with pytest.raises(PreconditionError):
        check_C2(e1(), 0)
    with pytest.raises(PreconditionError):
        check_C2(e1(), 5)


def test_c3_examples():
    assert not check_C3(e3(), 1).holds
    assert check_C3(e1(), 1).holds
    [w] = check_C3(e3(), 1).witnesses
    assert w.kind == "C3-violation"
    assert w.partition is not None


def test_c4_examples():
    assert check_C4(e1(), 1).holds
    assert not check_C4(e3(), 1).holds
    identity = Ensemble((ExactMatrix.identity(3),))
    assert not check_C4(identity, 1).holds


def test_c5_examples():
    assert check_C5(e1(), 1).holds
    assert not check_C5(e3(), 1).holds
    full = Ensemble((ExactMatrix.identity(3),))
    assert not check_C5(full, 1).holds


def test_c5_holds_witnesses_are_valid():
    result = check_C5(e1(), 1)
    assert result.holds
    for w in result.witnesses:
        assert w.J.issubset(w.X)


def test_max_tau_values():
    assert max_tau(e1()) == 1
    assert max_tau(e1_generic()) == 0
    assert max_tau(e3()) == 0
    generic = Ensemble((ExactMatrix.from_columns([[1, 2, 3]]),))
    assert max_tau(generic) == 0


def test_max_tau_two_aligned_columns():
    e1col = ExactMatrix.from_columns([[1, 0]])
    ensemble = Ensemble((e1col, e1col))
    assert ensemble.R == 2
    assert max_tau(ensemble) == 1
    [w] = check_C2(ensemble, 1).witnesses
    assert list(w.J) == [1]


def test_c2_monotone_in_tau(rng):
    for _ in range(40):
        e = random_ensemble(rng)
        verdicts = [check_C2(e, t).holds for t in range(1, e.R + 1)]
        assert verdicts == sorted(verdicts, reverse=True)


def test_max_tau_matches_c2_threshold(rng):
    for _ in range(30):
        e = random_ensemble(rng)
        mt = max_tau(e)
        for t in range(1, e.R + 1):
            assert check_C2(e, t).holds == (t <= mt)


def test_scaling_invariance(rng):
    for _ in range(20):
        e = random_ensemble(rng)
        k = rng.randrange(e.K)
        j = rng.randrange(e.blocks[k].n_cols)
        scaled_blocks = list(e.blocks)
        scaled_blocks[k] = scaled_blocks[k].scale_column(j, "-7/3")
        scaled = Ensemble(tuple(scaled_blocks))
        assert max_tau(scaled) == max_tau(e)
        for t in range(1, e.R + 1):
            assert check_C2(scaled, t).holds == check_C2(e, t).holds


def test_row_permutation_equivariance(rng):
    for _ in range(20):
        e = random_ensemble(rng)
        perm = list(range(1, e.n + 1))
        rng.shuffle(perm)
        permuted = Ensemble(
            tuple(
                ExactMatrix.from_rows([block.rows[p - 1] for p in perm])
                for block in e.blocks
            )
        )
        assert max_tau(permuted) == max_tau(e)


def test_column_choices_enumeration():
    e = e3()
    choices = list(column_choices(e, e.R))
    assert len(choices) == 1
    assert [len(y) for y in choices[0]] == [1, 2]
    partial = list(column_choices(e, 2))
    # compositions (0,2) and (1,1): 1 + 1*2 = 3 tuples
    assert len(partial) == 3


def test_cross_validate_e1_and_e3():
    cfg = TrialConfig(seed=7)
    rep = cross_validate(e1(), 1, cfg)
    assert rep.agreement and all(rep.verdicts.values())
    rep3 = cross_validate(e3(), 1, cfg)
    assert rep3.agreement and not any(rep3.verdicts.values())


def test_cross_validate_random_sample(rng):
    # a slice of the full 500-instance acceptance suite
    for trial in range(60):
        e = random_ensemble(rng)
        cfg = TrialConfig(seed=trial)
        for tau in range(1, e.R + 1):
            rep = cross_validate(e, tau, cfg)
            assert rep.agreement


def _recompute_surplus(e, witness):
    # independent route: straight through the matrix primitives, no rank tables
    from rankloss.exactla import sparse_dim

    return sum(
        sparse_dim(block.take_cols(y), witness.J)
        for block, y in zip(e.blocks, witness.Y)
    ) - len(witness.J)


def test_c2_witnesses_recompute_exactly(rng):
    for _ in range(25):
        e = random_ensemble(rng, max_n=5)
        for tau in range(1, e.R + 1):
            result = check_C2(e, tau)
            if result.holds:
                for w in result.witnesses:
                    assert _recompute_surplus(e, w) - tau == w.slack
                    assert w.slack >= 0
            else:
                [w] = result.witnesses
                assert _recompute_surplus(e, w) - tau == w.slack < 0


def test_c3_violation_recomputes_exactly(rng):
    found = 0
    while found < 10:
        e = random_ensemble(rng, max_n=5)
        result = check_C3(e, 1)
        if result.holds:
            continue
        [w] = result.witnesses
        product = 1
        for block, part, y in zip(e.blocks, w.partition, w.Y):
            if len(y):
                product *= cofactor_det(block.submatrix(part, y))
        assert product != 0
        found += 1


def test_fractional_entries_cross_validate():
    b1 = ExactMatrix.from_rows(
        [["1/2", "1/3"], ["1/5", "2/3"], ["3/7", "-1/2"], ["0", "0"]]
    )
    b2 = ExactMatrix.from_rows([["2/3", "0"], ["0", "-5/4"], ["1/6", "1/9"], ["0", "0"]])
    e = Ensemble((b1, b2))
    assert max_tau(e) == 1
    rep = cross_validate(e, 1, TrialConfig(seed=31))
    assert rep.agreement and all(rep.verdicts.values())
    rep2 = cross_validate(e, 2, TrialConfig(seed=31))
    assert rep2.agreement and not any(rep2.verdicts.values())

    # Every route reads the ensemble's one cleared grid, so they could all go
    # wrong together; fraction_scaled_rank builds the scaled matrix over
    # Fraction and never reads that grid.
    rng = random.Random(0xF4AC)
    zero_rows = 0
    for _ in range(150):
        e, zero = _mixed_denominator_ensemble(rng)
        zero_rows += zero
        draws = [[[rng.randint(1, 2**31) for _ in range(e.n)] for _ in range(e.K)] for _ in range(3)]
        loss = e.R - max(fraction_scaled_rank(e.blocks, diags) for diags in draws)
        assert max_tau(e) == loss
        for tau in range(1, e.R + 1):
            for check in (check_C2, check_C3, check_C4, check_C5):
                assert check(e, tau).holds == (tau <= loss), (check.__name__, tau, e)
    assert zero_rows >= 30


def _mixed_denominator_ensemble(rng) -> tuple[Ensemble, bool]:
    """Entries over row, column and entry denominators at once; 30% share a zero row."""
    n, k = rng.randint(2, 5), rng.randint(1, 3)
    zero = rng.randrange(n) if rng.random() < 0.3 else None
    blocks = []
    while len(blocks) < k:
        m = rng.randint(1, min(3, n - (zero is not None)))
        rows_d = [rng.choice([1, 2, 3, 5]) for _ in range(n)]
        cols_d = [rng.choice([1, 2, 7]) for _ in range(m)]
        rows = [
            [
                Fraction(rng.choice([-2, -1, 0, 1, 3]), rows_d[r] * cols_d[c] * rng.choice([1, 1, 4]))
                for c in range(m)
            ]
            for r in range(n)
        ]
        if zero is not None:
            rows[zero] = [Fraction(0)] * m
        block = ExactMatrix.from_rows(rows)
        if is_full_column_rank(block):
            blocks.append(block)
    return Ensemble(tuple(blocks)), zero is not None


def test_single_row_ensemble():
    e = Ensemble((ExactMatrix.from_columns([[3]]),))
    assert (e.n, e.R) == (1, 1)
    assert max_tau(e) == 0
    rep = cross_validate(e, 1, TrialConfig(seed=1))
    assert rep.agreement and not any(rep.verdicts.values())
    aligned = Ensemble((ExactMatrix.from_columns([[1, 0]]), ExactMatrix.from_columns([[2, 0]])))
    assert max_tau(aligned) == 1
    assert cross_validate(aligned, 1, TrialConfig(seed=2)).agreement


# ---------------------------------------------------------------------------
# C6: max_tau from the union of the blocks' row matroids
# ---------------------------------------------------------------------------

def _varied_ensemble(rng, max_n=6, max_k=4):
    """A random ensemble, often with a row zero in every block or fractional entries."""
    while True:
        e = random_ensemble(rng, max_n=max_n, max_k=max_k)
        zero = rng.randrange(e.n) if rng.random() < 0.4 else None
        scale = rng.choice([1, 1, 2, 3, 7])
        blocks = tuple(
            ExactMatrix(
                tuple(
                    tuple(Fraction(0) if r == zero else v / (scale + r) for v in row)
                    for r, row in enumerate(b.rows)
                ),
                b.n_cols,
            )
            for b in e.blocks
        )
        if all(is_full_column_rank(b) for b in blocks):
            return Ensemble(blocks)


def _min_t_bound(e) -> int:
    # rank(B_D) = min over T of n - |T| + sum_i rank(B_i[T, :]), exhaustively.
    return min(
        e.n - len(t) + sum(rank(b.take_rows(IndexSet(e.n, t))) for b in e.blocks)
        for size in range(e.n + 1)
        for t in itertools.combinations(range(1, e.n + 1), size)
    )


def test_c6_matches_min_t_formula(rng):
    zero_rows = 0
    for _ in range(320):
        e = _varied_ensemble(rng)
        zero_rows += any(all(b.rows[r][c] == 0 for b in e.blocks for c in range(b.n_cols)) for r in range(e.n))
        assert max_tau(e) == e.R - _min_t_bound(e)
    assert zero_rows >= 80


def test_c6_certificate_shape(rng):
    for _ in range(60):
        e = _varied_ensemble(rng)
        cert = _row_union(e)
        assert len(cert.parts) == e.K
        covered = [r for part in cert.parts for r in part]
        assert len(covered) == len(set(covered))
        for block, part in zip(e.blocks, cert.parts):
            assert rank(block.take_rows(IndexSet(e.n, part))) == len(part)
        rows_t = IndexSet(e.n, cert.T)
        assert set(range(1, e.n + 1)) - set(covered) <= set(cert.T)
        assert cert.size == e.n - len(cert.T) + sum(rank(b.take_rows(rows_t)) for b in e.blocks)
        assert max_tau(e) == e.R - cert.size


def _wide_ensemble(seed: int, zero_rows=()) -> Ensemble:
    rng = random.Random(seed)
    return Ensemble(
        tuple(
            ExactMatrix.from_rows(
                [[0] * 16 if r in zero_rows else [rng.randint(-9, 9) for _ in range(16)] for r in range(64)]
            )
            for _ in range(4)
        )
    )


def test_max_tau_wide_with_zero_rows():
    # n = 64 is far past any 2^n scan; C6 answers in well under a second.
    assert max_tau(_wide_ensemble(64, zero_rows=(5, 40))) == 2
    assert max_tau(_wide_ensemble(65, zero_rows=(0,))) == 1


def test_certify_wide_without_rank_loss(tmp_path, capsys):
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(emit_ensemble(_wide_ensemble(64))))
    assert main(["certify", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["n"], report["K"], report["R"], report["max_tau"]) == (64, 4, 64, 0)
    assert "c2" not in report


# ---------------------------------------------------------------------------
# C2 scans that stop at the tau asked
# ---------------------------------------------------------------------------

def _full_profile_c2(e, tau):
    """Every column choice's J scan run to the end, then the verdict at tau."""
    n = e.n
    dims = {}

    def sparse(i, y, jmask):
        key = (i, y.members, jmask)
        if key not in dims:
            dims[key] = sparse_dim(e.blocks[i].take_cols(y), IndexSet.from_mask(n, jmask))
        return dims[key]

    witnesses = []
    for ys in column_choices(e, e.R):
        best, argmax, first_at = -1, 0, {}
        for jmask in lex_subset_masks(n):
            slack = sum(sparse(i, y, jmask) for i, y in enumerate(ys)) - jmask.bit_count()
            if slack > best:
                for level in range(best + 1, slack + 1):
                    first_at[level] = (jmask, slack)
                best, argmax = slack, jmask
        if best < tau:
            w = Witness("C2-counterexample", ys, J=IndexSet.from_mask(n, argmax), slack=best - tau)
            return CheckResult("C2", False, (w,))
        jmask, slack = first_at[tau]
        witnesses.append(Witness("C2-witness", ys, J=IndexSet.from_mask(n, jmask), slack=slack - tau))
    return CheckResult("C2", True, tuple(witnesses))


def test_c2_resumed_scans_do_not_depend_on_query_order(rng):
    for _ in range(30):
        e = _varied_ensemble(rng, max_n=5, max_k=3)
        taus = list(range(1, e.R + 1))
        expected = {t: _full_profile_c2(e, t) for t in taus}
        shuffled = taus[:]
        rng.shuffle(shuffled)
        for order in (taus, taus[::-1], shuffled):
            fresh = Ensemble(e.blocks)
            assert {t: check_C2(fresh, t) for t in order} == expected
        for t in taus:
            assert check_C2(Ensemble(e.blocks), t) == expected[t]


def test_no_module_level_caches():
    # Derived results live on the Ensemble, so no module keeps one alive.
    caches = [
        f"{info.name}.{name}"
        for info in pkgutil.iter_modules(rankloss.__path__)
        for name, obj in vars(importlib.import_module(f"rankloss.{info.name}")).items()
        if hasattr(obj, "cache_parameters")
    ]
    assert caches == []


def test_derived_results_are_freed_with_the_ensemble():
    e = _mixed_denominator_ensemble(random.Random(7))[0]
    for tau in range(1, e.R + 1):
        cross_validate(e, tau, TrialConfig(seed=3))
    max_tau(e)
    ref = weakref.ref(e)
    del e
    gc.collect()
    assert ref() is None


def test_rank_tables_are_built_once_per_block_and_column_choice(monkeypatch):
    # C2, C4 and C5 all read the ensemble's one table per (block, Y_i).
    table_class = rankloss.conditions._RankTable
    init = table_class.__init__
    built = []

    def counting_init(table, grid, cols):
        built.append((id(grid), cols.members))
        init(table, grid, cols)

    monkeypatch.setattr(table_class, "__init__", counting_init)
    rng = random.Random(2)
    total = 0
    for _ in range(8):
        e = random_ensemble(rng)
        built.clear()
        for tau in range(1, e.R + 1):
            cross_validate(e, tau)
        assert len(built) == len(set(built))
        total += len(built)
    assert total > 0
