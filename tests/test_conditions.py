"""The exact certifier: worked examples, witness canon, and invariances."""

from __future__ import annotations

import pytest

from rankloss.conditions import (
    Ensemble,
    check_C2,
    check_C3,
    check_C4,
    check_C5,
    column_choices,
    cross_validate,
    max_tau,
)
from rankloss.errors import PreconditionError
from rankloss.exactla import ExactMatrix
from rankloss.randrank import TrialConfig

from conftest import e1, e1_generic, e3, random_ensemble


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
    from rankloss.exactla import det

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
                product *= det(block.submatrix(part, y))
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


def test_single_row_ensemble():
    e = Ensemble((ExactMatrix.from_columns([[3]]),))
    assert (e.n, e.R) == (1, 1)
    assert max_tau(e) == 0
    rep = cross_validate(e, 1, TrialConfig(seed=1))
    assert rep.agreement and not any(rep.verdicts.values())
    aligned = Ensemble((ExactMatrix.from_columns([[1, 0]]), ExactMatrix.from_columns([[2, 0]])))
    assert max_tau(aligned) == 1
    assert cross_validate(aligned, 1, TrialConfig(seed=2)).agreement
