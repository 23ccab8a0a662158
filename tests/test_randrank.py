"""The sampled rank oracle: reproducibility and one-sided soundness."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import rankloss
from rankloss.conditions import Ensemble, check_C2, check_C3, check_C4, check_C5, cross_validate
from rankloss.errors import PreconditionError
from rankloss.fileio import load_ensemble
from rankloss.randrank import (
    TrialConfig,
    _draw_diags,
    check_C1,
    failure_bound,
    sample_generic_rank,
    sample_ranks,
)

from conftest import FIXTURES, e1, e3, fraction_scaled_rank, identity_matrix, random_ensemble


def test_generic_rank_e1():
    assert sample_generic_rank(e1(), TrialConfig(seed=1)) == 3


def test_generic_rank_identity():
    for n in (1, 2, 4):
        e = Ensemble((identity_matrix(n),))
        assert sample_generic_rank(e, TrialConfig(seed=2)) == n


def test_generic_rank_e3():
    assert sample_generic_rank(e3(), TrialConfig(seed=3)) == 3


def test_check_c1_verdicts():
    cfg = TrialConfig(seed=4)
    v1 = check_C1(e1(), 1, cfg)
    assert v1.holds and not v1.certain
    assert v1.bound == failure_bound(e1().n, cfg)
    v2 = check_C1(e1(), 2, cfg)
    assert not v2.holds and v2.certain
    v3 = check_C1(e3(), 1, cfg)
    assert not v3.holds and v3.certain


def test_check_c1_requires_positive_tau():
    e = e1()
    for tau in (0, e.R + 1):
        with pytest.raises(PreconditionError, match=r"tau must be in \[1, 4\]"):
            check_C1(e, tau, TrialConfig(seed=5))


@pytest.mark.parametrize("tau", [True, 1.0, 1.5], ids=["bool", "integral-float", "float"])
@pytest.mark.parametrize(
    "check",
    [check_C1, check_C2, check_C3, check_C4, check_C5, cross_validate],
    ids=["C1", "C2", "C3", "C4", "C5", "cross_validate"],
)
def test_every_check_refuses_a_tau_that_is_not_an_int(check, tau):
    with pytest.raises(PreconditionError, match=rf"tau must be an int, got {tau!r}"):
        check(e1(), tau)


def test_failure_bound_formula():
    cfg = TrialConfig(trials=3, entry_bound=8, seed=0)
    assert failure_bound(e1().n, cfg) == Fraction(4, 8) ** 3


def test_reproducibility_bitwise():
    cfg = TrialConfig(seed=123)
    assert sample_ranks(e1(), cfg) == sample_ranks(e1(), cfg)
    assert sample_ranks(e3(), cfg) == sample_ranks(e3(), cfg)
    again = TrialConfig(seed=123)
    assert sample_ranks(e1(), cfg) == sample_ranks(e1(), again)


def test_sample_ranks_match_fraction_route():
    # Reference: the scaled concatenation built over Fraction and ranked by
    # the public kernel, against the column-cleared integer route.
    half, third = Fraction(1, 2), Fraction(-1, 3)
    # With scalings in {1, 2}, det [D_1 b_1, D_2 b_2] = d_11 d_22 / 2 - d_12 d_21
    # vanishes at some trials; clearing b_1's rows instead of its column
    # would move those points.
    degenerate = Ensemble.of([[half], [1]], [[1], [1]])
    cases = [
        e1(),
        e3(),
        degenerate,
        Ensemble.of(
            [[half, 1], [third, 0], [0, Fraction(5, 7)], [Fraction(-3, 4), 2]],
            [[Fraction(2, 9)], [0], [-1], [Fraction(1, 6)]],
        ),
        # a shared zero row and a column mixing denominators 2, 3 and 5
        Ensemble.of(
            [[half, -2], [third, Fraction(7, 5)], [0, 0]],
            [[Fraction(-4, 15), 1], [1, Fraction(-1, 10)], [0, 0]],
        ),
    ]
    configs = (TrialConfig(trials=6, seed=9), TrialConfig(trials=20, entry_bound=2, seed=2))
    for e in cases:
        for cfg in configs:
            ranks = sample_ranks(e, cfg)
            assert len(ranks) == cfg.trials
            for t, r in enumerate(ranks):
                diags = _draw_diags(cfg, t, e.n, e.K)
                assert r == fraction_scaled_rank(e.blocks, diags)
    assert set(sample_ranks(degenerate, configs[1])) == {1, 2}


@pytest.mark.parametrize("bound", [2, 3, 5, 2**31 - 1, 2**31, 10**12 + 7])
def test_draws_equal_randint(bound):
    # Rejection sampling on getrandbits reproduces randint(1, bound) draw for draw.
    cfg = TrialConfig(entry_bound=bound, seed=7)
    for stream in range(60):
        rng = random.Random(f"7:{stream}")
        expected = [[rng.randint(1, bound) for _ in range(5)] for _ in range(3)]
        assert _draw_diags(cfg, stream, 5, 3) == expected


def test_trial_streams_never_collide():
    # A linear seed such as seed * 1_000_003 + trial maps these two pairs to one stream.
    a = TrialConfig(seed=1).trial_rng(0)
    b = TrialConfig(seed=0).trial_rng(1_000_003)
    assert [a.random() for _ in range(4)] != [b.random() for _ in range(4)]
    draws = {TrialConfig(seed=s).trial_rng(t).random() for s in range(-3, 4) for t in range(40)}
    assert len(draws) == 7 * 40


def test_seed_changes_draws():
    e = e1()
    # ranks may coincide, so compare the verdict-relevant data across many seeds
    all_ranks = {sample_ranks(e, TrialConfig(trials=3, seed=s)) for s in range(5)}
    assert len(all_ranks) >= 1  # draws are valid for every seed
    for ranks in all_ranks:
        assert all(0 <= r <= e.R for r in ranks)


def test_max_tau_equals_rank_deficit(rng):
    # max_tau = R - generic rank; the sampled rank matches the generic one
    # at these sizes with overwhelming probability
    from rankloss.conditions import max_tau

    for trial in range(30):
        e = random_ensemble(rng)
        sampled = sample_generic_rank(e, TrialConfig(seed=trial))
        assert max_tau(e) == e.R - sampled


def test_one_sided_soundness_vs_c2(rng):
    # a fails-certain verdict must never contradict the exact condition
    for trial in range(40):
        e = random_ensemble(rng)
        cfg = TrialConfig(seed=trial)
        for tau in range(1, e.R + 1):
            verdict = check_C1(e, tau, cfg)
            if verdict.certain:
                assert not check_C2(e, tau).holds


def test_trial_config_validation():
    with pytest.raises(PreconditionError):
        TrialConfig(trials=0)
    with pytest.raises(PreconditionError):
        TrialConfig(entry_bound=1)
    # bool is an int subclass, but not a count; a float used to fail later, in range()
    for bad in ({"trials": True}, {"trials": 2.5}, {"entry_bound": 2.0**31}, {"seed": False}, {"seed": 1.0}):
        with pytest.raises(PreconditionError, match="must be an int"):
            TrialConfig(**bad)


def test_unprintable_bound_refused_before_sampling(monkeypatch):
    # (4 / 2**31) ** 500 has a 4365-digit denominator: the report could
    # not print it, so no draw is made.
    draws = []
    real = rankloss.randrank._draw_diags
    monkeypatch.setattr(rankloss.randrank, "_draw_diags", lambda *a: draws.append(a) or real(*a))
    with pytest.raises(PreconditionError, match="too long to print"):
        cross_validate(load_ensemble(FIXTURES / "E1.json"), 1, TrialConfig(trials=500))
    assert draws == []
