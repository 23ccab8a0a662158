"""The exact certifier: worked examples, witness canon, and invariances."""

from __future__ import annotations

import gc
import importlib
import itertools
import json
import pkgutil
import random
import time
import weakref
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import rankloss
from rankloss import conditions
from rankloss.cli import main
from rankloss.conditions import (
    CheckResult,
    Ensemble,
    Witness,
    _lex_next,
    _row_union,
    check_C2,
    check_C3,
    check_C4,
    check_C5,
    column_choices,
    cross_validate,
    max_tau,
)
from rankloss.errors import EquivalenceViolation, InternalInvariantError, PreconditionError
from rankloss.exactla import ExactMatrix, IndexSet, is_full_column_rank, rank, sparse_dim
from rankloss.fileio import emit_ensemble, load_ensemble
from rankloss.randrank import TrialConfig, sample_ranks

from conftest import (
    ENTRY_POOL,
    census,
    cofactor_det,
    e1,
    e1_generic,
    e3,
    fraction_scaled_rank,
    identity_matrix,
    issubset,
    random_ensemble,
    scale_column,
    submatrix,
    take_rows,
)


def test_ensemble_validation():
    with pytest.raises(PreconditionError):
        Ensemble((ExactMatrix.from_columns([[1, 0], [2, 0]]),))  # rank deficient
    with pytest.raises(Exception):
        Ensemble((identity_matrix(2), identity_matrix(3)))  # row mismatch
    e = e1()
    assert (e.n, e.K, e.R) == (4, 2, 4)


@pytest.mark.parametrize(
    "blocks, message",
    [
        ((), "ensemble needs at least one block"),
        ((ExactMatrix((), 2),), "blocks must have at least one row"),
        ((identity_matrix(2), ExactMatrix([[], []], 0)), "block 2 has no columns"),
        ((1, 2), "blocks must be a tuple of ExactMatrix"),
        ((identity_matrix(2), [[1, 0], [0, 1]]), "blocks must be a tuple of ExactMatrix"),
        ([identity_matrix(2)], "blocks must be a tuple of ExactMatrix"),
    ],
    ids=["no-block", "no-rows", "no-columns", "int-blocks", "list-block", "list-blocks"],
)
def test_ensemble_refuses_empty_shapes(blocks, message):
    with pytest.raises(PreconditionError) as err:
        Ensemble(blocks)
    assert str(err.value) == message


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
    identity = Ensemble((identity_matrix(3),))
    assert not check_C4(identity, 1).holds


def test_c5_examples():
    assert check_C5(e1(), 1).holds
    assert not check_C5(e3(), 1).holds
    full = Ensemble((identity_matrix(3),))
    assert not check_C5(full, 1).holds


def test_c5_holds_witnesses_are_valid():
    result = check_C5(e1(), 1)
    assert result.holds
    for w in result.witnesses:
        assert issubset(w.J, w.X)


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
        scaled_blocks[k] = scale_column(scaled_blocks[k], j, "-7/3")
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


def test_lex_next_walks_every_cap_in_sorted_order():
    # Exhaustive for n <= 8: from the empty set, the walk visits each subset of
    # cap once, in sorted() order of member tuples, then stops.
    for n in range(9):
        for cap in range(1 << n):
            members = [v for v in range(1, n + 1) if cap >> (v - 1) & 1]
            expected = sorted(j for size in range(len(members) + 1) for j in itertools.combinations(members, size))
            walk, mask = [], 0
            while mask is not None:
                walk.append(mask)
                mask = _lex_next(mask, cap)
            assert [IndexSet.from_mask(n, m).members for m in walk] == expected, (n, cap)


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
                product *= cofactor_det(submatrix(block, part, y))
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
        e.n - len(t) + sum(rank(take_rows(b, IndexSet(e.n, t))) for b in e.blocks)
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
            assert rank(take_rows(block, IndexSet(e.n, part))) == len(part)
        rows_t = IndexSet(e.n, cert.T)
        assert set(range(1, e.n + 1)) - set(covered) <= set(cert.T)
        assert cert.size == e.n - len(cert.T) + sum(rank(take_rows(b, rows_t)) for b in e.blocks)
        assert max_tau(e) == e.R - cert.size


def test_c6_needs_an_augmenting_path():
    # Row 1 fills B_1's one column, so row 2 (zero in B_2) must take it and
    # push row 1 over to B_2: an augmenting path of length 2.
    e = Ensemble.of([[1], [1]], [[1], [0]])
    assert _row_union(e).parts == ((2,), (1,))
    assert max_tau(e) == 0


def test_c6_certificate_catches_a_wrong_circuit(monkeypatch):
    # Dropping the largest member of every circuit loses the exchange the
    # augmenting path above needs; the exact re-check refuses the result.
    real = conditions._row_circuits

    def dropping(ensemble):
        circuit = real(ensemble)

        def mutated(i, part, y):
            members = circuit(i, part, y)
            return members if members is None else sorted(members)[:-1]

        return mutated

    monkeypatch.setattr(conditions, "_row_circuits", dropping)
    with pytest.raises(InternalInvariantError):
        max_tau(Ensemble.of([[1], [1]], [[1], [0]]))


def test_c6_certificate_catches_a_dependent_part(monkeypatch):
    # An oracle that never finds a circuit piles both rows into B_1's one
    # column.  The T bound still matches, so only the part check refuses it.
    monkeypatch.setattr(conditions, "_row_circuits", lambda ensemble: lambda i, part, y: None)
    with pytest.raises(InternalInvariantError, match="dependent"):
        max_tau(Ensemble.of([[1], [1]], [[1], [0]]))


def _dense_ensemble(n: int, k: int, seed: int) -> Ensemble:
    # k dense n x n/k blocks with entries in [-9, 9] and row 1 zero in all.
    rng = random.Random(seed)
    return Ensemble(
        tuple(
            ExactMatrix.from_rows([[rng.randint(-9, 9) if r else 0 for _ in range(n // k)] for r in range(n)])
            for _ in range(k)
        )
    )


def test_max_tau_at_n128_within_budget():
    e = _dense_ensemble(128, 2, 0)
    start = time.monotonic()
    assert max_tau(e) == 1
    assert time.monotonic() - start < 2.0


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
    """Every column choice's J scan run to the end, then the verdict at tau.

    J runs over sorted member tuples in Python's sorted() order, the
    canonical lex order, independent of the package's enumerators.
    """
    n = e.n
    subsets = sorted(j for size in range(n + 1) for j in itertools.combinations(range(1, n + 1), size))
    dims = {}

    def sparse(i, y, j):
        key = (i, y.members, j)
        if key not in dims:
            dims[key] = sparse_dim(e.blocks[i].take_cols(y), IndexSet(n, j))
        return dims[key]

    witnesses = []
    for ys in column_choices(e, e.R):
        best, argmax, first_at = -1, (), {}
        for j in subsets:
            slack = sum(sparse(i, y, j) for i, y in enumerate(ys)) - len(j)
            if slack > best:
                for level in range(best + 1, slack + 1):
                    first_at[level] = (j, slack)
                best, argmax = slack, j
        if best < tau:
            w = Witness("C2-counterexample", ys, J=IndexSet(n, argmax), slack=best - tau)
            return CheckResult("C2", False, (w,))
        j, slack = first_at[tau]
        witnesses.append(Witness("C2-witness", ys, J=IndexSet(n, j), slack=slack - tau))
    return CheckResult("C2", True, tuple(witnesses))


def _certify_wide_shaped(rng):
    """K = 3 blocks of 4 columns over n = 7 rows with one row zero in every block, drawn as certify-wide draws."""
    zero = rng.randrange(7)
    blocks = []
    while len(blocks) < 3:
        rows = [[0] * 4 if r == zero else rng.choices((-1, 0, 0, 0, 1, 2), k=4) for r in range(7)]
        block = ExactMatrix.from_rows(rows)
        if is_full_column_rank(block):
            blocks.append(block)
    return Ensemble(tuple(blocks))


def test_c2_resumed_scans_do_not_depend_on_query_order(rng):
    for k in range(33):
        e = _varied_ensemble(rng, max_n=5, max_k=3) if k < 30 else _certify_wide_shaped(rng)
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


def _memo_kind(key, value) -> str:
    if isinstance(value, ExactMatrix):
        return "rank table"
    if isinstance(key, TrialConfig):
        return "sampled ranks"
    if isinstance(value, tuple) and all(isinstance(scan, conditions._JScan) for scan in value):
        return "C2 scans"
    return type(value).__name__


def test_the_ensemble_keeps_only_what_a_later_call_reads():
    # Rank tables, the resumable C2 scans and C1's sampled ranks are read
    # again by later calls; no C3-C5 result and no C6 partition is kept.
    rng = random.Random(11)
    ensembles = [e1(), e3(), load_ensemble(str(ZERO_ROW))] + [random_ensemble(rng) for _ in range(20)]
    for e in ensembles:
        for tau in range(1, e.R + 1):
            cross_validate(e, tau)
        max_tau(e)
        kinds = Counter(_memo_kind(key, value) for key, value in e._memo.items())
        assert kinds.keys() == {"rank table", "C2 scans", "sampled ranks"}, (kinds, e)
        assert kinds["C2 scans"] == kinds["sampled ranks"] == 1
        assert e._memo[TrialConfig()] == sample_ranks(e, TrialConfig())


def test_rank_tables_are_built_once_per_block_and_column_choice(monkeypatch):
    # C2-C5 all read the ensemble's one restriction per (block, Y_i), C3 its
    # grid and the others its row ranks, and each restriction eliminates each
    # row mask once (C3's own eliminations are not counted): every elimination
    # of exactla's kernel adds a new entry to some restriction's memo, and
    # its rank over all rows comes from the block without one.
    take_cols = ExactMatrix.take_cols
    bareiss = rankloss.exactla._bareiss
    built, tables, eliminations = [], [], []

    def counting_take_cols(block, cols):
        built.append((id(block), cols.members))
        tables.append(take_cols(block, cols))
        return tables[-1]

    def counting_bareiss(a, n_cols):
        eliminations.append(n_cols)
        return bareiss(a, n_cols)

    monkeypatch.setattr(ExactMatrix, "take_cols", counting_take_cols)
    monkeypatch.setattr(rankloss.exactla, "_bareiss", counting_bareiss)
    rng = random.Random(2)
    total = 0
    for _ in range(8):
        e = random_ensemble(rng)
        built.clear()
        tables.clear()
        eliminations.clear()
        for tau in range(1, e.R + 1):
            cross_validate(e, tau)
        assert len(built) == len(set(built))
        assert len(eliminations) == sum(len(t._row_ranks) - 1 for t in tables)
        total += len(eliminations)
    assert total > 0


def _tables_corpus() -> list[Ensemble]:
    rng = random.Random(5)
    return [e1(), e3(), load_ensemble(str(ZERO_ROW))] + [random_ensemble(rng) for _ in range(20)]


def test_c4_reads_the_tables_c3_built(monkeypatch):
    # C3 and C4 scan the same pairs, and each pair's restrictions come from
    # the ensemble's rank tables, so C4 after C3 restricts no block again.
    take_cols = ExactMatrix.take_cols
    built = []

    def counting_take_cols(block, cols):
        built.append(cols)
        return take_cols(block, cols)

    monkeypatch.setattr(ExactMatrix, "take_cols", counting_take_cols)
    by_c3 = 0
    for e in _tables_corpus():
        for tau in range(1, e.R + 1):
            built.clear()
            check_C3(e, tau)
            by_c3 += len(built)
            built.clear()
            check_C4(e, tau)
            assert built == [], (e, tau)
    assert by_c3 > 0


def test_c3_reads_no_row_rank_memo(monkeypatch):
    # C3 eliminates the tables' rows itself, so with the tables built its
    # report stands without a single row-subset rank.
    def refuse(matrix, mask):
        raise AssertionError("C3 read a row-subset rank")

    for e in _tables_corpus():
        for tau in range(1, e.R + 1):
            expected = check_C3(e, tau)
            with monkeypatch.context() as patched:
                patched.setattr(ExactMatrix, "_rank_of_rows", refuse)
                assert check_C3(e, tau) == expected, (e, tau)


# ---------------------------------------------------------------------------
# C3-C5 witnesses against a plain full scan
# ---------------------------------------------------------------------------

def _ordered_parts(members, sizes):
    """Ordered partitions of `members` into parts of the given sizes, first part varying slowest."""
    if not sizes:
        yield ()
        return
    for part in itertools.combinations(members, sizes[0]):
        rest = tuple(v for v in members if v not in part)
        for tail in _ordered_parts(rest, sizes[1:]):
            yield (part,) + tail


def _full_profile_x(e):
    """C3, C4 and C5 scanned over every X through the public matrix primitives.

    X runs in lex member order, then the |X|-column choices, then ordered
    partitions (C3, C4) or the J inside X in lex member order (C5).
    Returns the first violation of each |X| per condition, and C5's holder
    of every (X, Ys) pair where C5 holds, in scan order.
    """
    n = e.n
    rows = range(1, n + 1)
    dims, dets = {}, {}

    def sparse(i, y, members):
        key = (i, y.members, members)
        if key not in dims:
            dims[key] = sparse_dim(e.blocks[i].take_cols(y), IndexSet(n, members))
        return dims[key]

    def nonsingular(i, y, part):
        key = (i, y.members, part)
        if key not in dets:
            dets[key] = cofactor_det(submatrix(e.blocks[i], IndexSet(n, part), y)) != 0
        return dets[key]

    first = {"C3": {}, "C4": {}, "C5": {}}
    holders = []
    xs = sorted(x for size in range(1, n + 1) for x in itertools.combinations(rows, size))
    for x in xs:
        xset, outside = IndexSet(n, x), tuple(v for v in rows if v not in x)
        subsets = sorted(j for size in range(len(x) + 1) for j in itertools.combinations(x, size))
        for ys in column_choices(e, len(x)):
            for parts in _ordered_parts(x, [len(y) for y in ys]):
                partition = tuple(IndexSet(n, p) for p in parts)
                if all(nonsingular(i, y, p) for i, (y, p) in enumerate(zip(ys, parts))):
                    first["C3"].setdefault(len(x), Witness("C3-violation", ys, X=xset, partition=partition))
                off = [tuple(v for v in rows if v not in p) for p in parts]
                if all(sparse(i, y, o) == 0 for i, (y, o) in enumerate(zip(ys, off))):
                    first["C4"].setdefault(len(x), Witness("C4-violation", ys, X=xset, partition=partition))
            margins = [
                sum(sparse(i, y, tuple(sorted(j + outside))) for i, y in enumerate(ys)) - len(j)
                for j in subsets
            ]
            held = next((j for j, margin in zip(subsets, margins) if margin > 0), None)
            if held is not None:
                holders.append(Witness("C5-witness", ys, J=IndexSet(n, held), X=xset))
            else:
                best = max(margins)
                argmax = IndexSet(n, subsets[margins.index(best)])
                first["C5"].setdefault(len(x), Witness("C5-counterexample", ys, J=argmax, X=xset, slack=best))
    return first, holders


def _reference_x_check(e, profile, condition, tau):
    """The verdict at tau: the failing witness at the earliest X above R - tau, else C5's holders there."""
    first, holders = profile
    threshold = e.R - tau
    hits = [w for size, w in first[condition].items() if size > threshold]
    if hits:
        return CheckResult(condition, False, (min(hits, key=lambda w: w.X.members),))
    held = tuple(w for w in holders if len(w.X) > threshold) if condition == "C5" else ()
    return CheckResult(condition, True, held)


def test_c3_c4_c5_witnesses_match_a_full_scan(rng):
    checks = {"C3": check_C3, "C4": check_C4, "C5": check_C5}
    failing = {name: 0 for name in checks}
    # The smallest census domain makes the reference exhaustive there.
    for e in [e1(), e3()] + [random_ensemble(rng, max_n=5) for _ in range(40)] + census(3, 2):
        profile = _full_profile_x(e)
        for tau in range(1, e.R + 1):
            for name, check in checks.items():
                result = check(e, tau)
                assert result.to_dict() == _reference_x_check(e, profile, name, tau).to_dict(), (name, tau, e)
                if result.holds:
                    continue
                failing[name] += 1
                [w] = result.witnesses
                restricted = [b.take_cols(y) for b, y in zip(e.blocks, w.Y)]
                if name == "C4":
                    assert all(sparse_dim(b, p.complement()) == 0 for b, p in zip(restricted, w.partition))
                if name == "C5":
                    outside = w.X.complement()
                    assert w.slack == max(
                        sum(sparse_dim(b, IndexSet(e.n, j).union(outside)) for b in restricted) - len(j)
                        for size in range(len(w.X) + 1)
                        for j in itertools.combinations(w.X.members, size)
                    )
    assert min(failing.values()) > 0


ZERO_ROW = Path(__file__).resolve().parent / "golden" / "zero_row_n6.json"


def _zero_row_ensemble(seed: int, n: int, sizes: tuple[int, ...]) -> Ensemble:
    """Blocks of `sizes` columns over n rows, one row zero in every block.

    random.Random(seed) draws the zero row, then the entries from ENTRY_POOL.
    """
    rng = random.Random(seed)
    zero = rng.randint(1, n)
    blocks = [[[0 if r == zero else rng.choice(ENTRY_POOL) for r in range(1, n + 1)] for _ in range(m)] for m in sizes]
    return Ensemble(tuple(ExactMatrix.from_columns(cols, n) for cols in blocks))


def test_c5_walks_only_inside_x_and_matches_a_full_scan_at_n6_n7(monkeypatch):
    # C5 walks J inside X, and on n = 6-7 ensembles with a shared zero row
    # it meets caps X with gaps, holders whose J the walk reaches only after
    # a retreat step, and failing X with gaps.  A successor that steps
    # outside X leaves every witness unchanged (such a J scores below its
    # part inside X, which the walk also visits in the same order), so the
    # walk itself is checked too: every J it steps to lies inside its cap.
    steps = []

    def recording(mask, cap):
        steps.append((_lex_next(mask, cap), cap))
        return steps[-1][0]

    monkeypatch.setattr(conditions, "_lex_next", recording)
    drawn = ((0, 6, (3, 2, 2)), (10, 7, (2, 2, 2)), (10, 7, (3, 2, 2)), (20, 7, (3, 3, 2)))
    ensembles = [load_ensemble(str(ZERO_ROW))] + [_zero_row_ensemble(*case) for case in drawn]
    checks = {"C3": check_C3, "C4": check_C4, "C5": check_C5}
    late_holders = failing_gapped = 0
    for e in ensembles:
        profile = _full_profile_x(e)
        for tau in range(1, e.R + 1):
            for name, check in checks.items():
                result = check(e, tau)
                assert result.to_dict() == _reference_x_check(e, profile, name, tau).to_dict(), (name, tau, e)
            for w in check_C5(e, tau).witnesses:
                gapped = w.X.members[-1] - w.X.members[0] >= len(w.X)
                late_holders += gapped and w.kind == "C5-witness" and w.J.members != w.X.members[: len(w.J)]
                failing_gapped += gapped and w.kind == "C5-counterexample"
    assert late_holders > 0 and failing_gapped > 0
    assert [(nxt, cap) for nxt, cap in steps if nxt is not None and nxt & ~cap] == []


def test_c3_c4_c5_scan_only_the_size_their_verdict_reads(monkeypatch):
    # At tau, C3 and C4 scan the row sets of size R - tau + 1 alone, and so
    # does a failing C5; a holding C5 goes on to the sizes above, for its
    # holders.  No call scans a size twice.
    sizes = []
    pairs_of_size = conditions._pairs_of_size

    def recording(ensemble, size):
        sizes.append(size)
        return pairs_of_size(ensemble, size)

    monkeypatch.setattr(conditions, "_pairs_of_size", recording)
    rng = random.Random(5)
    two_zero_rows = Ensemble.of([[1, 0], [0, 1], [0, 0], [0, 0]], [[1, 1], [1, 2], [0, 0], [0, 0]])  # max_tau 2
    ensembles = [e1(), e1_generic(), e3(), two_zero_rows, load_ensemble(str(ZERO_ROW))]
    ensembles += [random_ensemble(rng) for _ in range(20)]
    holding = failing = 0
    for e in ensembles:
        for tau in range(1, e.R + 1):
            first = e.R - tau + 1
            for check in (check_C3, check_C4, check_C5):
                sizes.clear()
                result = check(Ensemble(e.blocks), tau)
                above = check is check_C5 and result.holds
                assert sorted(sizes) == list(range(first, e.R + 1) if above else [first]), (check.__name__, tau, e)
                holding += above and first < e.R
                failing += not result.holds
    assert holding > 0 and failing > 0


def test_c3_c4_c5_reports_do_not_depend_on_query_order():
    # Each call scans its sizes afresh and shares only the rank tables, so
    # the taus asked before, in any order, change no report.
    def reports(e, taus):
        return {tau: [check(e, tau).to_dict() for check in (check_C3, check_C4, check_C5)] for tau in taus}

    for e in (e1(), e1_generic(), e3(), load_ensemble(str(ZERO_ROW))):
        taus = list(range(1, e.R + 1))
        ascending = reports(Ensemble(e.blocks), taus)
        assert reports(Ensemble(e.blocks), taus[::-1]) == ascending
        assert {tau: reports(Ensemble(e.blocks), [tau])[tau] for tau in taus} == ascending


def test_c3_c4_search_never_extends_a_failing_part(monkeypatch):
    # The partition search tests each part as it is chosen and extends only
    # a passing one; testing every ordered partition in full would take
    # 11,860 `_bareiss` and 21,026 `_rank_of_rows` calls here.
    calls = Counter()
    bareiss, rank_of_rows = conditions._bareiss, ExactMatrix._rank_of_rows

    def counting_bareiss(*args):
        calls["_bareiss"] += 1
        return bareiss(*args)

    def counting_rank_of_rows(self, mask):
        calls["_rank_of_rows"] += 1
        return rank_of_rows(self, mask)

    golden = json.loads((ZERO_ROW.parent / "equiv-zero_row_n6-tau2.json").read_text())
    expected = {r["condition"]: r for r in golden["results"]}
    c3_ensemble, c4_ensemble = load_ensemble(str(ZERO_ROW)), load_ensemble(str(ZERO_ROW))
    monkeypatch.setattr(conditions, "_bareiss", counting_bareiss)
    monkeypatch.setattr(ExactMatrix, "_rank_of_rows", counting_rank_of_rows)
    assert check_C3(c3_ensemble, 2).to_dict() == expected["C3"]
    assert calls["_bareiss"] < 9000
    assert check_C4(c4_ensemble, 2).to_dict() == expected["C4"]
    assert calls["_rank_of_rows"] < 9000


def test_check_c5_fails_when_a_size_above_the_first_fails(monkeypatch):
    # A holding first size does not hide a failing size above it among the holders.
    c5_at = conditions._c5_at
    two_zero_rows = Ensemble.of([[1, 0], [0, 1], [0, 0], [0, 0]], [[1, 1], [1, 2], [0, 0], [0, 0]])  # max_tau 2
    y = IndexSet(2, (1, 2))
    hit = Witness("C5-counterexample", (y, y), J=IndexSet(4, ()), X=IndexSet(4, (1, 2, 3, 4)), slack=0)
    failing = CheckResult("C5", False, (hit,))
    monkeypatch.setattr(conditions, "_c5_at", lambda e, size: c5_at(e, size) if size == 3 else failing)
    assert c5_at(two_zero_rows, 3).holds
    assert check_C5(two_zero_rows, 2) == failing


# Per (n, K): classes, reports (one per class and tau) and the max_tau histogram.
CENSUS = {
    (3, 2): (91, 264, {0: 78, 1: 13}),
    (3, 3): (780, 2340, {0: 743, 1: 36, 2: 1}),
    (4, 2): (471, 1734, {0: 359, 1: 108, 2: 4}),
}


@pytest.mark.parametrize("n, k", CENSUS)
def test_census_cross_validates_every_class_at_every_tau(n, k):
    # Every small {0,1} ensemble up to joint row permutation: C1-C5 agree at
    # every tau and C2 with C6's max_tau.  The pinned counts show a change in
    # the canonical form or in max_tau.
    ensembles = census(n, k)
    reports, histogram = 0, Counter()
    for index, e in enumerate(ensembles):
        tau_star = max_tau(e)
        histogram[tau_star] += 1
        for tau in range(1, e.R + 1):
            assert cross_validate(e, tau, TrialConfig(seed=index)).verdicts["C2"] == (tau <= tau_star), (tau, e)
            reports += 1
    assert (len(ensembles), reports, histogram) == CENSUS[n, k]


def test_cross_validate_raises_when_the_verdicts_disagree(monkeypatch):
    # A verdict that disagrees with the others stops cross_validate, report attached.
    check_c3 = conditions.check_C3
    monkeypatch.setattr(conditions, "check_C3", lambda e, tau: CheckResult("C3", not check_c3(e, tau).holds))
    with pytest.raises(EquivalenceViolation) as err:
        cross_validate(e1(), 1)
    report = err.value.report
    assert report.verdicts["C3"] != report.verdicts["C2"]
    assert not report.agreement
