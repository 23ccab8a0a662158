"""Matroid machinery against brute-force enumeration oracles."""

from __future__ import annotations

import itertools

import pytest

from rankloss.conditions import column_choices
from rankloss.errors import CapacityError, PreconditionError, ShapeError
from rankloss.exactla import ExactMatrix, IndexSet, sparse_dim
from rankloss.matroid import (
    RankOracleMatroid,
    dual,
    is_independent,
    scaled_linear_matroid,
    union_rank,
    verify_axioms,
)

from conftest import (
    brute_union_rank,
    e1,
    e3,
    full_set,
    identity_matrix,
    random_block,
    random_ensemble,
    subsets,
    union_deficiency,
)

B1 = ExactMatrix.from_rows([[1, 1], [1, 2], [1, 3], [0, 0]])


def free_matroid(k: int) -> RankOracleMatroid:
    return RankOracleMatroid(tuple(range(1, k + 1)), len)


def uniform_matroid(r: int, k: int) -> RankOracleMatroid:
    return RankOracleMatroid(tuple(range(1, k + 1)), lambda s: min(r, len(s)))


def enumerated_rank(matroid: RankOracleMatroid, subset) -> int:
    independent = [s for s in subsets(matroid.ground) if matroid.rank(s) == len(s)]
    return max(len(i) for i in independent if set(i) <= set(subset))


def enumerated_dual_rank(matroid: RankOracleMatroid, subset) -> int:
    # complement-of-basis semantics: I* is dual-independent iff some basis avoids it
    full = matroid.full_rank()
    dual_independent = [
        s for s in subsets(matroid.ground)
        if matroid.rank(set(matroid.ground) - set(s)) == full
    ]
    return max(len(i) for i in dual_independent if set(i) <= set(subset))


def test_scaled_linear_fixture_rank():
    m = scaled_linear_matroid(B1, IndexSet.of(4, [1, 2, 3]), full_set(2))
    assert m.rank([1, 2, 3]) == 1
    assert not is_independent(m, [1, 2])
    assert m.rank([1, 2]) == 1


def test_scaled_linear_generic_is_free():
    block = ExactMatrix.from_columns([[1, 2, 3], [1, 5, 7]])
    m = scaled_linear_matroid(block, full_set(3), full_set(2))
    for s in subsets((1, 2, 3)):
        expected = len(s) - sparse_dim(block, IndexSet.of(3, s))
        assert m.rank(s) == expected


def test_scaled_linear_loop_element():
    block = ExactMatrix.from_columns([[1, 0, 0]])
    m = scaled_linear_matroid(block, full_set(3), full_set(1))
    assert m.rank([1]) == 0  # the column sits inside S_{1}: element 1 is a loop
    assert is_independent(m, [])


def test_scaled_linear_precondition():
    # both columns vanish on row 4, so X^c = {4} is fine; X^c = {1} is not
    scaled_linear_matroid(B1, IndexSet.of(4, [1, 2, 3]), full_set(2))
    with pytest.raises(PreconditionError):
        scaled_linear_matroid(
            ExactMatrix.from_columns([[1, 0, 0]]), IndexSet.of(3, [2, 3]), full_set(1)
        )


def test_oracle_matroid_keeps_no_per_query_state():
    asked = []
    m = RankOracleMatroid((1, 2, 3), lambda s: asked.append(s) or len(s))
    assert m.rank([1, 2]) == m.rank([2, 1]) == 2
    assert asked == [frozenset({1, 2})] * 2
    assert vars(m).keys() == {"ground", "rank_fn"}


def sparse_dim_rank(block, x, y, subset) -> int:
    # The rank as first defined: |J| - dim(S_{J u X^c} & colspan B_{*,Y}).
    return len(subset) - sparse_dim(block.take_cols(y), IndexSet.of(x.universe, subset).union(x.complement()))


def test_scaled_linear_ranks_match_the_sparse_dimension_definition(rng, matroid_instances):
    # Criteria 3 and 4's blocks, then random X and Y (empty ones included),
    # where the construction is refused exactly when sparse_dim(B_Y, X^c) > 0.
    cases = [(block, x, y) for x, group in matroid_instances for block, y, _ in group]
    for _ in range(150):
        n = rng.randint(1, 5)
        block = random_block(rng, n, rng.randint(1, n))
        cases.append(
            (block, IndexSet.from_mask(n, rng.getrandbits(n)), IndexSet.from_mask(block.n_cols, rng.getrandbits(block.n_cols)))
        )
    built = 0
    for block, x, y in cases:
        defined = sparse_dim(block.take_cols(y), x.complement()) == 0
        try:
            m = scaled_linear_matroid(block, x, y)
        except PreconditionError:
            assert not defined
            continue
        assert defined
        built += 1
        d, full = dual(m), sparse_dim_rank(block, x, y, x.members)
        for s in subsets(x.members):
            assert m.rank(s) == sparse_dim_rank(block, x, y, s)
            rest = tuple(v for v in x if v not in s)
            assert d.rank(s) == len(s) - full + sparse_dim_rank(block, x, y, rest)
    assert built > 200


def test_dual_of_free_is_all_loops():
    d = dual(free_matroid(3))
    for s in subsets((1, 2, 3)):
        assert d.rank(s) == 0


def test_dual_of_uniform():
    d = dual(uniform_matroid(1, 3))
    assert d.full_rank() == 2
    for s in subsets((1, 2, 3)):
        assert d.rank(s) == enumerated_dual_rank(uniform_matroid(1, 3), s)


def test_dual_involution(rng):
    for _ in range(20):
        n = rng.randint(2, 5)
        block = random_block(rng, n, rng.randint(1, min(3, n)))
        x = full_set(n)
        try:
            m = scaled_linear_matroid(block, x, full_set(block.n_cols))
        except PreconditionError:
            continue
        dd = dual(dual(m))
        for s in subsets(m.ground):
            assert dd.rank(s) == m.rank(s)


def test_dual_rank_simplification(rng):
    # dual rank equals |Y| - dim(S_{J^c} & colspan B_{*,Y}) for scaled-linear matroids
    for _ in range(30):
        n = rng.randint(2, 5)
        block = random_block(rng, n, rng.randint(1, min(3, n)))
        y = full_set(block.n_cols)
        if sparse_dim(block, IndexSet(n, ())) != 0:
            continue
        m = scaled_linear_matroid(block, full_set(n), y)
        d = dual(m)
        for s in subsets(m.ground):
            j = IndexSet.of(n, s)
            assert d.rank(s) == len(y) - sparse_dim(block, j.complement())


def test_union_rank_single_matroid():
    m = uniform_matroid(2, 3)
    for s in subsets((1, 2, 3)):
        assert union_rank([m], s) == m.rank(s)


def test_union_rank_two_free():
    a, b = free_matroid(2), free_matroid(2)
    assert union_rank([a, b], [1, 2]) == 2


def test_union_two_uniform_rank_one():
    a, b = uniform_matroid(1, 2), uniform_matroid(1, 2)
    assert union_rank([a, b], [1, 2]) == 2


def test_union_rank_matches_brute_force(rng):
    for _ in range(25):
        n = rng.randint(2, 5)
        k = rng.randint(1, 3)
        matroids = []
        x = full_set(n)
        for _ in range(k):
            block = random_block(rng, n, rng.randint(1, min(3, n)))
            try:
                matroids.append(scaled_linear_matroid(block, x, full_set(block.n_cols)))
            except PreconditionError:
                matroids.append(free_matroid(n))
        union = RankOracleMatroid(tuple(range(1, n + 1)), lambda s: union_rank(matroids, s))
        for s in subsets(tuple(range(1, n + 1))):
            assert union.rank(s) == brute_union_rank(matroids, s)


def test_union_rank_monotone_submodular(rng):
    n = 4
    ms = [uniform_matroid(1, n), free_matroid(n)]
    u = RankOracleMatroid(tuple(range(1, n + 1)), lambda s: union_rank(ms, s))
    all_subsets = list(subsets(tuple(range(1, n + 1))))
    table = {s: u.rank(s) for s in all_subsets}
    for s, t in itertools.product(all_subsets, repeat=2):
        ss, ts = set(s), set(t)
        if ss <= ts:
            assert table[s] <= table[t]
        union_r = u.rank(ss | ts)
        inter_r = u.rank(ss & ts)
        assert union_r + inter_r <= table[s] + table[t]


def test_verify_axioms_pass_and_negative_control():
    assert verify_axioms(free_matroid(4)).ok
    broken = RankOracleMatroid((1, 2, 3), lambda s: len(s) % 2)
    report = verify_axioms(broken)
    assert not report.ok
    assert any("submodular" in v or "monotonicity" in v or "rank" in v for v in report.violations)


def test_verify_axioms_capacity():
    with pytest.raises(CapacityError):
        verify_axioms(free_matroid(9))


def test_scaled_linear_axioms_random(rng):
    # The load-bearing property: the scaled-linear rank formula defines a matroid.
    checked = 0
    while checked < 40:
        n = rng.randint(2, 5)
        block = random_block(rng, n, rng.randint(1, min(3, n)))
        xmembers = [v for v in range(1, n + 1) if rng.random() < 0.8]
        x = IndexSet.of(n, xmembers)
        try:
            m = scaled_linear_matroid(block, x, full_set(block.n_cols))
        except PreconditionError:
            continue
        report = verify_axioms(m)
        assert report.ok, report.violations
        for s in subsets(m.ground):
            assert m.rank(s) == enumerated_rank(m, s)
        checked += 1


def _c4_partition_condition(ensemble, x: IndexSet, ys) -> bool:
    # for all ordered partitions (I_1..I_K) of X with |I_i| = |Y_i|:
    # some block keeps a sparse dimension on the complement of its part
    n = ensemble.n
    sizes = [len(y) for y in ys]

    def rec(members, idx):
        if idx == len(sizes):
            return True  # all partitions so far satisfied
        for part in itertools.combinations(members, sizes[idx]):
            rest = tuple(v for v in members if v not in part)
            if not rec_check(part, rest, idx):
                return False
        return True

    parts_acc = []

    def rec_check(part, rest, idx):
        parts_acc.append(part)
        ok = True
        if idx + 1 == len(sizes):
            total = sum(
                sparse_dim(
                    ensemble.blocks[i].take_cols(ys[i]),
                    IndexSet.of(n, set(range(1, n + 1)) - set(p)),
                )
                for i, p in enumerate(parts_acc)
            )
            ok = total > 0
        else:
            ok = rec(rest, idx + 1)
        parts_acc.pop()
        return ok

    return rec(tuple(x), 0)


def test_union_deficiency_matches_partition_condition(rng):
    # Dual-union deficiency must coincide with the C4 partition
    # condition, for every (X, Ys) where the matroids are defined.
    instances = 0
    while instances < 12:
        e = random_ensemble(rng, max_n=4, max_k=2)
        n = e.n
        for xmask in range(1, 1 << n):
            x = IndexSet.from_mask(n, xmask)
            for ys in column_choices(e, len(x)):
                try:
                    deficient = union_deficiency(e, x, ys)
                except PreconditionError:
                    # construction undefined: the partition condition holds trivially
                    assert _c4_partition_condition(e, x, ys)
                    continue
                assert deficient == _c4_partition_condition(e, x, ys)
        instances += 1


def test_union_deficiency_examples():
    e = e1()
    x = IndexSet.of(4, [1, 2, 3])
    for ys in column_choices(e, len(x)):
        assert union_deficiency(e, x, ys) == _c4_partition_condition(e, x, ys)
    generic = e3()
    x3 = full_set(3)
    ys3 = (full_set(1), full_set(2))
    assert union_deficiency(generic, x3, ys3) is False
    single = identity_matrix(3)
    from rankloss.conditions import Ensemble

    assert union_deficiency(Ensemble((single,)), x3, (full_set(3),)) is False


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda m: m.rank([1, 5]), PreconditionError, "[5] not in ground set"),
        (
            lambda m: scaled_linear_matroid(B1, IndexSet.of(3, [1]), full_set(2)),
            ShapeError,
            "X over [3] against 4-row matrix",
        ),
        (lambda m: union_rank([], [1]), PreconditionError, "union of no matroids"),
        (
            lambda m: union_rank([m, RankOracleMatroid((1, 2), len)], [1]),
            PreconditionError,
            "union requires a common ground set",
        ),
        (lambda m: union_rank([m, m], [1, 9]), PreconditionError, "[9] not in ground set"),
    ],
    ids=["rank-outside-ground", "scaled-linear-universe", "union-of-none", "union-grounds", "union-outside-ground"],
)
def test_oracles_refuse_what_lies_outside_their_ground(call, error, message):
    m = RankOracleMatroid((1, 2, 3), len)
    with pytest.raises(error) as err:
        call(m)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "rank_fn, violation",
    [
        (lambda s: len(s) + 1, "rank(empty) = 1 != 0"),
        (lambda s: 2 * len(s), "rank([1]) = 2 outside [0, 1]"),
    ],
    ids=["nonzero-empty", "above-size"],
)
def test_verify_axioms_flags_rank_bounds(rank_fn, violation):
    report = verify_axioms(RankOracleMatroid((1, 2), rank_fn))
    assert report.ok is False
    assert violation in report.violations


def _rank_of_family(independent):
    """The rank function a family of independent sets induces: the largest member inside the set."""
    family = [frozenset(i) for i in independent]
    return lambda s: max(len(i) for i in family if i <= s)


@pytest.mark.parametrize(
    "ground, rank_fn, violation",
    [
        ((1, 2), {frozenset(): 0, frozenset({1}): 0, frozenset({2}): 1, frozenset({1, 2}): 2}.get,
         "hereditary property fails below [1, 2]"),
        ((1, 2, 3), _rank_of_family([(), (1,), (2,), (3,), (2, 3)]), "exchange fails for [1] into [2, 3]"),
    ],
    ids=["hereditary", "exchange"],
)
def test_verify_axioms_flags_independence_families(ground, rank_fn, violation):
    report = verify_axioms(RankOracleMatroid(ground, rank_fn))
    assert report.ok is False
    assert violation in report.violations
