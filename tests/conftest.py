"""Shared fixtures: canonical worked examples and random generators."""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

import pytest

from rankloss.conditions import Ensemble
from rankloss.exactla import ExactMatrix, is_full_column_rank, rank
from rankloss.tim import Topology

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# 50% zero mass keeps sparse structure likely while staying full column rank.
ENTRY_POOL = [-1, 0, 0, 0, 1, 2]


def e1() -> Ensemble:
    """Two 4x2 blocks, both with a zero fourth row: rank loss exactly 1."""
    b1 = ExactMatrix.from_rows([[1, 1], [1, 2], [1, 3], [0, 0]])
    b2 = ExactMatrix.from_rows([[1, 0], [0, 1], [1, 1], [0, 0]])
    return Ensemble((b1, b2))


def e1_generic() -> Ensemble:
    """E1 with block 2's fourth row replaced by generic nonzeros: no rank loss."""
    b1 = ExactMatrix.from_rows([[1, 1], [1, 2], [1, 3], [0, 0]])
    b2 = ExactMatrix.from_rows([[1, 0], [0, 1], [1, 1], [5, 7]])
    return Ensemble((b1, b2))


def e3() -> Ensemble:
    """Dense 3x1 and 3x2 blocks: the determinant expansion is generically nonzero."""
    b1 = ExactMatrix.from_columns([[1, 2, 4]])
    b2 = ExactMatrix.from_columns([[1, 3, 9], [1, 5, 25]])
    return Ensemble((b1, b2))


def t6() -> Topology:
    """Six users; reduced conflict graph bipartite while the regular one is not."""
    return Topology.of({6}, {6}, {6}, {2, 5}, {3, 4}, {1})


def t9a() -> Topology:
    """Nine users, three mutually conflicting alignment sets: chi = 3."""
    return Topology.of({2, 4}, {3, 5}, {1, 6}, *[set()] * 6)


def t9b() -> Topology:
    """Nine users with a shared interferer: exclusive-alignment property fails."""
    return Topology.of({2, 3}, {7}, {4, 5}, {7}, {6, 1}, {7}, set(), set(), {7, 8})


def cofactor_det(m: ExactMatrix) -> Fraction:
    """Determinant by Laplace expansion along the first row: independent of any elimination."""
    if m.n_rows == 0:
        return Fraction(1)
    total = Fraction(0)
    for j, v in enumerate(m.rows[0]):
        minor = ExactMatrix(tuple(row[:j] + row[j + 1:] for row in m.rows[1:]), m.n_cols - 1)
        total += (-1) ** j * v * cofactor_det(minor)
    return total


def fraction_scaled_rank(blocks, diags) -> int:
    """Rank of [D_1 B_1 | ... | D_k B_k], built over Fraction and ranked by the public kernel.

    The reference for the sampled route, which clears each block's column
    denominators once and eliminates integer rows; no blocks give rank 0.
    """
    scaled = [
        ExactMatrix(tuple(tuple(v * d for v in row) for row, d in zip(b.rows, diag)), b.n_cols)
        for b, diag in zip(blocks, diags)
    ]
    if not scaled:
        return 0
    out = scaled[0]
    for block in scaled[1:]:
        out = out.hstack(block)
    return rank(out)


def random_block(rng: random.Random, n: int, m: int) -> ExactMatrix:
    while True:
        rows = [[rng.choice(ENTRY_POOL) for _ in range(m)] for _ in range(n)]
        block = ExactMatrix.from_rows(rows)
        if is_full_column_rank(block):
            return block


def random_ensemble(rng: random.Random, max_n: int = 6, max_k: int = 3) -> Ensemble:
    n = rng.randint(2, max_n)
    k = rng.randint(1, max_k)
    ms = [rng.randint(1, min(3, n)) for _ in range(k)]
    return Ensemble(tuple(random_block(rng, n, m) for m in ms))


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)
