"""Randomized evaluation oracle for the ensemble's almost-sure rank.

Scaling coefficients are sampled as uniform nonzero integers and the
scaled concatenation's rank is computed exactly.  Any single evaluation
point gives a certain lower bound on the generic rank; by the
Zippel-Schwartz lemma the maximum over trials equals the generic rank
except with probability at most (n / entry_bound) ** trials.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, Sequence

from .errors import PreconditionError, ShapeError
from .exactla import ExactMatrix, _bareiss, _integer_columns

if TYPE_CHECKING:
    from .conditions import Ensemble


@dataclass(frozen=True)
class TrialConfig:
    """Sampling parameters; a fixed seed makes every draw reproducible."""

    trials: int = 20
    entry_bound: int = 2**31
    seed: int = 0

    def __post_init__(self):
        if self.trials < 1:
            raise PreconditionError(f"trials must be >= 1, got {self.trials}")
        if self.entry_bound < 2:
            raise PreconditionError(f"entry_bound must be >= 2, got {self.entry_bound}")

    def trial_rng(self, trial: int) -> random.Random:
        # Counter-style derivation: one independent stream per trial index.
        return random.Random(self.seed * 1_000_003 + trial)


def scaled_block(block: ExactMatrix, diag: Sequence[int]) -> ExactMatrix:
    """Multiply row i of the block by diag[i] (a sampled diagonal scaling)."""
    if len(diag) != block.n_rows:
        raise ShapeError(f"{len(diag)} scalings for {block.n_rows} rows")
    return ExactMatrix(
        tuple(tuple(v * d for v in row) for row, d in zip(block.rows, diag)),
        block.n_cols,
    )


def scaled_concatenation(ensemble: "Ensemble", diags: Sequence[Sequence[int]]) -> ExactMatrix:
    """The ensemble matrix [D_1 B_1 ... D_K B_K] for given diagonal scalings."""
    if len(diags) != ensemble.K:
        raise ShapeError(f"{len(diags)} diagonals for {ensemble.K} blocks")
    out = scaled_block(ensemble.blocks[0], diags[0])
    for block, diag in zip(ensemble.blocks[1:], diags[1:]):
        out = out.hstack(scaled_block(block, diag))
    return out


def _draw_diags(ensemble: "Ensemble", cfg: TrialConfig, trial: int) -> list[list[int]]:
    rng = cfg.trial_rng(trial)
    return [[rng.randint(1, cfg.entry_bound) for _ in range(ensemble.n)] for _ in range(ensemble.K)]


def sample_ranks(ensemble: "Ensemble", cfg: TrialConfig) -> tuple[int, ...]:
    """Exact rank of the scaled concatenation at each of cfg.trials sample points.

    Each block's columns are cleared of denominators once; that column
    scaling leaves the rank at every sample point unchanged, so each trial
    eliminates plain integers.
    """
    grids = [_integer_columns(block) for block in ensemble.blocks]
    n_cols = sum(ensemble.column_counts)
    ranks = []
    for t in range(cfg.trials):
        diags = _draw_diags(ensemble, cfg, t)
        rows = [
            [d[r] * v for grid, d in zip(grids, diags) for v in grid[r]]
            for r in range(ensemble.n)
        ]
        ranks.append(_bareiss(rows, n_cols)[0])
    return tuple(ranks)


@lru_cache(maxsize=4096)
def _cached_ranks(ensemble: "Ensemble", cfg: TrialConfig) -> tuple[int, ...]:
    return sample_ranks(ensemble, cfg)


def sample_generic_rank(ensemble: "Ensemble", cfg: TrialConfig | None = None) -> int:
    """Maximum sampled rank: a certain lower bound on the generic rank.

    Equals the generic rank except with probability at most
    failure_bound(ensemble, cfg).
    """
    cfg = cfg or TrialConfig()
    return max(_cached_ranks(ensemble, cfg))


def failure_bound(ensemble: "Ensemble", cfg: TrialConfig) -> Fraction:
    """Zippel-Schwartz bound on all trials undershooting the generic rank."""
    return Fraction(ensemble.n, cfg.entry_bound) ** cfg.trials


@dataclass(frozen=True)
class C1Verdict:
    """Outcome of the sampled rank-loss check.

    A failing verdict is certain: some sample point witnessed rank above
    R - tau, and evaluation rank never exceeds generic rank.  A holding
    verdict is probabilistic, with `bound` the probability it is wrong.
    """

    holds: bool
    certain: bool
    tau: int
    sampled_ranks: tuple[int, ...]
    bound: Fraction

    @property
    def label(self) -> str:
        return "holds-probabilistic" if self.holds else "fails-certain"


def check_C1(ensemble: "Ensemble", tau: int, cfg: TrialConfig | None = None) -> C1Verdict:
    """Does rank([D_1 B_1 ... D_K B_K]) <= R - tau at every sample point?"""
    if tau < 1:
        raise PreconditionError(f"tau must be >= 1, got {tau}")
    cfg = cfg or TrialConfig()
    ranks = _cached_ranks(ensemble, cfg)
    threshold = ensemble.R - tau
    if max(ranks) > threshold:
        return C1Verdict(False, True, tau, ranks, Fraction(0))
    return C1Verdict(True, False, tau, ranks, failure_bound(ensemble, cfg))
