"""Randomized evaluation oracle for the ensemble's almost-sure rank.

Scaling coefficients are sampled as uniform integers in [1, entry_bound],
by rejection sampling on a seeded stream's random bits, and the scaled
concatenation's rank is computed exactly; C1 and `tim` draw here.  Any
single evaluation point gives a certain lower bound on the generic rank;
by the Zippel-Schwartz lemma the maximum over trials equals the generic
rank except with probability at most (n / entry_bound) ** trials.

Sampling reads each block's own cleared grid, and C1 memoizes sampled
ranks on the ensemble, one entry per `TrialConfig`.  One builder,
`_scaled_rows`, gives the integer rows of the scaled concatenation at a
draw.  C1 eliminates them over Z (`_bareiss`).  `tim` draws one scaling
per receiver from one fixed `TrialConfig` and eliminates them modulo a
prime q (`exactla._rank_mod`): rank mod q <= rank over Q <= generic rank
<= the term rank of the rows' support, which scaling by nonzero integers
leaves unchanged, so a modular rank that reaches the term rank is the
generic rank, and any other draw is left to C6.  `tim` takes no sampling
setting, and none of its verdicts depends on the draw.

C1's reports print the failure bound as an exact fraction, so C1 and the
sampling commands refuse, before their first draw, a configuration whose
bound is too long to print (`check_printable_bound`).
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from .errors import PreconditionError
from .exactla import _bareiss

if TYPE_CHECKING:
    from .conditions import Ensemble


@dataclass(frozen=True)
class TrialConfig:
    """Sampling parameters; a fixed seed makes every draw reproducible."""

    trials: int = 20
    entry_bound: int = 2**31
    seed: int = 0

    def __post_init__(self):
        for name in ("trials", "entry_bound", "seed"):
            value = getattr(self, name)
            if type(value) is not int:  # exactly int: bool is an int subclass, and a float fails later in range()
                raise PreconditionError(f"{name} must be an int, got {value!r}")
        if self.trials < 1:
            raise PreconditionError(f"trials must be >= 1, got {self.trials}")
        if self.entry_bound < 2:
            raise PreconditionError(f"entry_bound must be >= 2, got {self.entry_bound}")

    def trial_rng(self, trial: int) -> random.Random:
        # Distinct (seed, trial) pairs give distinct strings, and a string
        # seed is hashed with SHA-512, the same in every interpreter.
        return random.Random(f"{self.seed}:{trial}")


def _prints(base: int, exponent: int) -> bool:
    """Can str() convert base ** exponent under the interpreter's digit limit?"""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit or base < 2:
        return True
    # 2**((b - 1) e) <= base**e < 2**(b e) for b = base.bit_length(), and
    # 8**limit < 10**limit < 16**limit: only between those bounds are the
    # powers built, and there they have fewer than 8 * limit bits.
    if base.bit_length() * exponent <= 3 * limit:
        return True
    if (base.bit_length() - 1) * exponent >= 4 * limit:
        return False
    return base**exponent < 10**limit


def check_printable_bound(n: int, cfg: TrialConfig) -> None:
    """Refuse a cfg whose failure bound (n / entry_bound) ** trials str() cannot convert."""
    bound = Fraction(n, cfg.entry_bound)
    if not (_prints(bound.numerator, cfg.trials) and _prints(bound.denominator, cfg.trials)):
        raise PreconditionError(
            f"failure bound (n/entry_bound)^trials with n = {n}, a {cfg.entry_bound.bit_length()}-bit "
            f"entry_bound and {cfg.trials} trials is too long to print; lower entry_bound or trials"
        )


def _draw_diags(cfg: TrialConfig, stream: int, n: int, count: int) -> list[list[int]]:
    """`count` diagonals of n nonzero scalings, drawn in order from one stream.

    Each scaling is 1 + r, with r drawn by rejection sampling on
    getrandbits(entry_bound.bit_length()) until r < entry_bound: the draws
    `rng.randint(1, entry_bound)` makes, without its per-call overhead.
    """
    getrandbits = cfg.trial_rng(stream).getrandbits
    bound = cfg.entry_bound
    bits = bound.bit_length()
    diags = []
    for _ in range(count):
        diag = []
        for _ in range(n):
            r = getrandbits(bits)
            while r >= bound:
                r = getrandbits(bits)
            diag.append(r + 1)
        diags.append(diag)
    return diags


def _scaled_rows(grids: Sequence[list[list[int]]], diags: Sequence[Sequence[int]]) -> list[list[int]]:
    """The integer rows of [D_1 G_1 | ... | D_k G_k] as a fresh grid, for `_bareiss` or `_rank_mod`.

    Column scaling leaves every rank unchanged, so callers pass each block
    with its column denominators cleared and every elimination reads plain integers.
    """
    return [
        [d * v for grid_row, d in zip(grid_rows, ds) for v in grid_row]
        for grid_rows, ds in zip(zip(*grids), zip(*diags))
    ]


def sample_ranks(ensemble: "Ensemble", cfg: TrialConfig) -> tuple[int, ...]:
    """Exact rank of the scaled concatenation at each of cfg.trials sample points."""
    grids = [block._grid for block in ensemble.blocks]
    width = sum(ensemble.column_counts)
    return tuple(
        _bareiss(_scaled_rows(grids, _draw_diags(cfg, t, ensemble.n, ensemble.K)), width)
        for t in range(cfg.trials)
    )


def _check_tau(ensemble: "Ensemble", tau: int) -> None:
    if not 1 <= tau <= ensemble.R:
        raise PreconditionError(f"tau must be in [1, {ensemble.R}], got {tau}")


def _cached_ranks(ensemble: "Ensemble", cfg: TrialConfig) -> tuple[int, ...]:
    return ensemble._memoized(cfg, lambda: sample_ranks(ensemble, cfg))


def sample_generic_rank(ensemble: "Ensemble", cfg: TrialConfig | None = None) -> int:
    """Maximum sampled rank: a certain lower bound on the generic rank.

    Equals the generic rank except with probability at most
    failure_bound(ensemble.n, cfg).
    """
    cfg = cfg or TrialConfig()
    return max(_cached_ranks(ensemble, cfg))


def failure_bound(n: int, cfg: TrialConfig) -> Fraction:
    """Zippel-Schwartz bound on all trials undershooting a generic rank over n rows."""
    return Fraction(n, cfg.entry_bound) ** cfg.trials


@dataclass(frozen=True)
class C1Verdict:
    """Outcome of the sampled rank-loss check.

    A failing verdict is certain: some sample point witnessed rank above
    R - tau, and evaluation rank never exceeds generic rank.  A holding
    verdict is probabilistic, with `bound` the probability it is wrong.
    """

    holds: bool
    tau: int
    sampled_ranks: tuple[int, ...]
    bound: Fraction

    @property
    def certain(self) -> bool:
        return not self.holds

    @property
    def label(self) -> str:
        return "holds-probabilistic" if self.holds else "fails-certain"


def check_C1(ensemble: "Ensemble", tau: int, cfg: TrialConfig | None = None) -> C1Verdict:
    """Does rank([D_1 B_1 ... D_K B_K]) <= R - tau at every sample point?"""
    _check_tau(ensemble, tau)
    cfg = cfg or TrialConfig()
    check_printable_bound(ensemble.n, cfg)
    ranks = _cached_ranks(ensemble, cfg)
    threshold = ensemble.R - tau
    if max(ranks) > threshold:
        return C1Verdict(False, tau, ranks, Fraction(0))
    return C1Verdict(True, tau, ranks, failure_bound(ensemble.n, cfg))
