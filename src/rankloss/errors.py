"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: load or write failures (3), violated
preconditions (4), and internal invariant violations (5).
"""

from __future__ import annotations


class RanklossError(Exception):
    """Base class for all errors raised by this package."""


class LoadError(RanklossError):
    """A file could not be parsed, failed validation on load, or could not be written."""


class PreconditionError(RanklossError):
    """An operation was called with arguments violating its contract."""


class ShapeError(PreconditionError):
    """Dimension or index-range mismatch between operands."""


class CapacityError(PreconditionError):
    """Input exceeds the size limit of an exhaustive algorithm."""


class InternalInvariantError(RanklossError):
    """A property the implementation guarantees internally was violated."""


class EquivalenceViolation(InternalInvariantError):
    """Cross-validated rank-loss conditions disagreed.

    Carries the full report so the disagreeing verdicts and their
    witnesses can be inspected.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report
