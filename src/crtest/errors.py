"""Exception hierarchy shared across the package.

Everything raised on purpose derives from :class:`CrtestError`, so callers
(and the CLI) can catch one type for "data or numeric problem" and let real
bugs propagate.
"""

from __future__ import annotations


class CrtestError(Exception):
    """Base class for all errors this package raises deliberately."""


class SampleTooSmall(CrtestError):
    """The operation needs more observations than the sample provides."""


class DegenerateSample(CrtestError):
    """The sample carries no usable signal for the requested statistic."""


class HullViolation(CrtestError):
    """The hypothesized value lies outside the open hull of the pseudo-values.

    The empirical-likelihood weight problem is infeasible in this case; the
    test treats it as infinitely strong evidence against the hypothesis.
    """


class NoConvergence(CrtestError):
    """An iterative solver failed to meet its tolerance within the cap."""


class DomainError(CrtestError):
    """Argument outside the mathematical domain of a special function."""


class ParseError(CrtestError):
    """A CSV cell or column reference could not be interpreted."""

    def __init__(self, row: int, column: object, reason: str):
        super().__init__(f"row {row}, column {column!r}: {reason}")
        self.row = row
        self.column = column
        self.reason = reason


class NegativeTime(ParseError):
    """A failure time parsed as a negative number."""


class UnmappedLabel(CrtestError):
    """A cause label not covered by the configured label mapping."""

    def __init__(self, label: str, row: int | None = None):
        where = f" (row {row})" if row is not None else ""
        super().__init__(
            f"unmapped cause label {label!r}{where}; "
            "add it to --cause1/--cause2 or --drop"
        )
        self.label = label
        self.row = row
