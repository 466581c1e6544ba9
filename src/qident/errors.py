"""Exception hierarchy for the qident package.

Every domain error derives from :class:`QidentError`, so callers (and the
CLI) can distinguish modelling problems (exit code 2) from I/O problems
(exit code 1).
"""


class QidentError(Exception):
    """Base class for all qident domain errors."""


class TooLarge(QidentError):
    """An operation was requested beyond its documented size guard."""


class HasZeroRows(QidentError):
    """The design matrix still contains all-zero rows; strip them first."""


class AllRowsZero(QidentError):
    """Stripping zero rows would leave an empty matrix."""


class WrongShape(QidentError):
    """An input lacks the shape or form the operation needs: arrays whose
    dimensions disagree, a design that is incomplete or lacks the form a
    witness construction needs, or a missing block partition."""


class InvalidFreeValues(QidentError):
    """Free values of a witness construction (item parameters or mixing
    weights) lead to an invalid alternative model."""


class ConstraintHolds(QidentError):
    """The proportions satisfy the identifiability constraint, so no
    indistinguishable alternative exists for this construction."""


class NotSubsumed(QidentError):
    """The ideal-response columns of the target design do not subsume the
    source design's columns, so mass merging cannot proceed."""


class NotCertified(QidentError):
    """A constructed alternative failed the distribution-equality check."""


class EmptyData(QidentError):
    """The dataset contains no observations."""


class ParseError(QidentError):
    """A file could not be parsed; carries line/column information."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + loc)
