"""Exception hierarchy for the qident package.

Every domain error derives from :class:`QidentError`, so callers (and the
CLI) can distinguish modelling problems (exit code 2) from I/O problems
(exit code 1).
"""


class QidentError(Exception):
    """Base class for all qident domain errors."""


class TooLarge(QidentError):
    """An operation was requested beyond its documented size guard."""


class ShapeMismatch(QidentError):
    """Two matrices that must share a shape do not."""


class NotComplete(QidentError):
    """A check that requires a complete design matrix got an incomplete one."""


class HasZeroRows(QidentError):
    """The design matrix still contains all-zero rows; strip them first."""


class AllRowsZero(QidentError):
    """Stripping zero rows would leave an empty matrix."""


class WrongShape(QidentError):
    """A witness construction got a design matrix without the required form."""


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


class IllegalCoefficient(QidentError):
    """An effect coefficient is attached to attributes the item does not require."""


class DimensionMismatch(QidentError):
    """Data dimensions do not match the design matrix."""


class EmptyData(QidentError):
    """The dataset contains no observations."""


class TooManyAttributes(QidentError):
    """Alignment over attribute permutations was requested for too many attributes."""


class NoPartition(QidentError):
    """No two-block partition of the design matrix is available for the check."""


class ParseError(QidentError):
    """A file could not be parsed; carries line/column information."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + loc)
