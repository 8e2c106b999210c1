"""Typed errors shared across the package."""


class UvcoreError(Exception):
    """Base class for all uvcore errors."""

    code = "Error"


class MalformedGraph6(UvcoreError):
    code = "MalformedGraph6"


class DimensionMismatch(UvcoreError):
    code = "DimensionMismatch"


class NotSquare(UvcoreError):
    code = "NotSquare"


class SizeBudgetExceeded(UvcoreError):
    code = "SizeBudgetExceeded"


class BadParity(UvcoreError):
    code = "BadParity"


class OutOfRange(UvcoreError):
    code = "OutOfRange"


class NotRegular(UvcoreError):
    code = "NotRegular"


class NotConnected(UvcoreError):
    code = "NotConnected"


class EdgelessGraph(UvcoreError):
    code = "EdgelessGraph"


class NotOneWalkRegular(UvcoreError):
    code = "NotOneWalkRegular"


class NonIntegerLeastEigenvalue(UvcoreError):
    code = "NonIntegerLeastEigenvalue"


class RatioMismatch(UvcoreError):
    code = "RatioMismatch"


class DegenerateRange(UvcoreError):
    code = "DegenerateRange"


class BudgetExceeded(UvcoreError):
    code = "BudgetExceeded"


class InvariantViolation(UvcoreError):
    code = "InvariantViolation"


class InputUnreadable(UvcoreError):
    code = "InputUnreadable"


class MalformedMap(UvcoreError):
    code = "MalformedMap"


def require(condition, message):
    """Raise InvariantViolation unless an exact identity holds.

    Unlike `assert`, the check survives `python -O`.
    """
    if not condition:
        raise InvariantViolation(message)
