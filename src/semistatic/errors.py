"""Exceptions shared across the engine."""


class SemistaticError(Exception):
    """Base class for all engine errors."""


class ConstraintViolation(SemistaticError):
    """A measure does not satisfy the constraint system it was checked against."""


class NotCalibrated(SemistaticError):
    """A measure is not a calibrated martingale measure for the given model."""


class NotComplete(SemistaticError):
    """Semi-static completeness fails where an operation requires it."""


class EmptyMeasureSet(SemistaticError):
    """The calibrated martingale-measure set is empty (arbitrage)."""


class ShapeError(SemistaticError):
    """Array argument has the wrong shape for the model."""


class InvariantViolation(SemistaticError):
    """An internal invariant failed: a bug in the engine, not in its input."""


class InputError(SemistaticError, ValueError):
    """A library argument has a value the model cannot take (a negative weight, say)."""
