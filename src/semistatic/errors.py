"""Exceptions shared across the engine, one class per condition; an empty measure set is a report, not an error."""


class SemistaticError(Exception):
    """Base class for all engine errors."""


class NotCalibrated(SemistaticError):
    """A measure is not a calibrated martingale measure of the model, or of the face of it that was checked."""


class NotComplete(SemistaticError):
    """Semi-static completeness fails where an operation requires it."""


class ShapeError(SemistaticError):
    """Array argument has the wrong shape for the model."""


class InvariantViolation(SemistaticError):
    """An internal invariant failed: a bug in the engine, not in its input."""


class InputError(SemistaticError, ValueError):
    """A library argument has a value the model cannot take (a negative weight, say)."""
