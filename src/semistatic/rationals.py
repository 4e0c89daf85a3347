"""Bit-exact rational codec.

All quantities in the engine are `fractions.Fraction`.  The wire form is a
canonical string: gcd-reduced, positive denominator, and the denominator is
omitted when it equals one ("0", "1/2", "-7/5").  Floats are rejected
everywhere; they would silently corrupt exact rank and equality tests.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from math import lcm
from typing import Sequence


def rat(value: int | str | Fraction) -> Fraction:
    """Parse an exact rational from a "p/q" string, an int, or a Fraction."""
    if isinstance(value, str):
        text = value.strip()
        if "/" in text:
            num, _, den = text.partition("/")
            numerator, denominator = int(num), int(den)
            if denominator == 0:
                raise ValueError(f"zero denominator in {value!r}")
            return Fraction(numerator, denominator)
        return Fraction(int(text))
    if isinstance(value, bool):
        raise TypeError("bool is not a rational")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise TypeError(f"floats are not accepted, got {value!r}")
    raise TypeError(f"cannot parse rational from {type(value).__name__}")


def fmt(value: Fraction) -> str:
    """Canonical string form: reduced, q > 0, "/1" omitted; ``fmt_ratio`` of its numerator and denominator."""
    return fmt_ratio(value.numerator, value.denominator)


def fmt_ratio(numerator: int, denominator: int) -> str:
    """The canonical string of numerator / denominator, given in lowest terms with denominator > 0.

    Past Python's int-to-string digit limit (4300 digits by default) ``str``
    raises, and the same digits are written by ``Decimal``, which is exact
    and has no such limit.
    """
    try:
        n, d = str(numerator), str(denominator)
    except ValueError:
        n, d = str(Decimal(numerator)), str(Decimal(denominator))
    return n if denominator == 1 else f"{n}/{d}"


_INT = frozenset({int})  # the type set of an all-int row


def common_denominator(values: Sequence[Fraction | int]) -> tuple[list[int], int]:
    """The values as int numerators over the lcm of their denominators, and that lcm."""
    if _INT.issuperset(map(type, values)):
        return list(values), 1
    ratios = [x.as_integer_ratio() for x in values]
    scale = lcm(*[d for _, d in ratios])
    return [n * (scale // d) for n, d in ratios], scale
