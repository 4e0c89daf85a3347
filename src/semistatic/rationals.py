"""Bit-exact rational codec.

All quantities in the engine are `fractions.Fraction`.  The wire form is a
canonical string: gcd-reduced, positive denominator, and the denominator is
omitted when it equals one ("0", "1/2", "-7/5").  Floats are rejected
everywhere; they would silently corrupt exact rank and equality tests.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence


def ratio(value: int | str | Fraction) -> int | tuple[int, int]:
    """An exact rational from a "p/q" string, an int or a Fraction, as an int or its lowest-terms (p, q > 1) pair."""
    if type(value) is int:  # the floor +2-4% without this path
        return value
    if isinstance(value, str):
        num, slash, den = value.strip().partition("/")
        numerator, denominator = int(num), int(den) if slash else 1
        if denominator == 0:
            raise ValueError(f"zero denominator in {value!r}")
    elif isinstance(value, bool):
        raise TypeError("bool is not a rational")
    elif isinstance(value, float):
        raise TypeError(f"floats are not accepted, got {value!r}")
    elif not isinstance(value, (Fraction, int)):
        raise TypeError(f"cannot parse rational from {type(value).__name__}")
    else:
        numerator, denominator = value.numerator, value.denominator
    g = gcd(numerator, denominator) if denominator > 0 else -gcd(numerator, denominator)
    return numerator // g if denominator == g else (numerator // g, denominator // g)


def rat(value: int | str | Fraction) -> Fraction:
    """Parse an exact rational from a "p/q" string, an int, or a Fraction: ``ratio``'s value as a Fraction."""
    value = ratio(value)
    return Fraction(value) if type(value) is int else Fraction(*value)


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


def common_denominator(values: Sequence[Fraction | int]) -> tuple[list[int], int]:
    """The values as int numerators over the lcm of their denominators, and that lcm."""
    ratios = [x.as_integer_ratio() for x in values]
    scale = lcm(*[d for _, d in ratios])
    return [n * (scale // d) for n, d in ratios], scale
