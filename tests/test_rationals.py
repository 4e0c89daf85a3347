import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from semistatic.rationals import common_denominator, fmt, rat


def test_parse_forms():
    assert rat(3) == Fraction(3)
    assert rat("3") == Fraction(3)
    assert rat("-7/5") == Fraction(-7, 5)
    assert rat("6/4") == Fraction(3, 2)
    assert rat(Fraction(1, 2)) == Fraction(1, 2)


def test_floats_rejected():
    with pytest.raises(TypeError):
        rat(0.5)
    with pytest.raises(TypeError):
        rat(True)


def test_canonical_form():
    assert fmt(Fraction(0)) == "0"
    assert fmt(Fraction(1, 2)) == "1/2"
    assert fmt(Fraction(-6, 4)) == "-3/2"
    assert fmt(Fraction(4, 2)) == "2"


@given(st.integers(-10**6, 10**6), st.integers(1, 10**4))
def test_round_trip(num, den):
    q = Fraction(num, den)
    assert rat(fmt(q)) == q


def test_common_denominator():
    row = [3, -4, 0]
    copy, scale = common_denominator(row)
    assert (copy, scale) == (row, 1) and copy is not row
    assert common_denominator([Fraction(1, 2), Fraction(-2, 3), 1, Fraction(0)]) == ([3, -4, 6, 0], 6)
    numerators, scale = common_denominator([Fraction(4), Fraction(6)])
    assert (numerators, scale) == ([4, 6], 1) and [type(x) for x in numerators] == [int, int]


@pytest.mark.parametrize(
    "value",
    [Fraction(-(7**5916) - 2), Fraction(3**10481 + 1, 10**4999 + 7)],
    ids=["integer", "quotient"],
)
def test_fmt_past_the_int_digit_limit(value):
    # str() refuses ints past 4300 digits; fmt falls back to the exact Decimal form
    digits = Decimal(abs(value.numerator)).adjusted() + 1
    assert digits >= 5000
    expected = str(Decimal(value.numerator))
    if value.denominator != 1:
        expected += f"/{Decimal(value.denominator)}"
    text = fmt(value)
    assert text == expected
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0  # none before 3.10.7
    if limit:
        sys.set_int_max_str_digits(0)  # int() refuses the same digits on the way back
    try:
        assert rat(text) == value
        assert text == str(value)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
