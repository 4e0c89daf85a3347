from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from semistatic.rationals import fmt, integer_row, rat


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


def test_integer_row():
    row = [3, -4, 0]
    copy = integer_row(row)
    assert copy == row and copy is not row
    assert integer_row([Fraction(1, 2), Fraction(-2, 3), 1, Fraction(0)]) == [3, -4, 6, 0]
    assert [type(x) for x in integer_row([Fraction(4), Fraction(6)])] == [int, int]
