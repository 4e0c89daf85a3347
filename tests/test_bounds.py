import pytest
from hypothesis import given
from hypothesis import strategies as st

from semistatic.bounds import double_factorial, multinomial_lhs, verify_multinomial_inequality


def test_double_factorial_values():
    assert double_factorial(-1) == 1
    assert double_factorial(1) == 1
    assert double_factorial(5) == 15
    with pytest.raises(ValueError):
        double_factorial(4)
    with pytest.raises(ValueError):
        double_factorial(-3)


@given(st.integers(1, 21).filter(lambda n: n % 2 == 1))
def test_double_factorial_recursion(n):
    assert double_factorial(n) == n * double_factorial(n - 2)


def test_multinomial_lhs_values():
    assert multinomial_lhs(1, 1) == 0
    assert multinomial_lhs(1, 5) == 0
    assert multinomial_lhs(2, 1) == 2
    assert multinomial_lhs(2, 2) == 4


@pytest.mark.parametrize("p, m", [(0, 1), (1, 0), (-1, 3)])
def test_multinomial_lhs_rejects_a_size_below_one(p, m):
    with pytest.raises(ValueError, match="need p >= 1 and m >= 1"):
        multinomial_lhs(p, m)


def test_multinomial_lhs_monotone_in_m():
    for p in range(1, 5):
        values = [multinomial_lhs(p, m) for m in range(1, 7)]
        assert values == sorted(values)


def test_inequality_exhaustive():
    reports = verify_multinomial_inequality(5, 6)
    assert reports and all(r.holds for r in reports)
    pairs = {(r.p, r.m) for r in reports}
    assert all((p, m) in pairs for p in range(1, 6) for m in range(p, 7))
    lookup = {(r.p, r.m): r for r in reports}
    assert lookup[(2, 2)].lhs == 4 and lookup[(2, 2)].rhs == 64

