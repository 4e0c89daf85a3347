"""Exact verification of the multinomial moment-bound combinatorics.

The left-hand side sums, over all compositions of p into m nonnegative parts,
the multinomial coefficient times (product of odd double factorials minus
one); it is checked against the closed bound 4^p p! m^(p-1) by brute force on
a finite range.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial


def double_factorial(n: int) -> int:
    """n!! for odd n >= -1, with (-1)!! = 1."""
    if n == -1:
        return 1
    if n < -1 or n % 2 == 0:
        raise ValueError("double factorial is defined here for odd n >= -1 only")
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def multinomial_lhs(p: int, m: int) -> int:
    """Brute-force sum over all compositions of p into m parts."""
    if p < 1 or m < 1:
        raise ValueError("need p >= 1 and m >= 1")
    total = 0
    for ks in _compositions(p, m):
        coeff = factorial(p)
        prod = 1
        for k in ks:
            coeff //= factorial(k)
            prod *= double_factorial(2 * k - 1)
        total += coeff * (prod - 1)
    return total


@dataclass(frozen=True)
class BoundReport:
    p: int
    m: int
    lhs: int
    rhs: int

    @property
    def holds(self) -> bool:
        return self.lhs <= self.rhs

    def to_json(self) -> dict:
        return {"p": self.p, "m": self.m, "lhs": self.lhs, "rhs": self.rhs, "holds": self.holds}


def verify_multinomial_inequality(p_max: int, m_max: int) -> list[BoundReport]:
    """Exhaustive reports for 1 <= p <= p_max, p <= m <= m_max."""
    reports = []
    for p in range(1, min(p_max, m_max) + 1):  # no m >= p past m_max, however large p_max is
        for m in range(p, m_max + 1):
            rhs = 4**p * factorial(p) * m ** (p - 1)
            reports.append(BoundReport(p, m, multinomial_lhs(p, m), rhs))
    return reports
