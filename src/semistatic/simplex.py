"""Exact simplex on integer rows, two phases, Bland's rule.

Solves min c.x subject to A x = b, x >= 0 exactly.  Every tableau row, the
reduced-cost row included, is a list of ints that is a positive multiple of
the rational row it stands for.  A pivot is ``linalg.pivot``, the engine's one
fraction-free elimination kernel (Bareiss 1968); the reduced-cost row is
priced once per phase and then eliminated like the others.  A positive
factor changes no sign and no ratio, so Bland's rule (lowest eligible index
enters, lowest basic index breaks ratio ties) makes the same choices as over
the rationals: the method terminates without any perturbation and runs stay
deterministic.  Fractions are built only for the returned solution, ray and
objective.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import linalg
from .errors import InvariantViolation
from .rationals import integer_row

ZERO = Fraction(0)


@dataclass(frozen=True)
class LPResult:
    status: str  # "optimal" | "unbounded" | "infeasible"
    objective: Fraction | None = None
    solution: tuple[Fraction, ...] | None = None
    ray: tuple[Fraction, ...] | None = None  # improving feasible direction when unbounded


class _Tableau:
    def __init__(self, rows: list[list[int]], basis: list[int], cost: Sequence[Fraction | int]):
        self.rows = rows  # m x (n+1) ints, last column is the rhs; row i's basic entry is > 0
        self.basis = basis
        self.price(cost)

    def price(self, cost: Sequence[Fraction | int]) -> None:
        """The reduced-cost row of ``cost`` for the current basis; its rhs is -objective.

        The cost also fixes the column count, which the rows cannot give when
        there are none.
        """
        self.n = len(cost)
        objective = integer_row(list(cost) + [0])
        for row, b in zip(self.rows, self.basis):
            if objective[b]:
                objective = linalg.eliminate(objective, row, b)
        self.objective = objective

    def pivot(self, row: int, col: int) -> None:
        linalg.pivot(self.rows, row, col)  # negates the row only when driving out an artificial; its rhs is 0
        if self.objective[col]:
            self.objective = linalg.eliminate(self.objective, self.rows[row], col)
        self.basis[row] = col

    def value(self, i: int, col: int) -> Fraction:
        row = self.rows[i]
        return Fraction(row[col], row[self.basis[i]])

    def run(self) -> int | None:
        """Bland iterations; None when optimal, else the column of an unbounded ray."""
        while True:
            objective = self.objective
            entering = next((j for j in range(self.n) if objective[j] < 0), None)
            if entering is None:
                return None
            leaving = None
            for i, row in enumerate(self.rows):
                a = row[entering]
                if a > 0:
                    if leaving is None:
                        leaving, best_rhs, best_a = i, row[-1], a
                        continue
                    lhs, rhs = row[-1] * best_a, best_rhs * a
                    if lhs < rhs or (lhs == rhs and self.basis[i] < self.basis[leaving]):
                        leaving, best_rhs, best_a = i, row[-1], a
            if leaving is None:
                return entering
            self.pivot(leaving, entering)


def solve_lp(
    cost: Sequence[Fraction],
    matrix: Sequence[Sequence[Fraction]],
    rhs: Sequence[Fraction],
) -> LPResult:
    n = len(cost)
    m = len(matrix)

    # Phase 1: each row's rhs made >= 0, then one artificial variable per row.
    rows = []
    for i, (r, b) in enumerate(zip(matrix, rhs)):
        art = [0] * m
        art[i] = 1
        row = integer_row(list(r) + art + [b])
        if b < 0:
            row = [-x for x in row]
            row[n + i] = -row[n + i]
        rows.append(row)
    tableau = _Tableau(rows, [n + i for i in range(m)], [0] * n + [1] * m)
    if tableau.run() is not None:
        raise InvariantViolation("phase 1 is always bounded below by zero")
    if tableau.objective[-1] != 0:
        return LPResult("infeasible")

    # Drive leftover zero-level artificials out of the basis.
    drop: list[int] = []
    for i in range(len(tableau.rows)):
        if tableau.basis[i] >= n:
            col = next((j for j in range(n) if tableau.rows[i][j] != 0), None)
            if col is None:
                drop.append(i)
            else:
                tableau.pivot(i, col)
    for i in reversed(drop):
        del tableau.rows[i]
        del tableau.basis[i]
    tableau.rows = [row[:n] + [row[-1]] for row in tableau.rows]

    tableau.price(cost)
    col = tableau.run()
    if col is not None:
        ray = [ZERO] * n
        ray[col] = Fraction(1)
        for i, bi in enumerate(tableau.basis):
            ray[bi] = -tableau.value(i, col)
        return LPResult("unbounded", ray=tuple(ray))
    solution = [ZERO] * n
    for i, bi in enumerate(tableau.basis):
        solution[bi] = tableau.value(i, -1)
    objective = sum((c * x for c, x in zip(cost, solution)), ZERO)
    return LPResult("optimal", objective=objective, solution=tuple(solution))
