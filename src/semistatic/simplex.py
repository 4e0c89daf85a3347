"""Exact rational simplex, two phases, Bland's rule.

Solves min c.x subject to A x = b, x >= 0 over Fractions.  Bland's rule
(lowest eligible index enters, lowest basic index breaks ratio ties) makes the
method terminate without any perturbation and keeps runs deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import InvariantViolation

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class LPResult:
    status: str  # "optimal" | "unbounded" | "infeasible"
    objective: Fraction | None = None
    solution: tuple[Fraction, ...] | None = None
    ray: tuple[Fraction, ...] | None = None  # improving feasible direction when unbounded


class _Tableau:
    def __init__(self, rows: list[list[Fraction]], basis: list[int]):
        self.rows = rows  # m x (n+1), last column is the rhs
        self.basis = basis

    @property
    def n(self) -> int:
        return len(self.rows[0]) - 1 if self.rows else 0

    def pivot(self, row: int, col: int) -> None:
        inv = ONE / self.rows[row][col]
        self.rows[row] = [x * inv for x in self.rows[row]]
        for i in range(len(self.rows)):
            if i != row and self.rows[i][col] != 0:
                factor = self.rows[i][col]
                self.rows[i] = [x - factor * y for x, y in zip(self.rows[i], self.rows[row])]
        self.basis[row] = col

    def reduced_costs(self, cost: Sequence[Fraction]) -> list[Fraction]:
        out = list(cost)
        for i, bi in enumerate(self.basis):
            cb = cost[bi]
            if cb != 0:
                for j in range(self.n):
                    out[j] -= cb * self.rows[i][j]
        return out

    def solution(self, n_vars: int) -> tuple[Fraction, ...]:
        values = [ZERO] * n_vars
        for i, bi in enumerate(self.basis):
            if bi < n_vars:
                values[bi] = self.rows[i][-1]
        return tuple(values)

    def run(self, cost: Sequence[Fraction]) -> str:
        """Bland iterations until optimal or unbounded."""
        while True:
            reduced = self.reduced_costs(cost)
            entering = next((j for j in range(self.n) if reduced[j] < 0), None)
            if entering is None:
                return "optimal"
            leaving = None
            best = None
            for i, row in enumerate(self.rows):
                if row[entering] > 0:
                    ratio = row[-1] / row[entering]
                    if best is None or ratio < best or (ratio == best and self.basis[i] < self.basis[leaving]):
                        best = ratio
                        leaving = i
            if leaving is None:
                self._unbounded_col = entering
                return "unbounded"
            self.pivot(leaving, entering)


def solve_lp(
    cost: Sequence[Fraction],
    matrix: Sequence[Sequence[Fraction]],
    rhs: Sequence[Fraction],
) -> LPResult:
    n = len(cost)
    rows = [list(r) + [b] for r, b in zip(matrix, rhs)]
    for row in rows:
        if row[-1] < 0:
            row[:] = [-x for x in row]

    # Phase 1: artificial variables, one per row.
    m = len(rows)
    art_rows = []
    for i, row in enumerate(rows):
        art = [ZERO] * m
        art[i] = ONE
        art_rows.append(row[:-1] + art + [row[-1]])
    tableau = _Tableau(art_rows, [n + i for i in range(m)])
    phase1_cost = [ZERO] * n + [ONE] * m
    status = tableau.run(phase1_cost)
    if status != "optimal":
        raise InvariantViolation("phase 1 is always bounded below by zero")
    if sum((tableau.rows[i][-1] for i, b in enumerate(tableau.basis) if b >= n), ZERO) != 0:
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

    status = tableau.run(list(cost))
    if status == "unbounded":
        col = tableau._unbounded_col
        ray = [ZERO] * n
        ray[col] = ONE
        for i, bi in enumerate(tableau.basis):
            if bi < n:
                ray[bi] = -tableau.rows[i][col]
        return LPResult("unbounded", ray=tuple(ray))
    solution = tableau.solution(n)
    objective = sum((c * x for c, x in zip(cost, solution)), ZERO)
    return LPResult("optimal", objective=objective, solution=solution)
