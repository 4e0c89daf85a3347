"""Exact simplex on integer rows, two phases, Bland's rule.

Solves min c.x subject to A x = b exactly, the first ``free`` variables
unrestricted and the rest >= 0.  The cost, the rows and the rhs are ints: a
caller with rational data poses the int program itself (each row [a_i | b_i]
times a positive scale changes no solution) and reads its answer back.  A
free variable stands for a split pair x+ - x-, whose x- column and reduced
cost are the negated x+ ones, so the tableau stores one column with a sign
and x- entering flips it.  Bland's rule walks the split order (x+_0, x-_0,
x+_1, ..., then the rest): the pivots, and every solution, ray and objective,
are those of the explicitly split program.  Every tableau row, the
reduced-cost row included, is a list of ints that is a positive multiple of
the rational row it stands for.  A pivot is ``linalg.pivot``, the engine's
one fraction-free elimination kernel (Bareiss 1968); the reduced-cost row is
built once per phase (in closed form for phase 1, by ``price`` for phase 2)
and then eliminated like the others.  A positive factor changes no sign and
no ratio, so Bland's rule (lowest eligible index enters, lowest basic index
breaks ratio ties) makes the same choices as over the rationals: the method
terminates without any perturbation and runs stay deterministic.  Fractions
are built only for the returned solution, ray and objective.

Phase 1 stores the rows [A | b] alone: artificial i is only the basis marker
n + i, and its closed-form reduced-cost row is minus the sum of the rows.
The artificials have the highest indices, so this runs the pivots of the
tableau with the artificial block until Bland's rule would enter an
artificial.  That tableau stops there too when no artificial is basic: the
final basis's dual y is then 0, which prices every artificial at 1.

``solve_lp``'s contract keeps every artificial out of that basis: a free
column positive on every row, and a surplus column -e_a for each row a, as
``duality.superhedge`` poses (cash, then the strategy's coordinates, then
one surplus per allowed cell).  Let y be the phase-1 dual when the tableau
stops, and s_a = -1 on a row negated for b_a < 0, else 1.  Surplus column a
has reduced cost s_a y_a, >= 0 as phase 1 stopped; the free column, p_a > 0
in row a, has -sum(s_a p_a y_a), which is 0 as the column is free.  So
y = 0, and no artificial is basic: a basic one would need y_i = 1.  Phase 1
leaving one basic means the program breaks the contract, and ``solve_lp``
raises InvariantViolation.

Phase 1 passes free basic variables: one pivot for a run of the split
program's.  There, when the half of free pair j basic in row r leaves, the
next pivot enters its other half, as a row s whose basic variable is a half
of pair j has a_si = l_s d_i (d the reduced costs) on every nonbasic pair
i < j: true with no free column basic, each pivot (r, e) keeps it (a_se =
l_s d_e), and it leaves d_i = 0 on those pairs and d_j = -d_e / a_re.  That
half's column is the entering one over a_r, negated in row r, so it leaves
at the next row in (ratio, basic index) order.  ``run`` pivots once, at the
first row in that order not basic in a free column, and flips each free row
before it: the split program's basis and halves, on rows permuted and
positively rescaled.  Nothing later reads either: Bland's rule reads the
reduced costs and that order.  The wide tableau is only ``phase1_dual``'s,
which has no free column, so no pass runs in it.
Phase 2 reprices, so the invariant can fail there: one pivot per step.

``phase1_dual`` reads an infeasible program's Farkas vector off the wide
phase-1 reduced-cost row O, t > 0 times the rational one, with no solve of
B^T y = c_B.  For y the final basis's dual on the rows as stored (row i
negated when b_i < 0, so the rhs is |b|, T = sum |b_i|), O[n+i] = t(1 - y_i)
and O[rhs] = -t y.|b|: T t = sum(|b_i| O[n+i]) - O[rhs] (t = O[n+last] -
O[rhs] when b = e_last), and the vector returned is T t y_i = T t - T O[n+i],
its sign flipped back on the negated rows.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import NamedTuple, Sequence

from . import linalg
from .errors import InvariantViolation

ZERO = Fraction(0)


class LPResult(NamedTuple):
    status: str  # "optimal" | "unbounded"
    objective: Fraction | None = None
    solution: tuple[Fraction, ...] | None = None
    ray: tuple[Fraction, ...] | None = None  # improving feasible direction when unbounded
    column: int | None = None  # the ray's entering column, where the ray is 1 (-1 for a flipped free column)


def phase1_objective(rows: list[list[int]], n: int) -> list[int]:
    """The phase-1 reduced-cost row while every artificial is basic, in closed form.

    Row i is [a_i | e_i | b_i], its artificial entry 1; only the n original
    columns and the rhs are read.  The cost is 1 on each artificial, so the
    reduced-cost row is minus the sum of the rows, with zero on the
    artificial columns, which are left out; divided by its gcd, it is the
    row that eliminating each basic column would give.
    """
    objective = [0] * (n + 1)
    for row in rows:
        for j in range(n):
            objective[j] -= row[j]
        objective[-1] -= row[-1]
    g = gcd(*objective) or 1
    return [x // g for x in objective]


class _Tableau:
    def __init__(self, rows: list[list[int]], basis: list[int], objective: list[int], free: int):
        self.rows = rows  # m x (n+1) ints, last column is the rhs; row i's basic entry is > 0
        self.basis = basis
        self.sign = [1] * free  # free column j stores x+_j when 1, x-_j when -1
        self.n = len(objective) - 1
        self.objective = objective

    def price(self, cost: Sequence[int]) -> None:
        """The reduced-cost row of ``cost`` for the current basis; its rhs is -objective.

        The cost also fixes the column count, which the rows cannot give when
        there are none.
        """
        self.n = len(cost)
        objective = [*cost, 0]
        for j, s in enumerate(self.sign):
            objective[j] *= s
        for row, b in zip(self.rows, self.basis):
            if objective[b]:  # superhedge +4% without the skip
                objective = linalg.eliminate(objective, row, b)
        self.objective = objective

    def pivot(self, row: int, col: int) -> None:
        support = linalg.pivot(self.rows, row, col)
        self.objective = linalg.eliminate(self.objective, self.rows[row], col, support)
        self.basis[row] = col

    def flip(self, col: int) -> None:
        """Store the other half of free column ``col``'s split pair."""
        for row in self.rows:
            row[col] = -row[col]
        self.objective[col] = -self.objective[col]
        self.sign[col] = -self.sign[col]

    def value(self, i: int, col: int) -> Fraction:
        row, b = self.rows[i], self.basis[i]
        return Fraction(row[col] * self.sign[b] if b < len(self.sign) else row[col], row[b])

    def run(self, passing: bool = False) -> int | None:
        """Bland iterations, ``passing`` free rows in phase 1; None when optimal, else the column of an unbounded ray."""
        free = len(self.sign)
        passable = free if passing else 0  # rows with a basic index below this are passed
        while True:
            objective = self.objective
            # a free column with a nonzero reduced cost has one eligible half; stored order is split order
            entering = next((j for j in range(self.n) if objective[j] < 0 or j < free and objective[j]), None)
            if entering is None:
                return None
            if objective[entering] > 0:
                self.flip(entering)
            leaving = None
            passed = []
            for i, row in enumerate(self.rows):
                a = row[entering]
                if a > 0:
                    if self.basis[i] < passable:
                        passed.append(i)
                    elif leaving is None:
                        leaving, best_rhs, best_a = i, row[-1], a
                    else:
                        lhs, rhs = row[-1] * best_a, best_rhs * a
                        if lhs < rhs or (lhs == rhs and self.basis[i] < self.basis[leaving]):
                            leaving, best_rhs, best_a = i, row[-1], a
            if leaving is None:
                return entering  # with rows passed, an unbounded phase 1: _phase1 raises
            # the free rows before the leaving one; one tied with it comes first, its basic index being lower
            passed = [i for i in passed if self.rows[i][-1] * best_a <= best_rhs * self.rows[i][entering]]
            self.pivot(leaving, entering)
            for i in passed:  # each one's rhs is now <= 0: store the pair's other half, and negate the row
                self.flip(self.basis[i])
                self.rows[i] = [-x for x in self.rows[i]]


def _phase1(matrix: Sequence[Sequence[int]], rhs: Sequence[int], n: int, free: int, wide: bool) -> _Tableau:
    """Phase 1 from the artificial basis, each row's rhs made >= 0, run by Bland's rule.

    The rows are [a_i | b_i] and artificial i is only the basis marker
    n + i; ``wide`` also stores artificial i as column n + i, so that
    Bland's rule can enter it.
    """
    m = len(matrix)
    rows = []
    for i, (r, b) in enumerate(zip(matrix, rhs)):
        row = [-x for x in r] + [-b] if b < 0 else [*r, b]
        if wide:
            row[n:n] = [0] * i + [1] + [0] * (m - i - 1)
        rows.append(row)
    objective = phase1_objective(rows, n)
    if wide:
        objective[n:n] = [0] * m
    tableau = _Tableau(rows, [n + i for i in range(m)], objective, free)
    if tableau.run(passing=True) is not None:
        raise InvariantViolation("phase 1 is always bounded below by zero")
    return tableau


def phase1_dual(matrix: Sequence[Sequence[int]], rhs: Sequence[int]) -> list[int] | None:
    """None if {x >= 0 : A x = b} is nonempty, else an int Farkas vector y (y.a_j <= 0 on each column, y.b > 0)."""
    n = len(matrix[0]) if matrix else 0
    objective = _phase1(matrix, rhs, n, 0, wide=True).objective
    if not objective[-1]:
        return None
    total = sum(map(abs, rhs))
    scaled = sum(abs(b) * objective[n + i] for i, b in enumerate(rhs) if b) - objective[-1]  # total * t
    return [(scaled - total * objective[n + i]) * (-1 if b < 0 else 1) for i, b in enumerate(rhs)]


def solve_lp(cost: Sequence[int], matrix: Sequence[Sequence[int]], rhs: Sequence[int], free: int = 0) -> LPResult:
    n = len(cost)

    tableau = _phase1(matrix, rhs, n, free, wide=False)  # superhedge +14% always wide
    if any(b >= n for b in tableau.basis):
        raise InvariantViolation(
            "solve_lp's contract: a free column positive on every row and a surplus column -e_a for each row a; "
            "phase 1 left an artificial basic"
        )

    tableau.price(cost)
    col = tableau.run()
    if col is not None:
        ray = [ZERO] * n
        ray[col] = Fraction(tableau.sign[col] if col < free else 1)
        for i, bi in enumerate(tableau.basis):
            ray[bi] = -tableau.value(i, col)
        return LPResult("unbounded", ray=tuple(ray), column=col)
    solution = [ZERO] * n
    for i, bi in enumerate(tableau.basis):
        solution[bi] = tableau.value(i, -1)
    objective = sum((c * x for c, x in zip(cost, solution) if c), ZERO)
    return LPResult("optimal", objective=objective, solution=tuple(solution))
