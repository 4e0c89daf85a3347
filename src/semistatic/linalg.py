"""Exact linear algebra over rationals.

Small dense routines used throughout: reduced row echelon form, rank with
row/column witnesses, nullspaces, minimum-norm solutions and weighted
projections.  Inputs and results are tuples of Fraction; the work runs on int
rows, each a positive multiple of the rational row it stands for, and
Fractions are built only for what is returned.  The engine has two exact
methods, both fraction-free.  The elimination kernel is ``eliminate``, a step
on int rows (Bareiss 1968) that first cancels the gcd of the pivot p and the
target's entry f and subtracts only over the pivot row's nonzero columns, and
``pivot``, which clears a column with it for ``echelon`` (the forward half,
which ``rank`` and ``independent_rows`` need), ``rref`` (for ``nullspace``)
and the simplex tableau.  The weighted sweep is ``WeightedSpan``, which
orthogonalizes a span of int rows once under int weights and sweeps int rows
off it, for ``project_onto_span``, ``min_norm_solution`` and ``hedging``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

from .errors import InvariantViolation
from .rationals import common_denominator, integer_row

Vector = tuple[Fraction, ...]
Matrix = Sequence[Sequence[Fraction]]

ZERO = Fraction(0)
ONE = Fraction(1)


def eliminate(target: list[int], pivot_row: list[int], col: int, support: Sequence[int] | None = None) -> list[int]:
    """p*target - f*pivot_row, divided by the gcd of the result.

    p = pivot_row[col] > 0 and f = target[col], so the result has a zero in
    ``col`` and is a positive multiple of the row rational elimination gives.
    p and f are first divided by g = gcd(p, f): p*t - f*r = g*(p'*t - f'*r)
    has the same primitive row (an all-zero one stays zero), and a p' of 1
    copies the target.  Only the pivot row's nonzero columns, ``support``,
    are subtracted over; a caller that clears several rows with one pivot
    row lists them once.
    """
    g = gcd(pivot_row[col], target[col])
    p, f = pivot_row[col] // g, target[col] // g
    if support is None:
        support = [j for j, y in enumerate(pivot_row) if y]
    row = target[:] if p == 1 else [x and p * x for x in target]  # a zero skips the product
    for j in support:
        row[j] -= f * pivot_row[j]
    g = gcd(*row)
    return [x and x // g for x in row] if g > 1 else row


def pivot(rows: list[list[int]], r: int, c: int, targets: Sequence[int] | None = None) -> list[int]:
    """Clear column ``c`` from rows ``targets`` (default: every row but ``r``), in place.

    rows[r][c] ends up > 0.  Returns the pivot row's nonzero columns, which a
    caller can pass to ``eliminate`` for a row kept outside ``rows``.
    """
    if rows[r][c] < 0:
        rows[r] = [-x for x in rows[r]]
    pivot_row = rows[r]
    support = [j for j, y in enumerate(pivot_row) if y]
    for i in range(len(rows)) if targets is None else targets:
        if i != r and rows[i][c]:
            rows[i] = eliminate(rows[i], pivot_row, c, support)
    return support


def echelon(rows: list[list[int]]) -> list[int]:
    """Forward elimination of int rows in place: the pivot columns.

    For each column in turn the first row at or below the current one with a
    nonzero there is swapped up and clears that column from the rows below
    it; rows[:len(pivots)] end up as the pivot rows, the rest as zeros.  No
    row above a pivot is touched, so this is the first half of ``rref`` and
    finds its pivots, and ``len(pivots)`` is the rank.
    """
    pivots: list[int] = []
    m = len(rows)
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        for i in range(r, m):
            if rows[i][c]:
                break
        else:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        pivot(rows, r, c, range(r + 1, m))
        pivots.append(c)
        r += 1
        if r == m:
            break
    return pivots


def rref(matrix: Matrix) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form over ints: the pivot rows and the pivot columns.

    ``echelon``, then back-substitution from the last pivot up.  Each row is
    a positive int multiple of its rational reduced row, so row[j] / row[pivot]
    is the rational entry; having the same zeros, it picks the same pivots
    (first nonzero row at or below the current one).
    """
    rows = [integer_row(row) for row in matrix]
    pivots = echelon(rows)
    for r in range(len(pivots) - 1, 0, -1):
        pivot(rows, r, pivots[r], range(r))
    return rows[: len(pivots)], pivots


def rank(matrix: Matrix) -> int:
    """The rank, by ``echelon`` alone: no back-substitution."""
    return len(echelon([integer_row(row) for row in matrix]))


def independent_rows(matrix: Matrix) -> list[int]:
    """Indices of a maximal independent set of rows (greedy, first wins).

    Row i is kept exactly when it is independent of rows 0..i-1, i.e. when
    column i of the transpose is a pivot column of its echelon form.
    """
    return echelon([integer_row(col) for col in zip(*matrix)])


def nullspace(matrix: Matrix) -> list[Vector]:
    """Basis of the kernel, one vector per free column, deterministic order."""
    if not matrix:
        return []
    ncols = len(matrix[0])
    reduced, pivots = rref(matrix)
    basis: list[Vector] = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [ZERO] * ncols
        vec[free] = ONE
        for row, c in zip(reduced, pivots):
            vec[c] = Fraction(-row[free], row[c])
        basis.append(tuple(vec))
    return basis


def min_norm_solution(matrix: Matrix, rhs: Sequence[Fraction]) -> Vector | None:
    """Euclidean minimum-norm solution of a linear system, None when inconsistent.

    One ``WeightedSpan`` sweeps the int rows [B_i | beta_i] with weight 0 on
    the rhs, which rides along each step outside every inner product.  A row
    whose B part sweeps to zero with a rhs left is inconsistent.  Otherwise
    each kept residual (c_i | gamma_i) gives <c_i, x> = gamma_i, and the c_i
    span the row space orthogonally, so the minimum-norm solution is
    x = sum gamma_i c_i / <c_i, c_i>, formed over one common denominator.
    """
    ncols = len(matrix[0]) if matrix else 0
    rows = [integer_row([*row, b]) for row, b in zip(matrix, rhs)]
    span = WeightedSpan((), [1] * ncols + [0])
    for row in rows:
        if span.add(row) is None and span.residual(row)[0][-1]:  # B_i swept to zero, beta_i not
            return None
    den = lcm(*(n // gcd(c[-1], n) for c, _, n in span.basis))
    x = [0] * ncols
    for c, _, n in span.basis:
        f = c[-1] * den // n
        x = [a + f * b for a, b in zip(x, c)]
    # map(mul, row, x) stops at len(x), before the rhs entry
    if any(sum(map(mul, row, x)) != den * row[-1] for row in rows):
        raise InvariantViolation("the minimum-norm solution of a consistent system must satisfy every row")
    return tuple(Fraction(a, den) for a in x)


class WeightedSpan:
    """The span of int rows (positive scales change no span) under int weights, orthogonalized once.

    Each basis entry is (c, w*c, n = <c, c>_w), c the residual of an added
    row off the rows added before it, kept when its weighted norm is nonzero.
    """

    def __init__(self, rows: Iterable[Sequence[int]], weights: Sequence[int]):
        self.weights, self.basis = weights, []
        for row in rows:
            self.add(row)

    def residual(self, row: Sequence[int]) -> tuple[list[int], Fraction]:
        """The residual f * r of the int row off the span: each step r <- (n*r - <r, c>_w * c) / gcd keeps f > 0."""
        row = list(row)
        num = den = 1
        for c, wc, n in self.basis:
            f = sum(map(mul, row, wc))
            if f:
                row = [n * x - f * y if y else n * x for x, y in zip(row, c)]
                g = gcd(*row) or 1
                row = [x // g for x in row] if g > 1 else row
                num, den = num * g, den * n
        return row, Fraction(num, den)

    def add(self, row: Sequence[int]) -> tuple[list[int], Fraction] | None:
        """Add the row's ``residual`` to the basis and return it, or None when its weighted norm is zero."""
        residual, factor = self.residual(row)
        weighted = [w * x for w, x in zip(self.weights, residual)]
        norm = sum(map(mul, residual, weighted))
        if not norm:
            return None
        self.basis.append((residual, weighted, norm))
        return residual, factor


def project_onto_span(
    x: Sequence[Fraction],
    vectors: Sequence[Sequence[Fraction]],
    weights: Sequence[Fraction],
) -> Vector:
    """Weighted orthogonal projection of ``x`` onto span(vectors): x minus its residual."""
    row, den = common_denominator(x)
    residual, factor = WeightedSpan(map(integer_row, vectors), integer_row(weights)).residual(row)
    return tuple(a - factor / den * r for a, r in zip(x, residual))
