"""Exact linear algebra over rationals.

Small dense routines used throughout: reduced row echelon form, rank with
row/column witnesses, nullspaces, particular and minimum-norm solutions, and
weighted Gram-Schmidt without normalization (normalizing would require square
roots and break exactness).  Vectors are tuples of Fraction.  The engine's
one exact elimination kernel is here too: ``eliminate``, a fraction-free step
on int rows (Bareiss 1968), and ``pivot``, which clears a column with it for
``rref`` and for the simplex tableau.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence

from .errors import InvariantViolation
from .rationals import integer_row

Vector = tuple[Fraction, ...]
Matrix = Sequence[Sequence[Fraction]]

ZERO = Fraction(0)
ONE = Fraction(1)


def eliminate(target: list[int], pivot_row: list[int], col: int) -> list[int]:
    """p*target - f*pivot_row over the pivot row's nonzeros, divided by the gcd.

    p = pivot_row[col] > 0 and f = target[col], so the result has a zero in
    ``col`` and is a positive multiple of the row rational elimination gives.
    """
    p, f = pivot_row[col], target[col]
    row = [p * x - f * y if y else p * x for x, y in zip(target, pivot_row)]
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def pivot(rows: list[list[int]], r: int, c: int) -> None:
    """Clear column ``c`` from every row but ``r``, in place; rows[r][c] ends up > 0."""
    if rows[r][c] < 0:
        rows[r] = [-x for x in rows[r]]
    pivot_row = rows[r]
    for i, target in enumerate(rows):
        if i != r and target[c]:
            rows[i] = eliminate(target, pivot_row, c)


def rref(matrix: Matrix) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form over ints: the pivot rows and the pivot columns.

    Each row is a positive int multiple of its rational reduced row, so
    row[j] / row[pivot] is the rational entry; having the same zeros, it
    picks the same pivots (first nonzero row at or below the current one).
    """
    rows = [integer_row(row) for row in matrix]
    if not rows:
        return [], []
    pivots: list[int] = []
    for c in range(len(rows[0])):
        r = len(pivots)
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pivot(rows, r, c)
        pivots.append(c)
    return rows[: len(pivots)], pivots


def rank(matrix: Matrix) -> int:
    return len(rref(matrix)[1])


def independent_rows(matrix: Matrix) -> list[int]:
    """Indices of a maximal independent set of rows (greedy, first wins).

    Row i is kept exactly when it is independent of rows 0..i-1, i.e. when
    column i of the transpose is a pivot column of its reduced echelon form.
    """
    return rref(transpose(matrix))[1]


def transpose(matrix: Matrix) -> list[list[Fraction]]:
    return [list(col) for col in zip(*matrix)]


def mat_vec(matrix: Matrix, vec: Sequence[Fraction]) -> Vector:
    return tuple(sum((a * x for a, x in zip(row, vec)), ZERO) for row in matrix)


def solve(matrix: Matrix, rhs: Sequence[Fraction]) -> Vector | None:
    """One particular solution of ``matrix @ x = rhs`` (free variables 0)."""
    rows = [list(row) + [b] for row, b in zip(matrix, rhs)]
    if not rows:
        return ()
    ncols = len(matrix[0])
    reduced, pivots = rref(rows)
    if pivots and pivots[-1] == ncols:
        return None
    solution = [ZERO] * ncols
    for row, c in zip(reduced, pivots):
        solution[c] = Fraction(row[ncols], row[c])
    return tuple(solution)


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

    The minimum-norm solution is the unique one in the row space, x = A_r^T y
    with (A_r A_r^T) y = b_r over a maximal independent set of rows A_r.  It
    satisfies the other rows exactly when the system is consistent.
    """
    if not matrix:
        return ()
    keep = independent_rows(matrix)
    basis = [matrix[i] for i in keep]
    coeffs = solve([[dot(u, v) for v in basis] for u in basis], [rhs[i] for i in keep])
    if coeffs is None:
        raise InvariantViolation("Gram matrix of independent rows must be invertible")
    x = [ZERO] * len(matrix[0])
    for coef, row in zip(coeffs, basis):
        x = [a + coef * b for a, b in zip(x, row)]
    return tuple(x) if mat_vec(matrix, x) == tuple(rhs) else None


def dot(x: Sequence[Fraction], y: Sequence[Fraction]) -> Fraction:
    return sum((a * b for a, b in zip(x, y)), ZERO)


def weighted_dot(x: Sequence[Fraction], y: Sequence[Fraction], weights: Sequence[Fraction]) -> Fraction:
    return sum((w * a * b for w, a, b in zip(weights, x, y)), ZERO)


def gram_schmidt(vectors: Sequence[Sequence[Fraction]], weights: Sequence[Fraction]) -> list[Vector]:
    """Orthogonalize under the weighted inner product, dropping zero vectors.

    No normalization is applied, so spans, orthogonality, and support patterns
    stay exactly rational.
    """
    basis: list[Vector] = []
    for vec in vectors:
        residual = list(vec)
        for b in basis:
            coef = weighted_dot(residual, b, weights) / weighted_dot(b, b, weights)
            residual = [x - coef * y for x, y in zip(residual, b)]
        if any(weights[i] != 0 and residual[i] != 0 for i in range(len(residual))):
            basis.append(tuple(residual))
    return basis


def project_onto_span(
    x: Sequence[Fraction],
    vectors: Sequence[Sequence[Fraction]],
    weights: Sequence[Fraction],
) -> Vector:
    """Weighted orthogonal projection of ``x`` onto span(vectors)."""
    basis = gram_schmidt(vectors, weights)
    projection = [ZERO] * len(x)
    for b in basis:
        coef = weighted_dot(x, b, weights) / weighted_dot(b, b, weights)
        projection = [p + coef * y for p, y in zip(projection, b)]
    return tuple(projection)
