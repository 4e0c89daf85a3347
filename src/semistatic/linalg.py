"""Exact linear algebra over rationals.

Small dense routines used throughout: reduced row echelon form, rank with
row/column witnesses, nullspaces, particular and minimum-norm solutions, and
weighted Gram-Schmidt without normalization (normalizing would require square
roots and break exactness).  Vectors are tuples of Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import InvariantViolation

Vector = tuple[Fraction, ...]
Matrix = Sequence[Sequence[Fraction]]

ZERO = Fraction(0)
ONE = Fraction(1)


def _rows(matrix: Matrix) -> list[list[Fraction]]:
    return [list(row) for row in matrix]


def rref(matrix: Matrix) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form and the list of pivot columns."""
    rows = _rows(matrix)
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = ONE / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def rank(matrix: Matrix) -> int:
    return len(rref(matrix)[1])


def independent_rows(matrix: Matrix) -> list[int]:
    """Indices of a maximal independent set of rows (greedy, first wins).

    Row i is kept exactly when it is independent of rows 0..i-1, i.e. when
    column i of the transpose is a pivot column of its reduced echelon form.
    """
    return rref(transpose(matrix))[1]


def transpose(matrix: Matrix) -> list[list[Fraction]]:
    if not matrix:
        return []
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
    for row in reduced:
        if all(x == 0 for x in row[:ncols]) and row[ncols] != 0:
            return None
    solution = [ZERO] * ncols
    for r, c in enumerate(pivots):
        if c == ncols:
            return None
        solution[c] = reduced[r][ncols]
    return tuple(solution)


def nullspace(matrix: Matrix) -> list[Vector]:
    """Basis of the kernel, one vector per free column, deterministic order."""
    if not matrix:
        return []
    ncols = len(matrix[0])
    reduced, pivots = rref(matrix)
    pivot_set = set(pivots)
    basis: list[Vector] = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [ZERO] * ncols
        vec[free] = ONE
        for r, c in enumerate(pivots):
            vec[c] = -reduced[r][free]
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


def intersection_dimension(
    span_a: Sequence[Sequence[Fraction]], span_b: Sequence[Sequence[Fraction]]
) -> int:
    """dim(span A ∩ span B) via rank inclusion-exclusion."""
    joint = list(span_a) + list(span_b)
    return rank(list(span_a)) + rank(list(span_b)) - rank(joint)
