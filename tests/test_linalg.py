"""Exact linear algebra, with the integer kernel checked against a Fraction reference.

The reference below is the Fraction Gauss-Jordan elimination ``linalg.rref``
ran before its rows became ints, with ``solve`` and ``nullspace`` as they
were built on it.
"""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from semistatic import linalg

F = Fraction


def _random_matrix(rng, rows, cols):
    return [[F(rng.randint(-3, 3)) for _ in range(cols)] for _ in range(rows)]


def test_rank_and_nullspace_small():
    a = [[F(1), F(0), F(-1)], [F(1), F(1), F(1)]]
    assert linalg.rank(a) == 2
    kernel = linalg.nullspace(a)
    assert len(kernel) == 1
    d = kernel[0]
    assert linalg.mat_vec(a, d) == (F(0), F(0))
    # direction proportional to (1, -2, 1)
    assert d[0] * (-2) == d[1] and d[0] == d[2]


def test_solve_inconsistent():
    a = [[F(1), F(1)], [F(1), F(1)]]
    assert linalg.solve(a, [F(1), F(2)]) is None


@settings(max_examples=60)
@given(st.integers(0, 10**6))
def test_nullspace_and_solution_properties(seed):
    rng = random.Random(seed)
    rows, cols = rng.randint(1, 5), rng.randint(1, 6)
    a = _random_matrix(rng, rows, cols)
    x = [F(rng.randint(-3, 3)) for _ in range(cols)]
    b = linalg.mat_vec(a, x)
    sol = linalg.solve(a, b)
    assert sol is not None
    assert linalg.mat_vec(a, sol) == tuple(b)
    for vec in linalg.nullspace(a):
        assert all(v == 0 for v in linalg.mat_vec(a, vec))
    assert linalg.rank(a) + len(linalg.nullspace(a)) == cols


@settings(max_examples=60)
@given(st.integers(0, 10**6))
def test_min_norm_is_orthogonal_to_kernel(seed):
    rng = random.Random(seed)
    rows, cols = rng.randint(1, 4), rng.randint(1, 6)
    a = _random_matrix(rng, rows, cols)
    x = [F(rng.randint(-3, 3)) for _ in range(cols)]
    b = linalg.mat_vec(a, x)
    sol = linalg.min_norm_solution(a, b)
    assert sol is not None
    assert linalg.mat_vec(a, sol) == tuple(b)
    for vec in linalg.nullspace(a):
        assert linalg.dot(sol, vec) == 0


def test_gram_schmidt_weighted():
    w = [F(1, 4), F(1, 2), F(1, 4)]
    vectors = [(F(1), F(1), F(1)), (F(1), F(0), F(-1)), (F(2), F(1), F(0))]
    basis = linalg.gram_schmidt(vectors, w)
    for i, u in enumerate(basis):
        for v in basis[i + 1 :]:
            assert linalg.weighted_dot(u, v, w) == 0
    assert linalg.rank(list(vectors)) == len(basis)


def test_projection_idempotent():
    w = [F(1, 3)] * 3
    span = [(F(1), F(1), F(0)), (F(0), F(1), F(1))]
    x = (F(3), F(-1), F(2))
    p = linalg.project_onto_span(x, span, w)
    assert linalg.project_onto_span(p, span, w) == p
    residual = tuple(a - b for a, b in zip(x, p))
    for v in span:
        assert linalg.weighted_dot(residual, v, w) == 0


def greedy_independent_rows(matrix):
    """Definition: keep row i when it raises the rank of the rows kept so far."""
    kept, witness = [], []
    for i, row in enumerate(matrix):
        if linalg.rank(kept + [list(row)]) > len(kept):
            kept.append(list(row))
            witness.append(i)
    return witness


@st.composite
def small_rational_matrices(draw):
    cols = draw(st.integers(1, 5))
    entry = st.fractions(min_value=-2, max_value=2, max_denominator=3)
    rows = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), max_size=6))
    # splice in combinations of earlier rows so dependent rows are common
    for _ in range(draw(st.integers(0, 3))):
        if not rows:
            break
        i = draw(st.integers(0, len(rows) - 1))
        j = draw(st.integers(0, len(rows) - 1))
        c = draw(entry)
        rows.insert(draw(st.integers(0, len(rows))), [x + c * y for x, y in zip(rows[i], rows[j])])
    return rows


@settings(max_examples=100, deadline=None)
@given(small_rational_matrices())
def test_independent_rows_is_first_wins_greedy(matrix):
    assert linalg.independent_rows(matrix) == greedy_independent_rows(matrix)


def test_min_norm_solution_rank_deficient_and_inconsistent():
    a = [[F(1), F(1)], [F(2), F(2)]]
    assert linalg.min_norm_solution(a, [F(1), F(2)]) == (F(1, 2), F(1, 2))
    assert linalg.min_norm_solution(a, [F(1), F(3)]) is None
    assert linalg.min_norm_solution([[F(0), F(0)]], [F(0)]) == (F(0), F(0))
    assert linalg.min_norm_solution([[F(0), F(0)]], [F(1)]) is None


def reference_rref(matrix):
    rows = [list(row) for row in matrix]
    if not rows:
        return [], []
    pivots = []
    r = 0
    for c in range(len(rows[0])):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = 1 / rows[r][c]
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


def reference_solve(matrix, rhs):
    rows = [list(row) + [b] for row, b in zip(matrix, rhs)]
    if not rows:
        return ()
    ncols = len(matrix[0])
    reduced, pivots = reference_rref(rows)
    for row in reduced:
        if all(x == 0 for x in row[:ncols]) and row[ncols] != 0:
            return None
    solution = [F(0)] * ncols
    for r, c in enumerate(pivots):
        if c == ncols:
            return None
        solution[c] = reduced[r][ncols]
    return tuple(solution)


def reference_nullspace(matrix):
    if not matrix:
        return []
    ncols = len(matrix[0])
    reduced, pivots = reference_rref(matrix)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [F(0)] * ncols
        vec[free] = F(1)
        for r, c in enumerate(pivots):
            vec[c] = -reduced[r][free]
        basis.append(tuple(vec))
    return basis


@settings(max_examples=100, deadline=None)
@given(small_rational_matrices(), st.data())
def test_integer_kernel_matches_fraction_reference(matrix, data):
    reduced, pivots = linalg.rref(matrix)
    expected, expected_pivots = reference_rref(matrix)
    assert pivots == expected_pivots
    assert len(reduced) == len(pivots)
    for row, c, expected_row in zip(reduced, pivots, expected):
        assert all(isinstance(x, int) for x in row) and row[c] > 0
        assert [Fraction(x, row[c]) for x in row] == expected_row
    assert linalg.nullspace(matrix) == reference_nullspace(matrix)
    entry = st.fractions(min_value=-2, max_value=2, max_denominator=3)
    rhs = data.draw(st.lists(entry, min_size=len(matrix), max_size=len(matrix)))
    assert linalg.solve(matrix, rhs) == reference_solve(matrix, rhs)
    if matrix:
        consistent = linalg.mat_vec(matrix, [F(1)] * len(matrix[0]))
        assert linalg.solve(matrix, consistent) == reference_solve(matrix, consistent)
