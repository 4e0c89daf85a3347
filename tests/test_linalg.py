"""Exact linear algebra, with the integer kernel and the weighted sweep checked against Fraction references.

``nullspace`` is checked against the Fraction one built on
``tests.reference.reference_rref``.  The weighted Gram-Schmidt, projection
and minimum-norm solution below are the Fraction code the int sweep of
``linalg`` replaced; the minimum-norm reference solves the Gram system of a
maximal independent set of rows, a second method the sweep must agree with.
"""

import random
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semistatic import linalg
from semistatic.errors import InvariantViolation
from semistatic.rationals import common_denominator
from tests.reference import eliminate as reference_eliminate, reference_rref, reference_solve

F = Fraction


def dot(x, y):
    return sum((a * b for a, b in zip(x, y)), F(0))


def weighted_dot(x, y, weights):
    return sum((w * a * b for w, a, b in zip(weights, x, y)), F(0))


def mat_vec(matrix, vec):
    return tuple(dot(row, vec) for row in matrix)


def _random_matrix(rng, rows, cols):
    return [[F(rng.randint(-3, 3)) for _ in range(cols)] for _ in range(rows)]


def test_rank_and_nullspace_small():
    a = [[F(1), F(0), F(-1)], [F(1), F(1), F(1)]]
    assert linalg.rank(a) == 2
    kernel = linalg.nullspace(a)
    assert len(kernel) == 1
    d = kernel[0]
    assert mat_vec(a, d) == (F(0), F(0))
    # direction proportional to (1, -2, 1)
    assert d[0] * (-2) == d[1] and d[0] == d[2]


@settings(max_examples=60)
@given(st.integers(0, 10**6))
def test_nullspace_properties(seed):
    rng = random.Random(seed)
    rows, cols = rng.randint(1, 5), rng.randint(1, 6)
    a = _random_matrix(rng, rows, cols)
    for vec in linalg.nullspace(a):
        assert all(v == 0 for v in mat_vec(a, vec))
    assert linalg.rank(a) + len(linalg.nullspace(a)) == cols


@settings(max_examples=60)
@given(st.integers(0, 10**6))
def test_min_norm_is_orthogonal_to_kernel(seed):
    rng = random.Random(seed)
    rows, cols = rng.randint(1, 4), rng.randint(1, 6)
    a = _random_matrix(rng, rows, cols)
    x = [F(rng.randint(-3, 3)) for _ in range(cols)]
    b = mat_vec(a, x)
    sol = linalg.min_norm_solution(a, b)
    assert sol is not None
    assert mat_vec(a, sol) == tuple(b)
    for vec in linalg.nullspace(a):
        assert dot(sol, vec) == 0


def test_projection_idempotent():
    w = [F(1, 3)] * 3
    span = [(F(1), F(1), F(0)), (F(0), F(1), F(1))]
    x = (F(3), F(-1), F(2))
    p = linalg.project_onto_span(x, span, w)
    assert linalg.project_onto_span(p, span, w) == p
    residual = tuple(a - b for a, b in zip(x, p))
    for v in span:
        assert weighted_dot(residual, v, w) == 0


def greedy_independent_rows(matrix):
    """Definition: keep row i when it raises the rank of the rows kept so far."""
    kept, witness = [], []
    for i, row in enumerate(matrix):
        if len(reference_rref(kept + [list(row)])[1]) > len(kept):
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


def test_min_norm_solution_refuses_a_solution_that_misses_a_row(monkeypatch):
    # rows left unswept are not orthogonal, so sum gamma_i c_i / <c_i, c_i> misses a row of this consistent system
    monkeypatch.setattr(linalg.WeightedSpan, "residual", lambda self, row: (list(row), F(1)))
    with pytest.raises(InvariantViolation, match="satisfy every row"):
        linalg.min_norm_solution([[F(1), F(1)], [F(1), F(0)]], [F(2), F(1)])


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
@given(small_rational_matrices())
def test_integer_kernel_matches_fraction_reference(matrix):
    reduced, pivots = linalg.rref(matrix)
    expected, expected_pivots = reference_rref(matrix)
    assert pivots == expected_pivots
    assert linalg.rank(matrix) == len(expected_pivots)
    assert linalg.independent_rows(matrix) == reference_rref([list(col) for col in zip(*matrix)])[1]
    assert len(reduced) == len(pivots)
    for row, c, expected_row in zip(reduced, pivots, expected):
        assert all(isinstance(x, int) for x in row) and row[c] > 0
        assert [Fraction(x, row[c]) for x in row] == expected_row
    assert linalg.nullspace(matrix) == reference_nullspace(matrix)


@st.composite
def elimination_steps(draw):
    """A target row, a pivot row and a pivot column: int rows with many zeros, p = 1 often."""
    n = draw(st.integers(1, 8))
    entry = st.one_of(st.just(0), st.just(0), st.integers(-6, 6), st.integers(-(10**20), 10**20))
    target = draw(st.lists(entry, min_size=n, max_size=n))
    pivot_row = draw(st.lists(entry, min_size=n, max_size=n))
    col = draw(st.integers(0, n - 1))
    pivot_row[col] = draw(st.one_of(st.just(1), st.integers(1, 12)))
    return target, pivot_row, col


@settings(max_examples=200, deadline=None)
@given(elimination_steps())
def test_eliminate_over_the_support_is_the_dense_step(step):
    target, pivot_row, col = step
    expected = reference_eliminate(target, pivot_row, col)
    support = [j for j, y in enumerate(pivot_row) if y]
    before = (list(target), list(pivot_row))
    assert linalg.eliminate(target, pivot_row, col, support) == expected
    assert linalg.eliminate(target, pivot_row, col) == expected
    assert (target, pivot_row) == before


def test_eliminate_equals_the_uncancelled_step_on_random_rows():
    # cancelling gcd(p, f) first scales p*t - f*r by 1/gcd(p, f) > 0, so the primitive row is the same
    rng = random.Random(29)
    seen: Counter = Counter()
    for _ in range(4000):
        n = rng.randint(1, 7)
        col = rng.randrange(n)
        pivot_row = [rng.choice([0, 0, rng.randint(-9, 9), rng.randint(-(10**15), 10**15)]) for _ in range(n)]
        shared = rng.choice([1, 1, 2, 6, 35, 10**9 + 7])
        pivot_row[col] = rng.choice([1, shared, shared * rng.randint(1, 9)])
        kind = rng.choice(["random", "random", "zero f", "multiple"])
        if kind == "multiple":  # a multiple of the pivot row, so the result is all zeros
            k = shared * rng.randint(-5, 5)
            target = [k * y for y in pivot_row]
        else:
            target = [rng.choice([0, rng.randint(-9, 9), rng.randint(-(10**15), 10**15)]) for _ in range(n)]
            target[col] = 0 if kind == "zero f" else shared * rng.randint(-9, 9)
        expected = reference_eliminate(target, pivot_row, col)
        assert linalg.eliminate(target, pivot_row, col) == expected
        p, f = pivot_row[col], target[col]
        seen["f = 0"] += f == 0
        seen["p = 1"] += p == 1
        seen["shared factor"] += f != 0 and gcd(p, f) > 1
        seen["p' = 1"] += f != 0 and p > 1 and f % p == 0
        seen["all-zero result"] += not any(expected) and any(target)
    assert min(seen[case] for case in ("f = 0", "p = 1", "shared factor", "p' = 1", "all-zero result")) >= 200, seen


def reference_min_norm_solution(matrix, rhs):
    if not matrix:
        return ()
    keep = reference_rref([list(col) for col in zip(*matrix)])[1]
    basis = [matrix[i] for i in keep]
    coeffs = reference_solve([[dot(u, v) for v in basis] for u in basis], [rhs[i] for i in keep])
    x = [F(0)] * len(matrix[0])
    for coef, row in zip(coeffs, basis):
        x = [a + coef * b for a, b in zip(x, row)]
    return tuple(x) if mat_vec(matrix, x) == tuple(rhs) else None


def reference_gram_schmidt(vectors, weights):
    basis = []
    for vec in vectors:
        residual = list(vec)
        for b in basis:
            coef = weighted_dot(residual, b, weights) / weighted_dot(b, b, weights)
            residual = [x - coef * y for x, y in zip(residual, b)]
        if any(weights[i] != 0 and residual[i] != 0 for i in range(len(residual))):
            basis.append(tuple(residual))
    return basis


def reference_project_onto_span(x, vectors, weights):
    projection = [F(0)] * len(x)
    for b in reference_gram_schmidt(vectors, weights):
        coef = weighted_dot(x, b, weights) / weighted_dot(b, b, weights)
        projection = [p + coef * y for p, y in zip(projection, b)]
    return tuple(projection)


def _all_fractions(vectors):
    return all(type(x) is Fraction for vec in vectors for x in vec)


@st.composite
def weighted_spans(draw):
    """Vectors with zero, duplicate and dependent members, nonnegative weights with zeros, and a point."""
    n = draw(st.integers(1, 5))
    entry = st.fractions(min_value=-2, max_value=2, max_denominator=3)
    vector = st.lists(entry, min_size=n, max_size=n)
    vectors = draw(st.lists(vector, max_size=5))
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["zero", "duplicate", "combination"]))
        if kind == "zero" or not vectors:
            new = [F(0)] * n
        elif kind == "duplicate":
            new = list(draw(st.sampled_from(vectors)))
        else:
            u, v, c = draw(st.sampled_from(vectors)), draw(st.sampled_from(vectors)), draw(entry)
            new = [a + c * b for a, b in zip(u, v)]
        vectors.insert(draw(st.integers(0, len(vectors))), new)
    weight = st.one_of(st.just(F(0)), st.fractions(min_value=0, max_value=2, max_denominator=4))
    weights = draw(st.lists(weight, min_size=n, max_size=n))
    return vectors, weights, draw(vector)


@settings(max_examples=150, deadline=None)
@given(weighted_spans())
def test_weighted_sweep_matches_fraction_reference(case):
    vectors, weights, x = case
    projection = linalg.project_onto_span(x, vectors, weights)
    assert projection == reference_project_onto_span(x, vectors, weights) and _all_fractions([projection])


@settings(max_examples=150, deadline=None)
@given(weighted_spans())
def test_weighted_span_sweeps_int_rows_as_the_fraction_reference(case):
    # each vector and the weights scaled to ints by their own lcm: the span and the residual's direction stay
    vectors, weights, x = case
    span = linalg.WeightedSpan([common_denominator(vec)[0] for vec in vectors], common_denominator(weights)[0])
    assert len(span.basis) == len(reference_gram_schmidt(vectors, weights))
    numerators, scale = common_denominator(x)
    row, factor = span.residual(numerators)
    assert all(type(a) is int for a in row) and factor > 0
    expected = [scale * (a - p) for a, p in zip(x, reference_project_onto_span(x, vectors, weights))]
    assert [factor * a for a in row] == expected


@settings(max_examples=100, deadline=None)
@given(small_rational_matrices(), st.data())
def test_min_norm_solution_matches_fraction_reference(matrix, data):
    entry = st.fractions(min_value=-2, max_value=2, max_denominator=3)
    rhs = data.draw(st.lists(entry, min_size=len(matrix), max_size=len(matrix)))
    systems = [rhs]
    if matrix:
        point = data.draw(st.lists(entry, min_size=len(matrix[0]), max_size=len(matrix[0])))
        systems.append(list(mat_vec(matrix, point)))
    for b in systems:
        solution = linalg.min_norm_solution(matrix, b)
        assert solution == reference_min_norm_solution(matrix, b)
        assert solution is None or _all_fractions([solution])
