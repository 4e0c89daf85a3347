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


def test_intersection_dimension():
    a = [(F(1), F(0), F(0)), (F(0), F(1), F(0))]
    b = [(F(0), F(1), F(0)), (F(0), F(0), F(1))]
    assert linalg.intersection_dimension(a, b) == 1


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
