"""The integer simplex against an independent rational reference.

The reference below is the dense Fraction tableau the engine used before its
rows became integer multiples: same two phases, same Bland's rule, reduced
costs rebuilt from scratch each iteration.  It marks the paths it takes in
``PATHS`` so that a fixed sample can show the generator reaches each one.
Free variables are checked against the explicitly split program: the
reference solves it with x+_j, x-_j at columns 2j, 2j+1, and its answer is
recombined as x+ - x-.
"""

import random
from collections import Counter
from fractions import Fraction
from typing import Sequence

from hypothesis import given, settings
from hypothesis import strategies as st

from semistatic import linalg, simplex
from semistatic.duality import superhedge
from semistatic.enlargement import enlarge
from semistatic.rationals import common_denominator, integer_row
from semistatic.scenario import load_scenario
from semistatic.simplex import LPResult, phase1_dual, phase1_objective, solve_lp
from tests.conftest import SCENARIOS
from tests.reference import reference_solve
from tests.test_polytope import ladder_model

ZERO = Fraction(0)
ONE = Fraction(1)

PATHS: Counter = Counter()


class _Tableau:
    def __init__(self, rows: list[list[Fraction]], basis: list[int], n: int, pairs: int, originals: int):
        self.rows = rows  # m x (n+1), last column is the rhs
        self.basis = basis
        self.n = n  # kept, not read off the rows: there may be none
        self.originals = originals  # columns from here on are artificials; read only by PATHS
        self.pairs = pairs  # columns 2j, 2j+1 for j < pairs split a free variable; read only by PATHS
        self.last_half: dict[int, int] = {}  # pair j -> 0 if x+_j entered last, 1 if x-_j did

    def mark_entering(self, col: int) -> None:
        """Count x- entering, and x+ entering after its x- did: the engine flips that column back."""
        if col < 2 * self.pairs:
            j, half = divmod(col, 2)
            if half:
                PATHS["x- entering"] += 1
            elif self.last_half.get(j) == 1:
                PATHS["flipped back"] += 1
            self.last_half[j] = half

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
                    if best is not None and ratio == best:
                        PATHS["ratio tie"] += 1
                    if best is None or ratio < best or (ratio == best and self.basis[i] < self.basis[leaving]):
                        best = ratio
                        leaving = i
            if leaving is None:
                self._unbounded_col = entering
                return "unbounded"
            if entering >= self.originals:
                PATHS["artificial entering"] += 1
            self.mark_entering(entering)
            self.pivot(leaving, entering)


def reference_solve_lp(cost, matrix, rhs, pairs: int = 0) -> LPResult:
    n = len(cost)
    rows = [list(r) + [b] for r, b in zip(matrix, rhs)]
    for row in rows:
        if row[-1] < 0:
            PATHS["negative rhs"] += 1
            row[:] = [-x for x in row]

    m = len(rows)
    art_rows = []
    for i, row in enumerate(rows):
        art = [ZERO] * m
        art[i] = ONE
        art_rows.append(row[:-1] + art + [row[-1]])
    tableau = _Tableau(art_rows, [n + i for i in range(m)], n + m, pairs, n)
    phase1_cost = [ZERO] * n + [ONE] * m
    status = tableau.run(phase1_cost)
    if status != "optimal":
        raise AssertionError("phase 1 is always bounded below by zero")
    if sum((tableau.rows[i][-1] for i, b in enumerate(tableau.basis) if b >= n), ZERO) != 0:
        PATHS["infeasible"] += 1
        return LPResult("infeasible")

    drop: list[int] = []
    for i in range(len(tableau.rows)):
        if tableau.basis[i] >= n:
            col = next((j for j in range(n) if tableau.rows[i][j] != 0), None)
            if col is None:
                PATHS["dropped row"] += 1
                drop.append(i)
            else:
                if tableau.rows[i][col] < 0:
                    PATHS["negative drive-out pivot"] += 1
                if col < 2 * pairs:
                    PATHS["free drive-out"] += 1
                tableau.mark_entering(col)
                tableau.pivot(i, col)
    for i in reversed(drop):
        del tableau.rows[i]
        del tableau.basis[i]
    tableau.rows = [row[:n] + [row[-1]] for row in tableau.rows]
    tableau.n = n

    status = tableau.run(list(cost))
    if status == "unbounded":
        PATHS["unbounded"] += 1
        col = tableau._unbounded_col
        if col < 2 * pairs and col % 2:
            PATHS["unbounded along x-"] += 1
        ray = [ZERO] * n
        ray[col] = ONE
        for i, bi in enumerate(tableau.basis):
            if bi < n:
                ray[bi] = -tableau.rows[i][col]
        return LPResult("unbounded", ray=tuple(ray), column=col)
    PATHS["optimal"] += 1
    solution = tableau.solution(n)
    objective = sum((c * x for c, x in zip(cost, solution)), ZERO)
    return LPResult("optimal", objective=objective, solution=solution)


# Zero-heavy small values: degenerate vertices and ratio ties are common.
VALUES = [Fraction(v) for v in (-2, -1, 0, 0, 0, 0, 1, 1, 2, 3)] + [Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4)]


def random_lp(rng):
    """A small rational LP with zero rows, duplicate rows and negative rhs mixed in."""
    n, m = rng.randint(1, 6), rng.randint(0, 5)
    matrix = [[rng.choice(VALUES) for _ in range(n)] for _ in range(m)]
    rhs = [rng.choice(VALUES) for _ in range(m)]
    for i in range(m):
        kind = rng.random()
        if kind < 0.12:
            matrix[i] = [ZERO] * n
            rhs[i] = ZERO if rng.random() < 0.8 else ONE
        elif kind < 0.3 and i > 0:
            j = rng.randrange(i)
            scale = rng.choice([v for v in VALUES if v])
            matrix[i] = [scale * x for x in matrix[j]]
            rhs[i] = scale * rhs[j]
    cost = [rng.choice(VALUES) for _ in range(n)]
    return cost, matrix, rhs


def split_reference(cost, matrix, rhs, free: int) -> LPResult:
    """The reference on the program with its first ``free`` variables split, recombined as x+ - x-."""

    def split(row):
        return [x for v in row[:free] for x in (v, -v)] + list(row[free:])

    def recombine(values):
        if values is None:
            return None
        return tuple(values[2 * j] - values[2 * j + 1] for j in range(free)) + values[2 * free :]

    result = reference_solve_lp(split(cost), [split(row) for row in matrix], rhs, pairs=free)
    column = result.column
    if column is not None:
        column = column // 2 if column < 2 * free else column - free
    return LPResult(result.status, result.objective, recombine(result.solution), recombine(result.ray), column)


@settings(max_examples=400, deadline=None)
@given(st.randoms(use_true_random=False))
def test_solve_lp_matches_rational_reference(rng):
    cost, matrix, rhs = random_lp(rng)
    assert solve_lp(cost, matrix, rhs) == reference_solve_lp(cost, matrix, rhs)


@settings(max_examples=400, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(0, 6))
def test_free_columns_match_the_split_program(rng, free):
    cost, matrix, rhs = random_lp(rng)
    free = min(free, len(cost))
    assert solve_lp(cost, matrix, rhs, free=free) == split_reference(cost, matrix, rhs, free)


def wide_phase1_builds(monkeypatch) -> list[int]:
    """Spy on ``simplex._phase1``: the row count of each phase 1 run with the artificial columns stored."""
    builds: list[int] = []
    real = simplex._phase1

    def spy(matrix, rhs, n, free, wide):
        if wide:
            builds.append(len(matrix))
        return real(matrix, rhs, n, free, wide)

    monkeypatch.setattr(simplex, "_phase1", spy)
    return builds


def test_generator_reaches_every_path(monkeypatch):
    PATHS.clear()
    builds = wide_phase1_builds(monkeypatch)
    rng = random.Random(20151)
    for _ in range(1500):
        cost, matrix, rhs = random_lp(rng)
        free = rng.randint(0, len(cost))
        assert solve_lp(cost, matrix, rhs, free=free) == split_reference(cost, matrix, rhs, free)
    for path in ("negative rhs", "ratio tie", "dropped row", "negative drive-out pivot",
                 "infeasible", "unbounded", "optimal",
                 "x- entering", "flipped back", "free drive-out", "unbounded along x-", "artificial entering"):
        assert PATHS[path] > 0, path
    assert builds  # a zero-level artificial left basic by phase 1 on [A | b]


def test_engine_programs_never_store_the_artificial_columns(monkeypatch):
    # the superhedge programs of the bundled scenarios, their one-jump enlargements and three ladder rungs,
    # each also on the zero payoff, which is unbounded exactly on the empty measure sets
    cases = []
    for path in sorted(SCENARIOS.glob("*.json")):
        scenario = load_scenario(path)
        payoffs = list(scenario.payoffs.values())
        cases.append((scenario.model, payoffs))
        for jump in scenario.jumps:
            enlarged = enlarge(scenario.model, [jump])
            cases.append((enlarged.model, [enlarged.expand(payoff) for payoff in payoffs]))
    for b, horizon in ((4, 2), (5, 2), (3, 3)):
        model = ladder_model(b, horizon)
        prices = model.prices[0][horizon]
        cases.append((model, [tuple(Fraction(abs(prices[cell[0]])) for cell in model.terminal_cells)]))
    builds = wide_phase1_builds(monkeypatch)
    programs = 0
    for model, payoffs in cases:
        for payoff in [*payoffs, (Fraction(0),) * model.n_cells]:
            superhedge(payoff, model)
            programs += 1
    assert programs > 20
    assert builds == []


def test_phase1_objective_is_the_eliminated_row():
    # on the programs of the PATHS sample: one elimination per artificial, as phase 1 priced it before
    rng = random.Random(20151)
    for _ in range(1500):
        cost, matrix, rhs = random_lp(rng)
        rng.randint(0, len(cost))  # the sample's free count; phase 1 does not read it
        n, m = len(cost), len(matrix)
        rows, narrow, scales = [], [], []
        for i, (r, b) in enumerate(zip(matrix, rhs)):
            row = integer_row(list(r) + [int(i == j) for j in range(m)] + [b])
            if b < 0:
                row = [-x for x in row]
                row[n + i] = -row[n + i]
            rows.append(row)
            narrow.append(row[:n] + row[-1:])
            scales.append(row[n + i])
            assert scales[-1] == common_denominator(list(r) + [b])[1]
        eliminated = [0] * n + [1] * m + [0]
        for i, row in enumerate(rows):
            eliminated = linalg.eliminate(eliminated, row, n + i)
        # the closed form reads neither the artificial block nor the columns it leaves out, zero in the wide row
        direct = phase1_objective(narrow, scales, n)
        direct[n:n] = [0] * m
        k = next((j for j, x in enumerate(eliminated) if x), None)
        if k is None:
            assert not any(direct)
            continue
        # a positive multiple: proportional entries and the same sign where nonzero
        assert direct[k] * eliminated[k] > 0
        assert [direct[k] * x for x in eliminated] == [eliminated[k] * x for x in direct]


def test_known_programs():
    f = Fraction
    # min -x - y  s.t.  x + 2y = 4, 3x + y = 6 (a single feasible point)
    result = solve_lp([f(-1), f(-1)], [[f(1), f(2)], [f(3), f(1)]], [f(4), f(6)])
    assert result == LPResult("optimal", objective=f(-14, 5), solution=(f(8, 5), f(6, 5)))
    # x - y = 1, x, y >= 0; minimising -x is unbounded along (1, 1)
    result = solve_lp([f(-1), f(0)], [[f(1), f(-1)]], [f(1)])
    assert result == LPResult("unbounded", ray=(f(1), f(1)), column=1)
    # x + y = -1 has no nonnegative solution
    assert solve_lp([f(0), f(0)], [[f(1), f(1)]], [f(-1)]) == LPResult("infeasible")
    # with no constraint row left, minimising -x is unbounded along (1)
    assert solve_lp([f(-1)], [[f(0)]], [f(0)]) == LPResult("unbounded", ray=(f(1),), column=0)
    assert solve_lp([f(-1)], [], []) == LPResult("unbounded", ray=(f(1),), column=0)
    # a free x with x = -3 is feasible; minimising a free x alone is unbounded along (-1)
    assert solve_lp([f(1)], [[f(1)]], [f(-3)], free=1) == LPResult("optimal", objective=f(-3), solution=(f(-3),))
    assert solve_lp([f(1)], [], [], free=1) == LPResult("unbounded", ray=(f(-1),), column=0)


def reference_phase1_dual(matrix, rhs):
    """The reference's phase 1, then the dual of its final basis by a Fraction solve of B^T y = c_B; None if feasible.

    A row negated for its negative rhs gets its sign back in y.
    """
    if not matrix:
        return None
    n, m = len(matrix[0]), len(matrix)
    sign = [-1 if b < 0 else 1 for b in rhs]
    rows = [
        [s * x for x in r] + [ONE if k == i else ZERO for k in range(m)] + [s * b]
        for i, (r, b, s) in enumerate(zip(matrix, rhs, sign))
    ]
    tableau = _Tableau([list(row) for row in rows], [n + i for i in range(m)], n + m, 0, n)
    tableau.run([ZERO] * n + [ONE] * m)
    if all(tableau.rows[i][-1] == 0 for i, b in enumerate(tableau.basis) if b >= n):
        return None
    transposed = [[row[j] for row in rows] for j in tableau.basis]  # row k of B^T is basic column k
    dual = reference_solve(transposed, [ONE if j >= n else ZERO for j in tableau.basis])
    return [s * y for s, y in zip(sign, dual)]


def assert_farkas(y, matrix, rhs, reference):
    """y certifies {x >= 0 : A x = b} empty and is a positive multiple of the reference dual."""
    assert all(type(v) is int for v in y)
    assert all(sum(v * row[j] for v, row in zip(y, matrix)) <= 0 for j in range(len(matrix[0])))
    assert sum(v * b for v, b in zip(y, rhs)) > 0
    i = next(i for i, v in enumerate(reference) if v)
    factor = Fraction(y[i]) / reference[i]
    assert factor > 0 and [factor * v for v in reference] == y


def test_phase1_dual_of_known_programs():
    f = Fraction
    assert phase1_dual([], []) is None
    assert phase1_dual([[f(1), f(1)]], [f(1)]) is None  # x + y = 1 is met by (1, 0)
    cases = [
        ([[1, 1]], [-1]),  # x + y = -1: the negated row's dual entry is negative
        ([[f(1, 2), f(1, 3)], [f(1), f(-1)]], [f(-1, 2), f(2)]),  # rational entries and a negative rhs
        ([[1, -1], [1, 1], [f(1, 2), 0]], [0, 1, f(3, 2)]),  # x = y, x + y = 1, x = 3
        ([[1, 0, 1], [0, 1, 1], [1, 1, 1]], [0, 0, 1]),  # a sum row under homogeneous rows, as the certificate has
    ]
    for matrix, rhs in cases:
        y = phase1_dual(matrix, rhs)
        assert_farkas(y, matrix, rhs, reference_phase1_dual(matrix, rhs))
    assert phase1_dual([[1, 1]], [-1])[0] < 0


def test_phase1_dual_matches_the_reference_on_random_programs():
    rng = random.Random(3737)
    seen = Counter()
    for _ in range(1500):
        _, matrix, rhs = random_lp(rng)
        reference = reference_phase1_dual(matrix, rhs)
        y = phase1_dual(matrix, rhs)
        if reference is None:
            assert y is None
            seen["feasible"] += 1
            continue
        assert_farkas(y, matrix, rhs, reference)
        seen["infeasible"] += 1
        seen["negative rhs"] += any(b < 0 for b in rhs)
        seen["rational entry"] += any(x.denominator > 1 for row in matrix for x in row)
    assert min(seen[k] for k in ("feasible", "infeasible", "negative rhs", "rational entry")) >= 50, seen
