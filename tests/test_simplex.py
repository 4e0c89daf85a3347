"""The integer simplex against an independent rational reference.

The reference below is the dense Fraction tableau the engine used before its
rows became integer multiples: same two phases, same Bland's rule, reduced
costs rebuilt from scratch each iteration.  It marks the paths it takes in
``PATHS`` so that a fixed sample can show the generator reaches each one.
The reference keeps its drive-out and row drop: ``solve_lp`` raises its
contract's InvariantViolation where its phase 1 leaves an artificial basic,
and the reference's paths show exactly which programs those are.
Free variables are checked against the explicitly split program: the
reference solves it with x+_j, x-_j at columns 2j, 2j+1, and its answer is
recombined as x+ - x-.  The programs are drawn with rational entries and
posed in ints, the cost and each row [a_i | b_i] scaled by its lcm through
``tests.reference.int_rows``; the reference solves the same int program in
Fractions.
"""

import random
from collections import Counter
from fractions import Fraction
from math import gcd
from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semistatic import linalg, simplex
from semistatic.duality import superhedge
from semistatic.enlargement import enlarge
from semistatic.errors import InvariantViolation
from semistatic.scenario import load_scenario
from semistatic.simplex import LPResult, feasible_point, phase1_objective, solve_lp
from tests.conftest import SCENARIOS
from tests.reference import fraction_prices, int_rows
from tests.test_polytope import ladder_model

ZERO = Fraction(0)
ONE = Fraction(1)

PATHS: Counter = Counter()
# the reference's paths on exactly the programs where the engine's phase 1 leaves an artificial basic: Bland's
# rule enters one, or phase 1 ends with one basic ("infeasible", the drive-outs and "dropped row" follow that)
GUARD_PATHS = {"artificial entering", "artificial left basic"}
CONTRACT = "solve_lp's contract"


class _Tableau:
    def __init__(self, rows: list[list[Fraction]], basis: list[int], n: int, pairs: int, originals: int):
        self.rows = rows  # m x (n+1), last column is the rhs
        self.basis = basis
        self.n = n  # kept, not read off the rows: there may be none
        self.originals = originals  # columns from here on are artificials; read only by PATHS
        self.pairs = pairs  # columns 2j, 2j+1 for j < pairs split a free variable; read only by PATHS
        self.last_half: dict[int, int] = {}  # pair j -> 0 if x+_j entered last, 1 if x-_j did
        self.left: int | None = None  # the column that left the basis at the last pivot
        self.passes = 0  # phase-1 pivots in a row that re-entered the pair left by the one before

    def mark_entering(self, col: int) -> None:
        """Count x- entering, and x+ entering after its x- did: the engine flips that column back."""
        if col < 2 * self.pairs:
            j, half = divmod(col, 2)
            if half:
                PATHS["x- entering"] += 1
            elif self.last_half.get(j) == 1:
                PATHS["flipped back"] += 1
            self.last_half[j] = half

    def mark_pass(self, col: int) -> None:
        """Count phase-1 pivots that enter the other half of the free pair the last pivot took out.

        The engine passes such a row in its ratio test; a run of k of them is
        one pass over k free rows.
        """
        if self.n > self.originals and self.left is not None and self.left < 2 * self.pairs and col == self.left ^ 1:
            self.passes += 1
            PATHS["free pair re-entered"] += 1
            PATHS["two free rows passed"] += self.passes == 2
            PATHS["three free rows passed"] += self.passes == 3
        else:
            self.passes = 0

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
            self.mark_pass(entering)
            self.mark_entering(entering)
            self.left = self.basis[leaving]
            self.pivot(leaving, entering)


def reference_solve_lp(cost, matrix, rhs, pairs: int = 0) -> LPResult:
    n = len(cost)
    rows = [[Fraction(x) for x in [*r, b]] for r, b in zip(matrix, rhs)]
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
    if any(b >= n for b in tableau.basis):
        PATHS["artificial left basic"] += 1
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
    """A small rational LP with zero rows, duplicate rows and negative rhs mixed in, posed in ints."""
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
    rows = int_rows([cost] + [[*row, b] for row, b in zip(matrix, rhs)])
    return rows[0], [row[:-1] for row in rows[1:]], [row[-1] for row in rows[1:]]


GAIN_ENTRIES = (-13, -5, -2, -1, 0, 0, 0, 1, 2, 19)


def superhedge_lp(rng):
    """A program shaped as ``superhedge`` poses one: cost e_0 on a cash column of ones, then free columns.

    Up to 10 rows (cells) and up to 12 free columns, at most two more than
    the rows; once two gain columns exist, a quarter of the next ones are
    a + k b of two earlier ones (k = +-1, +-2), so some are dependent.  Then
    the -I surplus block, so the program meets ``solve_lp``'s contract.
    """
    m = rng.randint(1, 10)
    f = rng.randint(1, min(12, m + 2))
    columns = [[1] * m]
    while len(columns) < f:
        if len(columns) > 2 and rng.random() < 0.25:
            a, b = rng.sample(columns[1:], 2)
            k = rng.choice((-2, -1, 1, 2))
            columns.append([x + k * y for x, y in zip(a, b)])
        else:
            columns.append([rng.choice(GAIN_ENTRIES) for _ in range(m)])
    matrix = [[column[i] for column in columns] + [-int(i == k) for k in range(m)] for i in range(m)]
    rhs = [rng.choice((-2, -1, 0, 0, 1, 2, 3)) for _ in range(m)]
    return [1] + [0] * (f - 1 + m), matrix, rhs, f


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


def solve_or_guard(cost, matrix, rhs, free: int = 0) -> tuple[Counter, bool]:
    """The split reference's paths on the program, and whether ``solve_lp`` raised its contract's guard.

    ``solve_lp`` must equal the reference, or raise exactly where the
    reference took one of ``GUARD_PATHS``.
    """
    before = PATHS.copy()
    reference = split_reference(cost, matrix, rhs, free)
    paths = PATHS - before
    try:
        result = solve_lp(cost, matrix, rhs, free=free)
    except InvariantViolation as exc:
        assert CONTRACT in str(exc) and paths.keys() & GUARD_PATHS, paths
        return paths, True
    assert result == reference and not paths.keys() & GUARD_PATHS, paths
    return paths, False


@settings(max_examples=400, deadline=None)
@given(st.randoms(use_true_random=False))
def test_solve_lp_matches_rational_reference(rng):
    solve_or_guard(*random_lp(rng))


@settings(max_examples=400, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(0, 6))
def test_free_columns_match_the_split_program(rng, free):
    cost, matrix, rhs = random_lp(rng)
    solve_or_guard(cost, matrix, rhs, min(free, len(cost)))


def test_generator_reaches_every_path():
    solved, guarded = Counter(), Counter()
    rng = random.Random(20151)
    for _ in range(1500):
        cost, matrix, rhs = random_lp(rng)
        paths, raised = solve_or_guard(cost, matrix, rhs, rng.randint(0, len(cost)))
        (guarded if raised else solved).update(paths)
    # the engine's paths on the programs it solves, and the reference's on those where its guard fires
    for path in ("negative rhs", "ratio tie", "unbounded", "optimal", "x- entering", "flipped back",
                 "unbounded along x-", "free pair re-entered", "two free rows passed"):
        assert solved[path] > 0, path
    for path in ("infeasible", "dropped row", "negative drive-out pivot", "free drive-out", "artificial entering"):
        assert guarded[path] > 0, path


def pivot_counts(monkeypatch) -> list[int]:
    """Spy on both tableaux's pivots: [the reference's, the engine's]."""
    counts = [0, 0]
    for k, cls in enumerate((_Tableau, simplex._Tableau)):

        def counted(self, row, col, k=k, real=cls.pivot):
            counts[k] += 1
            real(self, row, col)

        monkeypatch.setattr(cls, "pivot", counted)
    return counts


def test_superhedge_shaped_programs_match_the_split_program(monkeypatch):
    # random_lp has at most 5 rows; these reach long passes, and each pass saves one pivot per free row passed
    PATHS.clear()
    counts = pivot_counts(monkeypatch)
    rng = random.Random(4501)
    for _ in range(300):
        cost, matrix, rhs, free = superhedge_lp(rng)
        counts[:], re_entered = [0, 0], PATHS["free pair re-entered"]
        assert solve_lp(cost, matrix, rhs, free=free) == split_reference(cost, matrix, rhs, free)
        assert counts[1] == counts[0] - (PATHS["free pair re-entered"] - re_entered)
    assert PATHS["three free rows passed"] > 0


def test_engine_programs_never_store_the_artificial_columns():
    # the superhedge programs of the bundled scenarios, their one-jump enlargements and three ladder rungs,
    # each also on the zero payoff, which is unbounded exactly on the empty measure sets; solve_lp raises
    # its contract's guard where phase 1 would need the artificial columns
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
        prices = fraction_prices(model)[0][horizon]
        cases.append((model, [tuple(Fraction(abs(prices[cell[0]])) for cell in model.terminal_cells)]))
    programs = 0
    for model, payoffs in cases:
        for payoff in [*payoffs, (Fraction(0),) * model.n_cells]:
            superhedge(payoff, model)
            programs += 1
    assert programs > 20


def test_phase1_objective_is_the_eliminated_row():
    # on the programs of the PATHS sample: one elimination per artificial, as phase 1 priced it before
    rng = random.Random(20151)
    for _ in range(1500):
        cost, matrix, rhs = random_lp(rng)
        rng.randint(0, len(cost))  # the sample's free count; phase 1 does not read it
        n, m = len(cost), len(matrix)
        rows, narrow = [], []
        for i, (r, b) in enumerate(zip(matrix, rhs)):
            sign = -1 if b < 0 else 1
            row = [sign * x for x in r] + [int(i == j) for j in range(m)] + [sign * b]
            rows.append(row)
            narrow.append(row[:n] + row[-1:])
        eliminated = [0] * n + [1] * m + [0]
        for i, row in enumerate(rows):
            eliminated = linalg.eliminate(eliminated, row, n + i)
        # the closed form reads neither the artificial block nor the columns it leaves out, zero in the wide row
        direct = phase1_objective(narrow, n)
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
    result = solve_lp([-1, -1], [[1, 2], [3, 1]], [4, 6])
    assert result == LPResult("optimal", objective=f(-14, 5), solution=(f(8, 5), f(6, 5)))
    assert all(type(x) is Fraction for x in (result.objective, *result.solution))  # an int program, Fraction answers
    # x - y = 1, x, y >= 0; minimising -x is unbounded along (1, 1)
    result = solve_lp([-1, 0], [[1, -1]], [1])
    assert result == LPResult("unbounded", ray=(f(1), f(1)), column=1)
    # x + y = -1 has no nonnegative solution, a zero row keeps its artificial, and x + y = 0, -3x - 2y = 0 leaves
    # one basic at zero that the reference drives out at a positive entry of a column that is not free (its
    # only guard path is "artificial left basic"): none has a free column positive on every row
    for matrix, rhs in (([[1, 1]], [-1]), ([[0]], [0]), ([[1, 1], [-3, -2]], [0, 0])):
        with pytest.raises(InvariantViolation, match=f"^{CONTRACT}: a free column positive on every row"):
            solve_lp([0] * len(matrix[0]), matrix, rhs)
    # with no constraint row, minimising -x is unbounded along (1)
    assert solve_lp([-1], [], []) == LPResult("unbounded", ray=(f(1),), column=0)
    # a free x with x = -3 is feasible; minimising a free x alone is unbounded along (-1)
    assert solve_lp([1], [[1]], [-3], free=1) == LPResult("optimal", objective=f(-3), solution=(f(-3),))
    assert solve_lp([1], [], [], free=1) == LPResult("unbounded", ray=(f(-1),), column=0)
    # min -3x - 2y over free x, y with -2x + 3y = 1, unbounded along (3, 2): phase 2 may not pass the free row,
    # which is the ratio test's only row (found by a seeded search; a phase-2 pass runs out of rows here)
    assert solve_lp([-3, -2], [[-2, 3]], [1], free=2) == split_reference([-3, -2], [[-2, 3]], [1], 2)


def test_a_pass_takes_one_pivot_where_the_split_program_takes_several(monkeypatch):
    # superhedge --payoff p2 on the duality-corpus model dual0002 of seed 7: cash, 5 free gain and claim
    # columns and 7 surplus columns, the cost e_0
    rows = [
        [1, -13, -2, -2, 0, 0, -1, 0, 0, 0, 0, 0, 0, -1],
        [1, -5, -2, 2, 0, 0, 0, -1, 0, 0, 0, 0, 0, 3],
        [1, -13, -2, -1, 0, 0, 0, 0, -1, 0, 0, 0, 0, 2],
        [1, -13, 0, 0, -1, 0, 0, 0, 0, -1, 0, 0, 0, -1],
        [1, 19, 0, 0, -2, 0, 0, 0, 0, 0, -1, 0, 0, 3],
        [1, -5, 0, 0, 0, 0, 0, 0, 0, 0, 0, -1, 0, 2],
        [1, 19, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, -1, -1],
    ]
    matrix, rhs = [row[:-1] for row in rows], [row[-1] for row in rows]
    cost = [1] + [0] * 12
    PATHS.clear()
    counts = pivot_counts(monkeypatch)
    result = solve_lp(cost, matrix, rhs, free=6)
    assert result == split_reference(cost, matrix, rhs, 6)
    assert result.status == "optimal" and result.objective == Fraction(9, 7)
    assert counts == [18, 13] and PATHS["free pair re-entered"] == 5 and PATHS["two free rows passed"] == 2


def assert_feasible_point(matrix, rhs, free: int) -> bool:
    """``feasible_point`` is a point of {A x = b, x_j >= 0 for j >= free} exactly when the reference's phase 1 reaches 0.

    Zero cost leaves the reference's phase 2 at phase 1's point, which its
    degenerate drive-outs do not move, so the point must be the reference's.
    Returns whether the program has a point.
    """
    n = len(matrix[0]) if matrix else 0
    reference = split_reference([0] * n, matrix, rhs, free)
    point = feasible_point(matrix, rhs, free)
    if reference.status == "infeasible":
        assert point is None
        return False
    assert all(type(x) is Fraction for x in point) and len(point) == n
    assert all(sum(a * x for a, x in zip(row, point)) == b for row, b in zip(matrix, rhs))
    assert all(x >= 0 for x in point[free:])
    assert point == reference.solution
    return True


def test_feasible_point_of_known_programs():
    f = Fraction
    assert feasible_point([], [], 0) == ()
    assert feasible_point([[1, 1]], [1], 0) == (f(1), f(0))  # x + y = 1 is met by (1, 0)
    assert feasible_point([[1, 1]], [-1], 0) is None  # x + y = -1 has no nonnegative point
    assert feasible_point([[1, 1]], [-1], 1) == (f(-1), f(0))  # but a free x meets it
    assert feasible_point([[0], [1]], [0, 2], 0) == (f(2),)  # the zero row's artificial stays basic, at 0
    cases = [
        ([[3, 2], [1, -1]], [-3, 2], 0),  # x/2 + y/3 = -1/2 times 6, and x - y = 2
        ([[3, 2], [1, -1]], [-3, 2], 2),  # the same rows with both columns free: (1/5, -9/5)
        ([[1, -1], [1, 1], [2, 0]], [0, 1, 6], 0),  # x = y, x + y = 1, x = 3 with a row not in lowest terms
        ([[1, -1, 0], [1, 0, -1]], [1, 1], 1),  # a floor program: a free holding paying >= 1 on two cells
        ([[1, -1, 0], [-1, 0, -1]], [1, 1], 1),  # and one that no holding meets
    ]
    assert [assert_feasible_point(*case) for case in cases] == [False, True, False, True, False]
    assert feasible_point(*cases[1]) == (f(1, 5), f(-9, 5))


def test_feasible_point_matches_the_reference_on_random_programs():
    rng = random.Random(3737)
    seen = Counter()
    for _ in range(1500):
        _, matrix, rhs = random_lp(rng)
        free = rng.randint(0, len(matrix[0]) if matrix else 0)
        seen["feasible" if assert_feasible_point(matrix, rhs, free) else "infeasible"] += 1
        seen["negative rhs"] += any(b < 0 for b in rhs)
        seen["free"] += free > 0
        seen["row not in lowest terms"] += any(gcd(*row, b) > 1 for row, b in zip(matrix, rhs))
    assert min(seen.values()) >= 50, seen


def test_feasible_point_of_floor_programs():
    # superhedge_lp without its cash column, rhs 1: the program of _phase1_certificate, met exactly when some
    # holding of the free columns pays >= 1 on every cell
    rng = random.Random(4801)
    seen = Counter()
    for _ in range(300):
        _, matrix, _, free = superhedge_lp(rng)
        seen[assert_feasible_point([row[1:] for row in matrix], [1] * len(matrix), free - 1)] += 1
    assert min(seen[True], seen[False]) >= 30, seen
