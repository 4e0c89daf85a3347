import json
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semistatic import cli, enlargement
from semistatic.enlargement import (
    AzemaResult,
    SingleJump,
    _weighted_sums,
    _coinciding_lifts,
    azema,
    compensator,
    enlarge,
    filtrations_coincide,
    informed_compare,
    jeulin_yor,
)
from semistatic.errors import InputError, InvariantViolation, SemistaticError, ShapeError
from semistatic.model import FilteredModel, Measure, Partition
from semistatic.polytope import build_constraints, enumerate_extreme_points
from semistatic.sampling import random_jump, random_measure, random_model
from semistatic.scenario import load_scenario
from tests.conftest import SCENARIOS, scenario_path
from tests.reference import enlarged_partitions, fraction_prices

F = Fraction


@pytest.fixture(scope="module")
def two_atom():
    """Omega = {a, b}, uniform-friendly one-period model with frozen price."""
    return FilteredModel.from_fractions(
        outcomes=("a", "b"),
        times=(F(0), F(1)),
        partitions=(Partition([[0, 1]]), Partition([[0], [1]])),
        prices=(((F(0), F(0)), (F(0), F(0))),),
        claims=(),
        allowed=frozenset({0, 1}),
    )


@pytest.fixture(scope="module")
def lumped():
    """Omega = {a, b} in a single terminal cell: nothing ever tells a from b."""
    return FilteredModel.from_fractions(
        outcomes=("a", "b"),
        times=(F(0), F(1)),
        partitions=(Partition([[0, 1]]), Partition([[0, 1]])),
        prices=(((F(0), F(0)), (F(0), F(0))),),
        claims=(),
        allowed=frozenset({0}),
    )


def test_jump_invariant():
    # InputError: a SemistaticError that is also a ValueError
    assert issubclass(InputError, SemistaticError) and issubclass(InputError, ValueError)
    with pytest.raises(InputError, match="tau must be infinite exactly where the mark vanishes"):
        SingleJump((None, 0), (F(1), F(1)))  # infinite time with positive mark
    with pytest.raises(InputError, match="tau must be infinite exactly where the mark vanishes"):
        SingleJump((0, 1), (F(1), F(0)))  # finite time with zero mark
    with pytest.raises(InputError, match="marks must be nonnegative"):
        SingleJump((0,), (F(-1),))


def test_enlarge_rejects_a_jump_that_does_not_fit_the_model(trinomial):
    model = trinomial.model
    with pytest.raises(ShapeError):
        enlarge(model, [SingleJump((0, None), (F(1), F(0)))])  # two outcomes for three
    for t in (model.horizon + 1, -1):
        with pytest.raises(ShapeError, match=f"jump time index {t} outside 0..{model.horizon}"):
            enlarge(model, [SingleJump((t, None, None), (F(1), F(0), F(0)))])


@pytest.mark.parametrize("t", [True, 0.5, 1.0])
def test_enlarge_rejects_a_jump_time_that_is_not_an_int(trinomial, t):
    with pytest.raises(ShapeError, match=f"jump time index {t!r} is not an int"):
        enlarge(trinomial.model, [SingleJump((t, None, None), (F(1), F(0), F(0)))])


@pytest.mark.parametrize("process", [azema, compensator, jeulin_yor])
@pytest.mark.parametrize(
    "jump",
    [SingleJump((1, None), (F(1), F(0))), SingleJump((1, 1), (F(1), F(2)))],
    ids=["time", "mark"],
)
def test_jump_not_measurable_on_the_enlarged_cells(lumped, process, jump):
    enlarged = enlarge(lumped, [])  # the jump is not one the filtration was enlarged with
    with pytest.raises(ShapeError):
        process(enlarged.model.measure(["1"]), jump, enlarged)


def test_weighted_sums_read_only_the_charged_cells():
    groups = ((0, 1, 2), (3,))
    weights = (1, 1, 0, 0)  # the weights 1/2, 1/2, 0, 0 scaled to ints
    # nonzero only on null cells: cell 2 inside a charged group, cell 3 a null group of its own
    assert _weighted_sums((F(1), F(-1), F(7), F(5)), groups, weights) == [0, 0]
    # the charged group's mean 1/2 (and 1/6, -1/6) has the sign of the int sum; the null group sums to 0
    assert _weighted_sums((F(1), F(0), F(7), F(5)), groups, weights) == [1, 0]
    assert _weighted_sums((F(1, 3), F(0), F(7), F(5)), groups, weights) == [1, 0]
    # every value over one denominator, 6: the null cell's 7/2 enters the scale but not the sum
    assert _weighted_sums((F(-1, 3), F(0), F(7, 2), F(5)), groups, weights) == [-2, 0]
    # with ``before`` the sum is of w * (x - before): 1/3 - 1/2 and 0 - (-1/6) cancel
    before = (F(1, 2), F(-1, 6), F(9), F(9))
    assert _weighted_sums((F(1, 3), F(0), F(7), F(5)), groups, weights, before) == [0, 0]
    assert _weighted_sums((F(1, 3), F(0), F(7), F(5)), groups, weights, (F(1, 2), F(0), F(0), F(0))) == [-1, 0]


def test_enlarge_builds_the_partitions_of_the_split_oracle():
    # the natural filtration of the base cells and the jump processes, against each base cell split by (tau, mark)
    cases = [(s.model, s.jumps) for s in map(load_scenario, sorted(SCENARIOS.glob("*.json"))) if s.jumps]
    assert len(cases) >= 2
    rng = random.Random(4707)
    for _ in range(500):
        model, _ = random_model(rng)
        cases.append((model, [random_jump(rng, model) for _ in range(rng.randint(1, 3))]))
    assert any(0 in jump.tau for _, jumps in cases for jump in jumps)
    for model, jumps in cases:
        got, want = enlarge(model, jumps).model.partitions, enlarged_partitions(model, jumps)
        assert [(p.cells, p.cell_of) for p in got] == [(p.cells, p.cell_of) for p in want]


def test_enlarge_trivial_when_mark_zero(trinomial):
    model = trinomial.model
    jump = SingleJump((None,) * 3, (F(0),) * 3)
    enlarged = enlarge(model, [jump])
    assert enlarged.model.partitions == model.partitions


def test_enlarge_initial(trinomial):
    model = trinomial.model
    jump = SingleJump((0, None, None), (F(1), F(0), F(0)))
    enlarged = enlarge(model, [jump])
    assert enlarged.model.partitions[0].cells == ((0,), (1, 2))


def test_enlarge_progressive_split():
    # three-period walk, tau = first time the price is positive
    model = FilteredModel.from_fractions(
        outcomes=("uu", "ud", "du", "dd"),
        times=(F(0), F(1), F(2)),
        partitions=(
            Partition([[0, 1, 2, 3]]),
            Partition([[0, 1], [2, 3]]),
            Partition([[0], [1], [2], [3]]),
        ),
        prices=(((F(0),) * 4, (F(1), F(1), F(-1), F(-1)), (F(2), F(0), F(0), F(-2))),),
        claims=(),
        allowed=frozenset(range(4)),
    )
    moves = tuple(next(k for k in range(3) if fraction_prices(model)[0][k][w] != 0) for w in range(4))
    assert moves == (1, 1, 1, 1)
    tau = tuple(
        next((k for k in range(3) if fraction_prices(model)[0][k][w] > 0), None) for w in range(4)
    )
    mark = tuple(F(1) if t is not None else F(0) for t in tau)
    enlarged = enlarge(model, [SingleJump(tau, mark)])
    # at time 1 the down-branch splits by whether the jump has happened (it has not)
    assert enlarged.model.partitions[1].cells == ((0, 1), (2, 3))
    # at time 2 the du path jumps (price 0 -> positive? no: 0 is not positive) stays merged
    assert enlarged.model.partitions[2].cells == ((0,), (1,), (2,), (3,))


def test_enlarge_genuine_progressive_split():
    # the jump reveals terminal information early: tau = 1 on one path only
    model = FilteredModel.from_fractions(
        outcomes=("uu", "ud", "du", "dd"),
        times=(F(0), F(1), F(2)),
        partitions=(
            Partition([[0, 1, 2, 3]]),
            Partition([[0, 1], [2, 3]]),
            Partition([[0], [1], [2], [3]]),
        ),
        prices=(((F(0),) * 4, (F(1), F(1), F(-1), F(-1)), (F(2), F(0), F(0), F(-2))),),
        claims=(),
        allowed=frozenset(range(4)),
    )
    jump = SingleJump((1, None, None, None), (F(1), F(0), F(0), F(0)))
    enlarged = enlarge(model, [jump])
    assert enlarged.model.partitions[0].cells == ((0, 1, 2, 3),)
    assert enlarged.model.partitions[1].cells == ((0,), (1,), (2, 3))


def test_compensator_zero_mark(two_atom):
    jump = SingleJump((None, None), (F(0), F(0)))
    enlarged = enlarge(two_atom, [jump])
    q = enlarged.model.measure(["1/2", "1/2"])
    comp = compensator(q, jump, enlarged)
    assert all(row == (F(0), F(0)) for row in comp.increments)


def test_azema_two_atom(two_atom):
    jump = SingleJump((1, None), (F(1), F(0)))
    enlarged = enlarge(two_atom, [jump])
    q = enlarged.model.measure(["1/2", "1/2"])
    z = azema(q, jump, enlarged)
    assert z.values[0] == (F(1), F(1))
    assert z.values[1] == (F(0), F(1))
    assert z.supermartingale_ok


def test_azema_degenerate_cases(two_atom):
    never = SingleJump((None, None), (F(0), F(0)))
    enlarged = enlarge(two_atom, [never])
    q = enlarged.model.measure(["1/2", "1/2"])
    z = azema(q, never, enlarged)
    assert all(row == (F(1), F(1)) for row in z.values)
    immediate = SingleJump((0, 0), (F(1), F(1)))
    enlarged = enlarge(two_atom, [immediate])
    q = enlarged.model.measure(["1/2", "1/2"])
    z = azema(q, immediate, enlarged)
    assert all(row == (F(0), F(0)) for row in z.values)


def test_compensator_two_atom(two_atom):
    jump = SingleJump((1, None), (F(1), F(0)))
    enlarged = enlarge(two_atom, [jump])
    q = enlarged.model.measure(["1/2", "1/2"])
    comp = compensator(q, jump, enlarged)
    assert comp.increments[0] == (F(0), F(0))
    assert comp.increments[1] == (F(1, 2), F(1, 2))
    assert comp.predictable_ok and comp.martingale_ok


def test_compensator_immediate_jump(two_atom):
    jump = SingleJump((0, 0), (F(3), F(3)))
    enlarged = enlarge(two_atom, [jump])
    q = enlarged.model.measure(["1/2", "1/2"])
    comp = compensator(q, jump, enlarged)
    assert comp.increments[0] == (F(3), F(3))
    assert tuple(map(sum, zip(*comp.increments))) == (F(3), F(3))


def test_jeulin_yor_two_atom(two_atom):
    jump = SingleJump((1, None), (F(1), F(0)))
    enlarged = enlarge(two_atom, [jump])
    q = enlarged.model.measure(["1/2", "1/2"])
    jy = jeulin_yor(q, jump, enlarged)
    assert jy.values[0] == (F(0), F(0))
    assert jy.values[1] == (F(1, 2), F(-1, 2))
    assert jy.martingale_ok
    assert q.expectation(jy.values[1]) == 0


def test_jeulin_yor_immediate_jump_fully_compensated(two_atom):
    jump = SingleJump((0, 0), (F(3), F(3)))
    enlarged = enlarge(two_atom, [jump])
    q = enlarged.model.measure(["1/2", "1/2"])
    jy = jeulin_yor(q, jump, enlarged)
    assert all(row == (F(0), F(0)) for row in jy.values)


def test_jeulin_yor_zero_mark(two_atom):
    jump = SingleJump((None, None), (F(0), F(0)))
    enlarged = enlarge(two_atom, [jump])
    q = enlarged.model.measure(["1/2", "1/2"])
    jy = jeulin_yor(q, jump, enlarged)
    assert all(row == (F(0), F(0)) for row in jy.values)


def test_zero_survival_forces_a_zero_compensator_increment():
    # Delta A_l and Z_{l-1} are means over one base P_{l-1} cell, so Z_{l-1} = 0 => Delta A_l = 0
    rng = random.Random(4452)
    vanishing = 0
    for _ in range(300):
        model, _ = random_model(rng)
        jump = random_jump(rng, model)
        enlarged = enlarge(model, [jump])
        q = random_measure(rng, enlarged.model)
        z, comp = azema(q, jump, enlarged), compensator(q, jump, enlarged)
        for l in range(1, model.horizon + 1):
            for survival, increment in zip(z.values[l - 1], comp.increments[l]):
                if survival == 0:
                    vanishing += 1
                    assert increment == 0
    assert vanishing > 0


def test_increment_where_survival_vanishes_is_an_invariant_violation(two_atom, monkeypatch):
    jump = SingleJump((1, None), (F(1), F(0)))
    enlarged = enlarge(two_atom, [jump])
    q = enlarged.model.measure(["1/2", "1/2"])
    assert compensator(q, jump, enlarged).increments[1] == (F(1, 2), F(1, 2))
    vanished = AzemaResult(((F(0), F(0)), (F(0), F(0))), True)
    monkeypatch.setattr(enlargement, "azema", lambda *args: vanished)
    with pytest.raises(InvariantViolation):
        jeulin_yor(q, jump, enlarged)


def test_trace_identity_random():
    # the pre-jump part of each base cell is a single enlarged cell
    from semistatic.model import validate_model

    rng = random.Random(7)
    for _ in range(50):
        model, _ = random_model(rng)
        jump = random_jump(rng, model)
        enlarged = enlarge(model, [jump])
        assert validate_model(enlarged.model).ok
        for k in range(model.horizon + 1):
            for cell in model.partitions[k].cells:
                pre = [w for w in cell if jump.tau[w] is None or jump.tau[w] > k]
                fine = {enlarged.model.partitions[k].cell_of[w] for w in pre}
                assert len(fine) <= 1


def test_filtrations_coincide_cases(trinomial):
    model = trinomial.model
    trivial = SingleJump((None,) * 3, (F(0),) * 3)
    enlarged = enlarge(model, [trivial])
    q = enlarged.model.measure(["1/4", "1/2", "1/4"])
    assert filtrations_coincide(q, enlarged)
    split = SingleJump((0, None, None), (F(1), F(0), F(0)))
    enlarged = enlarge(model, [split])
    q_null = enlarged.model.measure(["0", "1", "0"])
    assert filtrations_coincide(q_null, enlarged)  # the new cell is null
    q_charged = enlarged.model.measure(["1/2", "0", "1/2"])
    assert not filtrations_coincide(q_charged, enlarged)


def test_informed_compare_trinomial(initial_enlargement):
    scenario = initial_enlargement
    report, enlarged = informed_compare(scenario.model, scenario.jumps, scenario.payoffs)
    assert [v.weights for v in report.ext_base.vertices] == [
        (F(1, 2), F(0), F(1, 2)),
        (F(0), F(1), F(0)),
    ]
    assert [v.weights for v in report.ext_enlarged.vertices] == [(F(0), F(1), F(0))]
    assert report.corollary_equal is True
    assert report.coincide_flags == (True,)
    base_price, enlarged_price = report.prices["abs_S1"]
    assert base_price == 1 and enlarged_price == 0


def test_informed_compare_zero_marks(trinomial):
    jump = SingleJump((None,) * 3, (F(0),) * 3)
    report, _ = informed_compare(trinomial.model, [jump])
    assert report.corollary_equal is True
    assert [v.weights for v in report.ext_base.vertices] == [
        v.weights for v in report.ext_enlarged.vertices
    ]


def test_informed_compare_arbitrage(informed_arbitrage):
    scenario = informed_arbitrage
    report, _ = informed_compare(scenario.model, scenario.jumps, scenario.payoffs)
    assert not report.uninformed_arbitrage
    assert report.informed_arbitrage
    assert [v.weights for v in report.ext_base.vertices] == [(F(1, 2), F(0), F(1, 2))]
    assert report.ext_enlarged.vertices == ()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_jeulin_yor_martingale_random(seed):
    rng = random.Random(seed)
    model, _ = random_model(rng)
    jump = random_jump(rng, model)
    enlarged = enlarge(model, [jump])
    q = random_measure(rng, enlarged.model)
    jy = jeulin_yor(q, jump, enlarged)
    assert jy.compensator == compensator(q, jump, enlarged)
    assert jy.azema == azema(q, jump, enlarged)
    assert jy.compensator.predictable_ok and jy.compensator.martingale_ok
    assert jy.martingale_ok
    assert jy.azema.supermartingale_ok


def pairwise_coincide(measure, enlarged):
    """Reference: any two charged cells share a base P_k cell iff they share an enlarged one."""
    base, fine = enlarged.base, enlarged.model
    charged = [g for g, w in enumerate(measure.weights) if w > 0]
    for k in range(fine.horizon + 1):
        base_of = [base.partitions[k].cell_of[cell[0]] for cell in fine.terminal_cells]
        fine_of = fine.coarse_cell_of[k]
        for a in charged:
            for b in charged:
                if (base_of[a] == base_of[b]) != (fine_of[a] == fine_of[b]):
                    return False
    return True


def base_grouping(enlarged, k):
    """Reference: the base P_k cells as groups of enlarged terminal cells, by each cell's first outcome."""
    partition = enlarged.base.partitions[k]
    groups = [[] for _ in partition.cells]
    for g, cell in enumerate(enlarged.model.terminal_cells):
        groups[partition.cell_of[cell[0]]].append(g)
    return tuple(tuple(group) for group in groups)


def test_base_groups_match_the_outcome_lookup():
    rng = random.Random(131)
    for _ in range(60):
        model, _ = random_model(rng)
        enlarged = enlarge(model, [random_jump(rng, model) for _ in range(rng.randint(1, 2))])
        for k in range(model.horizon + 1):
            groups = base_grouping(enlarged, k)
            assert enlarged.base_groups[k] == groups
            assert all(enlarged.base_cell_of[k][g] == c for c, group in enumerate(groups) for g in group)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_filtrations_coincide_matches_the_pairwise_reference(seed):
    rng = random.Random(seed)
    model, _ = random_model(rng, n_claims=0)
    enlarged = enlarge(model, [random_jump(rng, model) for _ in range(rng.randint(1, 2))])
    fine = enlarged.model
    measures = [random_measure(rng, fine) for _ in range(8)]  # weights 0..4: null cells are common
    measures += enumerate_extreme_points(build_constraints(fine)).vertices
    subcells = base_grouping(enlarged, model.horizon)
    for vertex in enumerate_extreme_points(build_constraints(model)).vertices:
        charged = vertex.support
        candidates = []
        for choice in product(*[subcells[c] for c in charged]):
            weights = [F(0)] * fine.n_cells
            for c, g in zip(charged, choice):
                weights[g] = vertex.weights[c]
            candidates.append(Measure(tuple(weights)))
        allowed = [m for m in candidates if set(m.support) <= fine.allowed]
        assert _coinciding_lifts(vertex, enlarged) == [m for m in allowed if pairwise_coincide(m, enlarged)]
        measures += candidates
    for measure in measures:
        assert filtrations_coincide(measure, enlarged) == pairwise_coincide(measure, enlarged)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_corollary_set_equality_random(seed):
    rng = random.Random(seed)
    model, _ = random_model(rng, n_claims=0)
    jumps = [random_jump(rng, model) for _ in range(rng.randint(1, 2))]
    report, _ = informed_compare(model, jumps)
    assert report.corollary_equal is True


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_price_dominance(seed):
    from semistatic.sampling import random_payoff

    rng = random.Random(seed)
    model, _ = random_model(rng)
    jumps = [random_jump(rng, model)]
    payoff = random_payoff(rng, model)
    report, _ = informed_compare(model, jumps, {"x": payoff})
    base_price, enlarged_price = report.prices["x"]
    if enlarged_price is not None:
        assert base_price is not None and enlarged_price <= base_price


def test_predictable_ok_reads_the_base_partition_not_base_groups(monkeypatch, capsys):
    # split the one P_0 group {u, m, d} into {u} and {m, d}: the time-0 compensator increment,
    # averaged over the halves, is 1 on u and 0 elsewhere, which no F_0 process is
    path = str(scenario_path("initial_enlargement"))
    args = ["--format", "json", "enlarge", "--measure", "1/2,1/2,0", path]
    assert cli.main(args) == 0
    original = enlargement.EnlargedModel.base_groups.func

    def split_first_group(self):
        first, *rest = original(self)
        group = first[0]
        return ((group[:1], group[1:]) + first[1:], *rest)

    monkeypatch.setattr(enlargement.EnlargedModel, "base_groups", property(split_first_group))
    scenario = load_scenario(path)
    enlarged = enlarge(scenario.model, scenario.jumps)
    comp = compensator(enlarged.model.measure(["1/2", "1/2", "0"]), scenario.jumps[0], enlarged)
    assert comp.increments[0] == (F(1), F(0), F(0))
    assert comp.martingale_ok and not comp.predictable_ok
    capsys.readouterr()
    assert cli.main(args) == 1
    assert json.loads(capsys.readouterr().out)["result"]["per_jump"][0]["predictable_ok"] is False
