import json
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semistatic import cli, duality
from semistatic.duality import (
    CERTIFICATE_MISSING,
    ArbitrageReport,
    _phase1_certificate,
    detect_arbitrage,
    optimal_face,
    robust_price,
    superhedge,
    verify_duality,
)
from semistatic.enlargement import enlarge
from semistatic.errors import InvariantViolation
from semistatic.hedging import SemiStaticStrategy, int_strategy_columns, strategy_payoff
from semistatic.model import Measure
from semistatic.polytope import VertexSet, build_constraints, enumerate_extreme_points
from semistatic.sampling import random_jump, random_model, random_payoff
from tests.conftest import scenario_path
from tests.test_polytope import ladder_model
from tests.reference import fraction_claims, fraction_prices, strategy_value

F = Fraction


def test_superhedge_abs(trinomial):
    model = trinomial.model
    result = superhedge(trinomial.payoffs["abs_S1"], model)
    assert result.price == 1
    assert result.strategy.cash == 1
    assert set(result.tight) == {0, 2}
    payoff = strategy_payoff(result.strategy, model)
    assert all(payoff[a] >= trinomial.payoffs["abs_S1"][a] for a in model.allowed)


def test_superhedge_replicable_claim(trinomial_calibrated):
    model = trinomial_calibrated.model
    result = superhedge(fraction_claims(model)[0], model)
    assert result.price == 0


def test_superhedge_constant(trinomial):
    result = superhedge((F(5), F(5), F(5)), trinomial.model)
    assert result.price == 5


def slacken_a_tight_cell(monkeypatch):
    """Make ``duality.solve_lp`` report the first tight cell's surplus as 1, so the LP's tight cells are wrong."""
    solve = duality.solve_lp

    def corrupted(cost, matrix, rhs, free=0):
        result = solve(cost, matrix, rhs, free=free)
        solution = list(result.solution)
        solution[solution.index(0, free)] = Fraction(1)
        return result._replace(solution=tuple(solution))

    monkeypatch.setattr(duality, "solve_lp", corrupted)


def test_superhedge_checks_its_tight_cells(monkeypatch, trinomial):
    # the tight cells are recomputed from the strategy's own payoff, not only read off the LP's surpluses
    slacken_a_tight_cell(monkeypatch)
    with pytest.raises(InvariantViolation, match="tight cells"):
        superhedge(trinomial.payoffs["abs_S1"], trinomial.model)


def test_robust_price_examples(trinomial, trinomial_calibrated):
    result = robust_price(trinomial.payoffs["abs_S1"], trinomial.model)
    assert result.value == 1
    assert [m.weights for m in result.argmax] == [(F(1, 2), F(0), F(1, 2))]
    result = robust_price(trinomial_calibrated.payoffs["abs_S1"], trinomial_calibrated.model)
    assert result.value == F(1, 2)
    assert robust_price((F(0),) * 3, trinomial.model).value == 0


def test_verify_duality_examples(trinomial, trinomial_calibrated):
    report = verify_duality(trinomial.payoffs["abs_S1"], trinomial.model)
    assert report.ok and report.primal == 1 == report.dual
    report = verify_duality(trinomial_calibrated.payoffs["abs_S1"], trinomial_calibrated.model)
    assert report.ok and report.primal == F(1, 2)
    assert report.strategy.cash == F(1, 2) and report.strategy.static == (F(1),)
    replicable = verify_duality(fraction_claims(trinomial_calibrated.model)[0], trinomial_calibrated.model)
    assert replicable.ok and replicable.primal == 0


def test_duality_on_an_empty_set_returns_the_superhedge_ray_without_its_cash(informed_arbitrage):
    enlarged = enlarge(informed_arbitrage.model, informed_arbitrage.jumps)
    for payoff in ((F(0),) * enlarged.model.n_cells, *map(enlarged.expand, informed_arbitrage.payoffs.values())):
        report = verify_duality(payoff, enlarged.model)
        assert isinstance(report, ArbitrageReport) and report.vertex_count == 0
        ray = superhedge(payoff, enlarged.model)
        assert ray.unbounded and ray.strategy.cash < 0
        assert report.certificate == ray.strategy._replace(cash=F(0))


def test_duality_certifies_every_empty_enlarged_measure_set_with_its_ray():
    # random models (each has a calibrated measure) and single-jump enlargements, about one in five empty
    rng = random.Random(4900)
    empty = 0
    for _ in range(600):
        base, _ = random_model(rng)
        payoff = random_payoff(rng, base)
        enlarged = enlarge(base, [random_jump(rng, base)])
        if enumerate_extreme_points(enlarged.model.constraints).vertices:
            continue
        empty += 1
        report = verify_duality(enlarged.expand(payoff), enlarged.model)
        value = strategy_value(report.certificate, enlarged.model)
        assert report.certificate.cash == 0 and value == report.certificate_payoff
        assert all(value[a] > 0 for a in enlarged.model.allowed)
    assert empty >= 100


def test_detect_arbitrage_feasible(trinomial):
    report = detect_arbitrage(trinomial.model)
    assert report == ArbitrageReport(2) and report.to_json(trinomial.model) == {"feasible": True, "vertex_count": 2}


def test_disallowed_coordinates_unconstrained(trinomial):
    model = replace(trinomial.model, int_claims=(), allowed=frozenset({0, 2}))
    spike_on_m = (F(0), F(100), F(0))
    result = superhedge(spike_on_m, model)
    assert result.price == 0  # the excluded cell imposes no constraint
    assert robust_price(spike_on_m, model).value == 0


def test_detect_arbitrage_miscalibrated(trinomial):
    # claim S_1 + 1 has expectation 1 under every martingale measure
    model = replace(trinomial.model, int_claims=(((2, 1, 0), 1),))
    assert not enumerate_extreme_points(build_constraints(model)).vertices
    report = detect_arbitrage(model)
    assert report.vertex_count == 0 and report.to_json(model)["feasible"] is False
    assert report.certificate.cash == 0
    payoff = report.certificate_payoff
    assert all(payoff[a] >= 1 for a in model.allowed)


def test_detect_arbitrage_informed(informed_arbitrage):
    enlarged = enlarge(informed_arbitrage.model, informed_arbitrage.jumps)
    report = detect_arbitrage(enlarged.model)
    assert report.vertex_count == 0
    payoff = report.certificate_payoff
    assert report.certificate.cash == 0
    assert all(payoff[a] >= 1 for a in enlarged.model.allowed)
    # short two claims and long the stock on u: the floor program's basic point pays exactly 1 everywhere
    assert report.certificate == SemiStaticStrategy(F(0), (F(-2),), (F(1), F(0)))
    assert payoff == (F(1), F(1), F(1))


def test_unbounded_superhedge_signals_statics_arbitrage(informed_arbitrage):
    enlarged = enlarge(informed_arbitrage.model, informed_arbitrage.jumps)
    result = superhedge((F(0),) * enlarged.model.n_cells, enlarged.model)
    assert result.unbounded
    direction = strategy_payoff(result.strategy, enlarged.model)
    assert result.strategy.cash < 0
    assert all(direction[a] >= 0 for a in enlarged.model.allowed)


@pytest.mark.parametrize(
    "corrupt",
    [
        pytest.param(lambda ray: tuple(-x for x in ray), id="positive-cash"),
        pytest.param(lambda ray: (ray[0],) + (F(0),) * (len(ray) - 1), id="negative-payoff"),
    ],
)
def test_corrupted_arbitrage_ray_raises_invariant_violation(monkeypatch, informed_arbitrage, corrupt):
    model = enlarge(informed_arbitrage.model, informed_arbitrage.jumps).model
    payoff = (F(0),) * model.n_cells
    assert superhedge(payoff, model).unbounded
    solve = duality.solve_lp

    def corrupted(cost, matrix, rhs, free=0):
        result = solve(cost, matrix, rhs, free=free)
        return result._replace(ray=corrupt(result.ray))

    monkeypatch.setattr(duality, "solve_lp", corrupted)
    with pytest.raises(InvariantViolation, match="arbitrage ray"):
        superhedge(payoff, model)


def _recording_solve_lp(monkeypatch) -> list[tuple[int, set[int], int]]:
    """Replace the simplex seen by ``duality`` with one that logs (cost length, row lengths, free)."""
    calls = []
    solve = duality.solve_lp

    def recording(cost, matrix, rhs, free=0):
        calls.append((len(cost), {len(row) for row in matrix}, free))
        return solve(cost, matrix, rhs, free=free)

    monkeypatch.setattr(duality, "solve_lp", recording)
    return calls


def test_superhedge_has_one_column_per_strategy_coordinate(monkeypatch, trinomial):
    model = trinomial.model
    calls = _recording_solve_lp(monkeypatch)
    assert superhedge(trinomial.payoffs["abs_S1"], model).price == 1
    n_free, n_allowed = len(int_strategy_columns(model)), len(model.allowed)
    assert calls == [(n_free + n_allowed, {n_free + n_allowed}, n_free)]


def test_a_vertex_set_is_not_an_argument(trinomial_calibrated):
    # robust_price and detect_arbitrage enumerate the model's own vertices; a passed set was trusted unchecked
    model = trinomial_calibrated.model
    with pytest.raises(TypeError):
        detect_arbitrage(model, VertexSet((Measure((1,)),)))
    with pytest.raises(TypeError):
        robust_price(trinomial_calibrated.payoffs["abs_S1"], model, VertexSet(()))
    assert detect_arbitrage(model).vertex_count == len(enumerate_extreme_points(model.constraints).vertices)
    assert robust_price(trinomial_calibrated.payoffs["abs_S1"], model).value == F(1, 2)


def _corrupt_feasible_point(monkeypatch, corrupt):
    """``duality.feasible_point`` replaced by ``corrupt`` of the point it returns."""
    real = duality.feasible_point
    monkeypatch.setattr(duality, "feasible_point", lambda matrix, rhs, free: corrupt(real(matrix, rhs, free)))


@pytest.mark.parametrize(
    "corrupt",
    [
        # the floor point holds -1 in the claim's int column and 1 in gain 0's; without the gain u pays -1/2
        pytest.param(lambda point: (point[0], F(0), *point[2:]), id="zero-a-holding"),
        # without the claim, gain 0 alone pays 2 on u but 0 on m and d
        pytest.param(lambda point: (F(0), *point[1:]), id="zero-the-claim"),
        pytest.param(lambda point: tuple(-x for x in point), id="negated"),
        # the zero strategy pays 0 >= 0 everywhere, but no positive floor
        pytest.param(lambda point: (F(0),) * len(point), id="all-zero"),
    ],
)
@pytest.mark.parametrize("caller", [_phase1_certificate, detect_arbitrage])
def test_a_corrupted_floor_point_fails_the_certificate_check(monkeypatch, informed_arbitrage, corrupt, caller):
    model = enlarge(informed_arbitrage.model, informed_arbitrage.jumps).model
    assert model.int_gains and caller(model).vertex_count == 0
    _corrupt_feasible_point(monkeypatch, corrupt)
    with pytest.raises(InvariantViolation, match=CERTIFICATE_MISSING):
        caller(model)


def test_the_check_judges_the_returned_strategy_not_the_point(monkeypatch, informed_arbitrage):
    # a strategy built wrong from the right point must fail: the payoff is recomputed from what is returned
    model = enlarge(informed_arbitrage.model, informed_arbitrage.jumps).model
    real = SemiStaticStrategy.from_coordinates

    def without_dynamic(values, model):
        strategy = real(values, model)
        return strategy._replace(dynamic=(F(0),) * len(strategy.dynamic))

    monkeypatch.setattr(SemiStaticStrategy, "from_coordinates", without_dynamic)
    with pytest.raises(InvariantViolation, match=CERTIFICATE_MISSING):
        _phase1_certificate(model)


def test_a_certificate_that_costs_cash_fails_the_check(informed_arbitrage):
    # one unit more cash keeps every recomputed payoff positive, but the strategy is no longer free
    model = enlarge(informed_arbitrage.model, informed_arbitrage.jumps).model
    certificate = _phase1_certificate(model).certificate
    with pytest.raises(InvariantViolation, match=CERTIFICATE_MISSING):
        duality._checked_certificate(certificate._replace(cash=F(1)), model)


def test_a_model_with_measures_has_no_phase1_certificate(trinomial):
    assert enumerate_extreme_points(trinomial.model.constraints).vertices
    with pytest.raises(InvariantViolation, match=CERTIFICATE_MISSING):
        _phase1_certificate(trinomial.model)


def test_the_phase1_certificate_exists_exactly_on_the_empty_measure_sets():
    # random models (each has a calibrated measure) and single-jump enlargements, some of them empty
    rng = random.Random(3700)
    empty = 0
    for _ in range(300):
        base, _ = random_model(rng)
        for model in (base, enlarge(base, [random_jump(rng, base)]).model):
            is_empty = not enumerate_extreme_points(model.constraints).vertices
            empty += is_empty
            if not is_empty:
                with pytest.raises(InvariantViolation, match=CERTIFICATE_MISSING):
                    _phase1_certificate(model)
                continue
            report = _phase1_certificate(model)
            value = strategy_payoff(report.certificate, model)
            assert report.certificate.cash == 0 and value == report.certificate_payoff
            assert all(value[a] > 0 for a in model.allowed)
    assert empty >= 50


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_strong_duality_random(seed):
    rng = random.Random(seed)
    model, _ = random_model(rng)
    payoff = random_payoff(rng, model)
    primal = superhedge(payoff, model)
    dual = robust_price(payoff, model)
    assert primal.price == dual.value
    tight = set(primal.tight)
    assert all(a in tight for m in dual.argmax for a in m.support)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_monotonicity(seed):
    rng = random.Random(seed)
    model, _ = random_model(rng)
    low = random_payoff(rng, model)
    bump = [F(rng.randint(0, 2)) for _ in range(model.n_cells)]
    high = tuple(a + b for a, b in zip(low, bump))
    assert superhedge(low, model).price <= superhedge(high, model).price
    assert robust_price(low, model).value <= robust_price(high, model).value


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_replication_collapse(seed):
    # the payoff of any explicit strategy prices at exactly its cash leg
    rng = random.Random(seed)
    model, _ = random_model(rng)
    from semistatic.hedging import SemiStaticStrategy

    cash = F(rng.randint(-3, 3))
    static = tuple(F(rng.randint(-2, 2)) for _ in model.int_claims)
    dynamic = tuple(F(rng.randint(-2, 2)) for _ in model.int_gains)
    strategy = SemiStaticStrategy(cash, static, dynamic)
    payoff = strategy_payoff(strategy, model)
    assert superhedge(payoff, model).price == cash
    assert robust_price(payoff, model).value == cash


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_weak_duality_via_feasible_mixtures(seed):
    from semistatic.sampling import random_mixture

    rng = random.Random(seed)
    model, _ = random_model(rng)
    vertex_set = enumerate_extreme_points(build_constraints(model))
    payoff = random_payoff(rng, model)
    price = superhedge(payoff, model).price
    mixture = random_mixture(rng, vertex_set)
    assert mixture.expectation(payoff) <= price


def assert_matches_full_scan(payoff, model):
    """``verify_duality`` against ``superhedge`` plus the full vertex scan of ``robust_price``."""
    primal = superhedge(payoff, model)
    scan = robust_price(payoff, model)
    tight = set(primal.tight)
    report = verify_duality(payoff, model)
    assert report.primal == primal.price
    assert report.dual == scan.value
    assert report.argmax == scan.argmax
    assert report.tight == primal.tight
    assert report.slackness_ok == all(a in tight for m in scan.argmax for a in m.support)
    assert optimal_face(payoff, model)[1] == scan
    return report


def test_face_matches_full_scan_on_random_models():
    with_claims = with_disallowed = 0
    for seed in range(150):
        rng = random.Random(f"face-{seed}")
        model, _ = random_model(rng, max_atoms=10)
        with_claims += bool(model.int_claims)
        with_disallowed += len(model.allowed) < model.n_cells
        for _ in range(2):
            assert assert_matches_full_scan(random_payoff(rng, model), model).ok
    assert with_claims > 50 and with_disallowed > 10


@pytest.mark.parametrize("b, horizon, ties", [(4, 2, 3), (5, 2, 37), (3, 3, 4), (6, 2, 7)])
def test_face_matches_full_scan_on_ladder(b, horizon, ties):
    model = ladder_model(b, horizon)
    payoff = tuple(abs(fraction_prices(model)[0][horizon][cell[0]]) for cell in model.terminal_cells)
    report = assert_matches_full_scan(payoff, model)
    assert report.ok and len(report.argmax) == ties


def test_price_on_empty_measure_set_is_minus_infinity(informed_arbitrage):
    model = enlarge(informed_arbitrage.model, informed_arbitrage.jumps).model
    payoff = (F(0),) * model.n_cells
    primal, dual = optimal_face(payoff, model)
    assert primal.unbounded and dual.empty and dual.argmax == ()
    assert dual == robust_price(payoff, model)


@pytest.mark.parametrize("shift", [-1, 1])
def test_wrong_superhedge_cash_shows_as_a_gap(monkeypatch, capsys, trinomial, shift):
    # superhedge checks its tight cells before it returns; a cash changed after that leaves the face
    # on the tight cells the LP found, whose vertices price the claim right, so the gap is the shift
    solve = duality.superhedge

    def shifted_cash(payoff, model):
        result = solve(payoff, model)
        strategy = result.strategy._replace(cash=result.strategy.cash + shift)
        return result._replace(price=result.price + shift, strategy=strategy)

    monkeypatch.setattr(duality, "superhedge", shifted_cash)
    report = verify_duality(trinomial.payoffs["abs_S1"], trinomial.model)
    assert report.gap == shift and not report.ok
    assert cli.main(["--format", "json", "duality", "--payoff", "abs_S1", str(scenario_path("trinomial"))]) == 1
    assert json.loads(capsys.readouterr().out)["result"]["gap"] == str(shift)


def test_tight_set_missing_a_face_cell_empties_the_face(monkeypatch, capsys, trinomial):
    # the face is enumerated on the tight cells superhedge returns: without a charged cell it has no vertex
    solve = duality.superhedge
    payoff = trinomial.payoffs["abs_S1"]
    charged = verify_duality(payoff, trinomial.model).argmax[0].support[0]

    def drops_a_cell(payoff, model):
        result = solve(payoff, model)
        return result._replace(tight=tuple(a for a in result.tight if a != charged))

    monkeypatch.setattr(duality, "superhedge", drops_a_cell)
    with pytest.raises(InvariantViolation, match="tight face must be nonempty"):
        verify_duality(payoff, trinomial.model)
    assert cli.main(["--format", "json", "duality", "--payoff", "abs_S1", str(scenario_path("trinomial"))]) == 1
    assert "tight face must be nonempty" in json.loads(capsys.readouterr().out)["error"]
