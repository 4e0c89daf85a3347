import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semistatic.errors import EmptyMeasureSet, NotCalibrated, NotComplete, ShapeError
from semistatic.hedging import (
    NotReplicable,
    SemiStaticStrategy,
    decompose_unhedgeable,
    is_semistatically_complete,
    replicate,
    strategy_payoff,
)
from semistatic.polytope import build_constraints, enumerate_extreme_points
from semistatic.sampling import random_model
from semistatic.verify import _jacod_yor_checks, suite_jacod_yor
from tests.reference import conditional_expectation, gains as reference_gains, int_rows, strategy_columns
from tests.test_linalg import reference_project_onto_span, weighted_dot

F = Fraction


def _dynamic(model, entries):
    """Holdings on ``model.int_gains`` taken from ``entries`` keyed by (k, c, j), zero elsewhere."""
    return tuple(entries.get(label[1:], F(0)) for label, _, _ in model.int_gains)


def _gain_payoff(dynamic, model):
    """The terminal gain of the holdings: the payoff of the strategy with no cash and no static position."""
    return strategy_payoff(SemiStaticStrategy(F(0), (F(0),) * len(model.claims), tuple(dynamic)), model)


def test_terminal_gain_zero(trinomial):
    model = trinomial.model
    assert _gain_payoff(_dynamic(model, {}), model) == (F(0), F(0), F(0))


@pytest.mark.parametrize("extra", [-1, 1])
def test_terminal_gain_rejects_holdings_of_the_wrong_length(glued_two_vol, extra):
    model = glued_two_vol.model
    with pytest.raises(ShapeError):
        _gain_payoff((F(1),) * (len(model.int_gains) + extra), model)


def test_terminal_gain_unit_holding(trinomial):
    model = trinomial.model
    gains = _gain_payoff(_dynamic(model, {(1, 0, 0): F(1)}), model)
    assert gains == (F(1), F(0), F(-1))


def test_terminal_gain_two_period_masked(glued_two_vol):
    model = glued_two_vol.model
    # hold one unit over the second period on the high-move branch only
    gains = _gain_payoff(_dynamic(model, {(2, 0, 0): F(1)}), model)
    assert gains == (F(2), F(-2), F(0), F(0))


def test_span_columns_are_strategy_payoffs(trinomial_calibrated):
    # every column of the span is the payoff of an explicit semi-static strategy, and the span's rank is theirs
    from semistatic import linalg
    from semistatic.hedging import SemiStaticStrategy, hedging_span

    model = trinomial_calibrated.model
    q = model.measure(["1/4", "1/2", "1/4"])
    rank = hedging_span(model, q)
    columns = strategy_columns(model)
    for label, vec in columns:
        cash = F(1) if label[0] == "const" else F(0)
        static = [F(0)] * len(model.claims)
        if label[0] == "claim":
            static[label[1]] = F(1)
        dynamic = tuple(F(1) if gain == label else F(0) for gain, _ in reference_gains(model))
        strategy = SemiStaticStrategy(cash, tuple(static), dynamic)
        assert strategy_payoff(strategy, model) == vec
    assert rank == linalg.rank(int_rows([vec[a] for a in q.support] for _, vec in columns)) == 3


def test_completeness_examples(trinomial, trinomial_calibrated):
    model = trinomial.model
    assert is_semistatically_complete(model.measure(["1/2", "0", "1/2"]), model).complete
    report = is_semistatically_complete(model.measure(["1/4", "1/2", "1/4"]), model)
    assert not report.complete and report.rank == 2 and report.support_size == 3
    calibrated = trinomial_calibrated.model
    assert is_semistatically_complete(calibrated.measure(["1/4", "1/2", "1/4"]), calibrated).complete


def test_completeness_requires_calibration(trinomial):
    with pytest.raises(NotCalibrated):
        is_semistatically_complete(trinomial.model.measure(["1", "0", "0"]), trinomial.model)


def test_replicate_claim_itself(trinomial_calibrated):
    model = trinomial_calibrated.model
    q = model.measure(["1/4", "1/2", "1/4"])
    strategy = replicate(model.claims[0], q, model)
    assert strategy_payoff(strategy, model) == model.claims[0]


def test_replicate_indicator(trinomial_calibrated):
    model = trinomial_calibrated.model
    q = model.measure(["1/4", "1/2", "1/4"])
    strategy = replicate((F(0), F(1), F(0)), q, model)
    assert strategy.cash == F(1, 2)
    assert strategy.static == (F(-1),)
    assert strategy.dynamic == (F(0),)


@pytest.mark.parametrize("static", [(F(1), F(1)), ()], ids=["one-extra", "none"])
def test_strategy_payoff_rejects_static_positions_of_the_wrong_length(trinomial_calibrated, static):
    # one claim: an extra position has no claim to pay, and a missing one must not count as zero
    model = trinomial_calibrated.model
    strategy = SemiStaticStrategy(F(0), static, (F(0),) * len(model.int_gains))
    with pytest.raises(ShapeError, match=f"static positions: got {len(static)}, expected 1"):
        strategy_payoff(strategy, model)


@pytest.mark.parametrize("count", [2, 4], ids=["one too few", "one too many"])
def test_from_coordinates_rejects_a_coordinate_count_off_the_columns(trinomial_calibrated, count):
    model = trinomial_calibrated.model
    assert len(strategy_columns(model)) == 3
    strategy = SemiStaticStrategy.from_coordinates([F(1), F(2), F(3)], model)
    assert (strategy.cash, strategy.static, strategy.dynamic) == (F(1), (F(2),), (F(3),))
    with pytest.raises(ShapeError, match=f"strategy coordinates: got {count}, expected 3"):
        SemiStaticStrategy.from_coordinates([F(0)] * count, model)


def test_replicate_failure_residual(trinomial):
    model = trinomial.model
    q = model.measure(["1/4", "1/2", "1/4"])
    outcome = replicate((F(0), F(1), F(0)), q, model)
    assert isinstance(outcome, NotReplicable)
    assert outcome.residual == (F(-1, 2), F(1, 2), F(-1, 2))
    # residual is Q-orthogonal to the span
    for vec in [(F(1), F(1), F(1)), (F(1), F(0), F(-1))]:
        assert weighted_dot(outcome.residual, vec, q.weights) == 0


def test_replicate_residual_at_vertex_midpoints():
    """A midpoint of two vertices is not extreme, hence not complete: replication leaves a residual.

    The residual is the payoff minus its Q-weighted projection onto the
    hedging span on the support (by the Fraction reference), and 0 off it.
    """
    rng = random.Random(2015)
    residuals = 0
    for _ in range(400):
        model, _ = random_model(rng)
        vertices = enumerate_extreme_points(build_constraints(model)).vertices
        if len(vertices) < 2:
            continue
        u, v = rng.sample(vertices, 2)
        q = model.measure([(a + b) / 2 for a, b in zip(u.weights, v.weights)])
        payoff = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(model.n_cells)]
        outcome = replicate(payoff, q, model)
        if not isinstance(outcome, NotReplicable):
            produced = strategy_payoff(outcome, model)
            assert all(produced[a] == payoff[a] for a in q.support)
            continue
        vectors = [[vec[a] for a in q.support] for _, vec in strategy_columns(model)]
        weights = [q.weights[a] for a in q.support]
        projection = reference_project_onto_span([payoff[a] for a in q.support], vectors, weights)
        expected = [F(0)] * model.n_cells
        for a, p in zip(q.support, projection):
            expected[a] = payoff[a] - p
        assert outcome.residual == tuple(expected)
        residuals += 1
        if residuals == 100:
            break
    assert residuals == 100


def test_verify_jacod_yor_scenarios(trinomial, binomial, trinomial_calibrated):
    for scenario in (trinomial, binomial, trinomial_calibrated):
        assert all(c is None for c in _jacod_yor_checks(scenario.model, random.Random(0), 0))


def test_a_jacod_yor_instance_enumerates_the_vertices_once(monkeypatch):
    # every package module that imported the enumeration counts through one wrapper
    original, calls = enumerate_extreme_points, []

    def counted(cs):
        calls.append(cs)
        return original(cs)

    for module in [m for name, m in sys.modules.items() if name == "semistatic" or name.startswith("semistatic.")]:
        if getattr(module, "enumerate_extreme_points", None) is original:
            monkeypatch.setattr(module, "enumerate_extreme_points", counted)
    for n_models in (1, 4):
        calls.clear()
        assert suite_jacod_yor(n_models=n_models)["ok"]
        assert len(calls) == n_models


def test_verify_jacod_yor_empty(informed_arbitrage):
    from semistatic.enlargement import enlarge

    enlarged = enlarge(informed_arbitrage.model, informed_arbitrage.jumps)
    with pytest.raises(EmptyMeasureSet):
        next(_jacod_yor_checks(enlarged.model, random.Random(0), 0))


def test_decompose_no_claims(trinomial):
    model = trinomial.model
    q = model.measure(["1/2", "0", "1/2"])
    decomposition = decompose_unhedgeable(q, model)
    assert decomposition.residual_terminals == ()
    assert decomposition.blocks == ()


def test_decompose_requires_completeness(trinomial):
    model = trinomial.model
    with pytest.raises(NotComplete):
        decompose_unhedgeable(model.measure(["1/4", "1/2", "1/4"]), model)


def test_decompose_calibrated_trinomial(trinomial_calibrated):
    model = trinomial_calibrated.model
    q = model.measure(["1/4", "1/2", "1/4"])
    decomposition = decompose_unhedgeable(q, model)
    # psi is orthogonal to the single gain, so the residual is psi itself
    assert decomposition.residual_terminals == (model.claims[0],)
    assert len(decomposition.blocks) == 1
    block = decomposition.blocks[0]
    assert block.time == 1 and block.atom_cells == (0,)


def test_decompose_glued_block(glued_two_vol):
    model = glued_two_vol.model
    q = enumerate_extreme_points(build_constraints(model)).vertices[0]
    decomposition = decompose_unhedgeable(q, model)
    assert [b.time for b in decomposition.blocks] == [1]
    residual = decomposition.residual_terminals[0]
    martingales = [conditional_expectation(model, residual, k, q) for k in range(model.horizon + 1)]
    # residual vanishes at time 0 and is constant from the jump on
    assert all(x == 0 for x in martingales[0])
    assert martingales[1] == martingales[2] == decomposition.residual_terminals[0]


def test_decompose_jump_counterexample(jump_counterexample):
    model = jump_counterexample.model
    q = enumerate_extreme_points(build_constraints(model)).vertices[0]
    decomposition = decompose_unhedgeable(q, model)
    assert [b.time for b in decomposition.blocks] == [2]
    block = decomposition.blocks[0]
    # carried by the no-jump cell of P_1 only
    cells = model.partitions[1].cells
    assert [cells[c] for c in block.atom_cells] == [(1, 2, 3, 4)]
    v = decomposition.residual_terminals[0]
    assert v[0] == 0 and v[1] == F(72, 35) and v[2] == F(12, 35) and v[3] == F(-48, 35)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**6))
def test_gain_expectation_zero(seed):
    rng = random.Random(seed)
    model, reference = random_model(rng)
    dynamic = tuple(F(rng.randint(-2, 2)) for _ in model.int_gains)
    gains = _gain_payoff(dynamic, model)
    vs = enumerate_extreme_points(build_constraints(model))
    for v in vs.vertices:
        assert v.expectation(gains) == 0
    assert reference.expectation(gains) == 0


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_replication_soundness(seed):
    rng = random.Random(seed)
    model, _ = random_model(rng)
    vs = enumerate_extreme_points(build_constraints(model))
    q = vs.vertices[rng.randrange(len(vs.vertices))]
    payoff = tuple(F(rng.randint(-3, 3)) for _ in range(model.n_cells))
    outcome = replicate(payoff, q, model)
    if isinstance(outcome, NotReplicable):
        pytest.skip("vertex measures are complete; replication cannot fail")
    produced = strategy_payoff(outcome, model)
    for a in q.support:
        assert produced[a] == payoff[a]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_equivalence_on_random_models(seed):
    rng = random.Random(seed)
    model, _ = random_model(rng)
    assert all(c is None for c in _jacod_yor_checks(model, rng, 0))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_residual_orthogonality_and_martingale(seed):
    rng = random.Random(seed)
    model, _ = random_model(rng, n_claims=2)
    cs = build_constraints(model)
    vs = enumerate_extreme_points(cs)
    q = vs.vertices[rng.randrange(len(vs.vertices))]
    decomposition = decompose_unhedgeable(q, model)
    gains = [vec for _, vec in reference_gains(model)]
    for i, residual in enumerate(decomposition.residual_terminals):
        for g in gains:
            assert weighted_dot(residual, g, q.weights) == 0
        marts = [conditional_expectation(model, residual, k, q) for k in range(model.horizon + 1)]
        for k in range(model.horizon):
            step = conditional_expectation(model, marts[k + 1], k, q)
            for a in q.support:
                assert step[a] == marts[k][a]
    for block in decomposition.blocks:
        for vec in block.vectors:
            if block.time >= 1:
                prior = conditional_expectation(model, vec, block.time - 1, q)
                assert all(prior[a] == 0 for a in q.support)
            later = conditional_expectation(model, vec, block.time, q)
            for a in q.support:
                assert later[a] == vec[a]
