"""The model's int tables against Fraction references kept here.

``FilteredModel.int_gains`` and ``int_claims`` hold the gain and claim
vectors as int rows with positive scales; the constraint rows, the simplex
columns of ``superhedge``, the phase-1 rows of ``detect_arbitrage``,
strategy payoffs, conditional means and vertex measures are all built on
them.  Each test below recomputes the same object the Fraction way, as the
engine did before the tables, on ``tests/test_layout.py``'s models, on a
copy of each with fractional prices and claims, on one-jump enlargements of
all of these, and on the bundled scenarios.
"""

import json
import random
from dataclasses import replace
from fractions import Fraction
from itertools import product
from math import gcd, lcm

import pytest

from semistatic import cli, duality, polytope
from semistatic.duality import _tight_cells, detect_arbitrage, superhedge
from semistatic.enlargement import enlarge
from semistatic.errors import InputError, NotCalibrated
from semistatic.hedging import CompletenessReport, SemiStaticStrategy, is_semistatically_complete, strategy_payoff
from semistatic.model import Measure, condexp_groups
from semistatic.polytope import enumerate_extreme_points
from semistatic.rationals import fmt
from semistatic.sampling import random_jump, random_measure, random_model
from semistatic.scenario import load_scenario
from semistatic.simplex import phase1_dual, solve_lp
from tests.conftest import SCENARIOS
from tests.reference import gains as _reference_gains, int_rows, row_coeffs, strategy_columns
from tests.test_layout import MODELS
from tests.test_polytope import ladder_steps

F = Fraction
ZERO = F(0)


def _fractional(model, rng):
    """The model with asset j's time-k prices times a positive rational and each claim times another."""
    factors = [[F(rng.randint(1, 7), rng.randint(1, 9)) for _ in model.times] for _ in model.prices]
    prices = tuple(
        tuple(tuple(f * x for x in slice_k) for f, slice_k in zip(fs, path)) for fs, path in zip(factors, model.prices)
    )
    claims = tuple(tuple(F(1, rng.randint(2, 6)) * x for x in claim) for claim in model.claims)
    return replace(model, prices=prices, claims=claims)


def _corpus():
    rng = random.Random(2021)
    named = [(name, model) for name, model in MODELS]
    named += [(f"{name}-fractional", _fractional(model, rng)) for name, model in MODELS]
    named += [(path.stem, load_scenario(path).model) for path in sorted(SCENARIOS.glob("*.json"))]
    named += [(f"{name}-jump", enlarge(model, [random_jump(rng, model)]).model) for name, model in named]
    return named


CORPUS = _corpus()


@pytest.fixture(params=[m for _, m in CORPUS], ids=[name for name, _ in CORPUS])
def model(request):
    return request.param


def _positive_multiple(row, reference):
    """Whether ``row`` is ``m * reference`` for some m > 0, with both int rows."""
    k = next((i for i, x in enumerate(reference) if x), None)
    if k is None:
        return not any(row)
    return row[k] * reference[k] > 0 and [row[k] * x for x in reference] == [reference[k] * x for x in row]


def test_int_gain_rows_are_the_scaled_price_differences(model):
    reference = _reference_gains(model)
    assert [label for label, _, _ in model.int_gains] == [label for label, _ in reference]
    for (_, row, scale), (_, vec) in zip(model.int_gains, reference):
        assert type(scale) is int and scale > 0
        assert all(type(x) is int for x in row)
        assert [F(x, scale) for x in row] == list(vec)


def test_int_claim_rows_are_the_scaled_claims(model):
    assert len(model.int_claims) == len(model.claims)
    for (row, scale), claim in zip(model.int_claims, model.claims):
        assert all(type(x) is int for x in row) and type(scale) is int and scale > 0
        assert tuple(F(x, scale) for x in row) == tuple(claim)


def test_normals_are_positive_multiples_of_the_fraction_rows(model):
    cs = model.constraints
    reference = [vec for _, vec in _reference_gains(model)]
    reference += [tuple(claim) for claim in model.claims]
    assert len(cs.rows) == len(reference)
    for row, fractions in zip(cs.rows, reference):
        assert _positive_multiple(list(row.normal), int_rows([fractions])[0])
        assert row_coeffs(row) == fractions
    face = replace(cs, allowed=frozenset(sorted(model.allowed)[:1]))
    assert face.rows is cs.rows


def _reference_condexp(payoff, groups, weights):
    result = [ZERO] * len(payoff)
    for group in groups:
        mass = sum((weights[a] for a in group), ZERO)
        if mass == 0:
            continue
        mean = sum((weights[a] * payoff[a] for a in group), ZERO) / mass
        for a in group:
            result[a] = mean
    return tuple(result)


def test_condexp_groups_matches_the_fraction_loop(model):
    rng = random.Random(model.n_cells)
    values = [F(0), F(1), F(-2), F(3, 4), F(-5, 3), F(7, 2)]
    nulls = 0
    for _ in range(4):
        weights = random_measure(rng, model).weights
        payoff = tuple(rng.choice(values) for _ in range(model.n_cells))
        for groups in model.coarse_groups:
            nulls += sum(all(weights[a] == 0 for a in group) for group in groups)
            assert condexp_groups(payoff, groups, weights) == _reference_condexp(payoff, groups, weights)
    if len(model.allowed) < model.n_cells:
        assert nulls


def test_condexp_groups_is_zero_on_null_groups():
    weights = (F(1, 3), F(2, 3), ZERO, ZERO)
    payoff = (F(1, 2), F(2), F(5), F(-7))
    groups = [(0, 1), (2, 3)]
    assert condexp_groups(payoff, groups, weights) == (F(3, 2), F(3, 2), ZERO, ZERO)
    assert condexp_groups(payoff, groups, weights) == _reference_condexp(payoff, groups, weights)


def test_vertices_equal_the_fraction_measures(model):
    for vertex in enumerate_extreme_points(model.constraints).vertices:
        reference = Measure(vertex.weights)
        assert vertex == reference and vertex.support == reference.support
        t = lcm(*(x.denominator for x in vertex.weights))
        built = Measure.from_ints([x.numerator * (t // x.denominator) for x in vertex.weights], t)
        assert built == reference and built.support == reference.support
        assert all(type(x) is Fraction for x in built.weights)
        for measure in (vertex, reference, built):  # the int form each constructor keeps
            assert measure.scale > 0 and list(measure.numerators) == [x * measure.scale for x in measure.weights]


def test_ray_constructor_checks_sign_and_sum():
    assert Measure.from_ints([0, 2, 0, 1], 3) == Measure((ZERO, F(2, 3), ZERO, F(1, 3)))
    assert Measure.from_ints([0, 2, 0, 1], 3).support == (1, 3)
    for numerators, scale, message in [
        ([2, -1, 2], 3, "nonnegative"),
        ([1, 1, 0], 3, "sum to exactly 1"),
        ([0, 0], 0, "sum to exactly 1"),
        ([-1, -1], -2, "nonnegative"),
    ]:
        with pytest.raises(InputError, match=message):
            Measure.from_ints(numerators, scale)
    for numerators, scale in [([0.0, 1], 1), ([True, 0], 1), ([F(1), 1], 2), ([1, 1], 2.0)]:
        with pytest.raises(TypeError, match="must be int"):
            Measure.from_ints(numerators, scale)


@pytest.mark.parametrize("numerators", [[2, 2, 0], [2, 0, 2]], ids=["uncalibrated", "vertex"])
def test_an_int_form_not_in_lowest_terms_gives_the_same_answers(trinomial, numerators):
    # a measure keeps its int form in lowest terms, so 2/4 is stored as 1/2 by either constructor
    model = trinomial.model
    scaled, reduced = Measure.from_ints(numerators, 4), Measure(tuple(F(x, 4) for x in numerators))
    assert (scaled.numerators, scaled.scale) == (tuple(x // 2 for x in numerators), 2) and reduced.scale == 2
    assert scaled == reduced
    assert polytope.member(scaled, model.constraints) == polytope.member(reduced, model.constraints)
    payoff = (F(1, 3), F(-2), F(5, 7))
    assert duality._scan_vertices(payoff, [scaled]) == duality._scan_vertices(payoff, [reduced])
    groups = model.coarse_groups[0]
    assert condexp_groups(payoff, groups, scaled.numerators) == condexp_groups(payoff, groups, reduced.numerators)
    complete = []
    for measure in (scaled, reduced):
        try:
            complete.append(is_semistatically_complete(measure, model))
        except NotCalibrated as exc:
            complete.append(str(exc))
    assert complete[0] == complete[1]
    assert complete[0] == (
        CompletenessReport(True, 2, 2) if numerators[2] else "measure is not a calibrated martingale measure"
    )


def test_an_int_built_measure_holds_no_weights_until_read():
    measure = Measure.from_ints([0, 4, 0, 2], 6)
    assert "weights" not in vars(measure)
    assert measure.expectation((F(1, 2), F(3), F(7), F(-1, 5))) == F(29, 15)
    assert measure == Measure.from_ints([0, 2, 0, 1], 3) and "weights" not in vars(measure)
    weights = measure.weights
    assert weights == (ZERO, F(2, 3), ZERO, F(1, 3)) and all(type(x) is Fraction for x in weights)
    assert vars(measure)["weights"] is weights and measure.weights is weights  # built once, then kept


def test_equality_and_hash_agree_across_the_constructors():
    cases = [([0, 2, 0, 1], 3), ([1, 1], 2), ([5], 5), ([0, 0, 7, 0], 7), ([3, 1, 2, 0], 6)]
    for numerators, scale in cases:
        built = [
            Measure.from_ints(numerators, scale),
            Measure.from_ints([4 * x for x in numerators], 4 * scale),  # not in lowest terms
            Measure(tuple(F(x, scale) for x in numerators)),
            Measure([F(x, scale) if x % scale else x // scale for x in numerators]),  # ints and a list
        ]
        assert all(m == built[0] for m in built) and len({hash(m) for m in built}) == 1
        assert len(set(built)) == 1
        for other_numerators, other_scale in cases:
            other = Measure.from_ints(other_numerators, other_scale)
            assert (other == built[0]) == ((other_numerators, other_scale) == (numerators, scale))
    assert Measure.from_ints([1, 0], 1) != Measure.from_ints([1, 0, 0], 1)
    assert Measure.from_ints([1, 1], 2) != (F(1, 2), F(1, 2))


def test_informed_compare_reads_no_weights(monkeypatch, capsys):
    # the vertices and their coinciding lifts are sorted and compared as int forms, so none builds its weights
    built = []
    from_ints = Measure.from_ints.__func__

    def spy(cls, numerators, scale):
        built.append(from_ints(cls, numerators, scale))
        return built[-1]

    monkeypatch.setattr(Measure, "from_ints", classmethod(spy))
    for name in ("initial_enlargement", "informed_arbitrage", "jump_counterexample"):
        cli.main(["--format", "json", "informed-compare", str(SCENARIOS / f"{name}.json")])
    capsys.readouterr()
    assert built and [m for m in built if "weights" in vars(m)] == []


def _ladder_scenario(tmp_path, b, horizon):
    steps = ladder_steps(b)
    paths = list(product(range(b), repeat=horizon))
    prices = [[sum(steps[i] for i in path[:k]) for path in paths] for k in range(horizon + 1)]
    path = tmp_path / f"ladder_{b}_{horizon}.json"
    scenario = {
        "outcomes": ["p" + "".join(map(str, p)) for p in paths],
        "times": list(range(horizon + 1)),
        "prices": [prices],
        "payoffs": {"abs": [abs(x) for x in prices[-1]]},
    }
    path.write_text(json.dumps(scenario))
    return str(path)


def test_the_ladder_commands_read_no_vertex_weights(tmp_path, monkeypatch, capsys):
    # every vertex is built by from_ints, and such a measure keeps weights in its __dict__ only once they are read
    path = _ladder_scenario(tmp_path, 5, 2)
    built, reads = Measure.from_ints, []

    def spied(numerators, scale):
        measure = built(numerators, scale)
        reads.append(measure)
        return measure

    monkeypatch.setattr(Measure, "from_ints", staticmethod(spied))
    reports = []
    for argv in (["extremes", path], ["duality", "--payoff", "abs", path]):
        assert cli.main(["--format", "json", *argv]) == 0
        reports.append(json.loads(capsys.readouterr().out)["result"])
    assert reports[0]["count"] == 105 and len(reports[1]["argmax"]) == 37
    assert len(reads) >= 105 + 37
    assert not [m for m in reads if "weights" in vars(m)]


def test_to_json_writes_the_weights_from_the_ints():
    models = [m for _, m in CORPUS]
    rng = random.Random(29)
    models += [random_model(rng)[0] for _ in range(200)]
    checked = 0
    for model in models:
        for vertex in enumerate_extreme_points(model.constraints).vertices:
            report = vertex.to_json(model)
            assert "weights" not in vars(vertex)
            labels = model.terminal_labels
            assert report == {"weights": [fmt(w) for w in vertex.weights], "support": [labels[a] for a in vertex.support]}
            checked += 1
    assert checked > 400


def _fraction_superhedge(payoff, model):
    """``superhedge``'s program on the Fraction columns of ``strategy_columns``, each row scaled to ints as a whole.

    The engine scales the columns and the payoff instead; a row scale
    changes no solution, so the two programs have the same answer.
    """
    vectors = [vec for _, vec in strategy_columns(model)]
    allowed = sorted(model.allowed)
    n_free = len(vectors)
    rows = []
    for slot, a in enumerate(allowed):
        surplus = [0] * len(allowed)
        surplus[slot] = -1
        rows.append([vec[a] for vec in vectors] + surplus + [payoff[a]])
    rows = int_rows(rows)
    cost = [1] + [0] * (n_free - 1 + len(allowed))
    return solve_lp(cost, [row[:-1] for row in rows], [row[-1] for row in rows], free=n_free), n_free, allowed


def test_superhedge_equals_the_fraction_program(model):
    rng = random.Random(len(model.outcomes) * 31 + model.n_cells)
    for _ in range(3):
        payoff = tuple(F(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(model.n_cells))
        reference, n_free, allowed = _fraction_superhedge(payoff, model)
        result = superhedge(payoff, model)
        coordinates = (result.strategy.cash, *result.strategy.static, *result.strategy.dynamic)
        if reference.status == "unbounded":
            assert result.unbounded and result.tight == ()
            assert coordinates == reference.ray[:n_free]
            continue
        assert result.price == reference.objective
        assert coordinates == reference.solution[:n_free]
        assert result.tight == tuple(a for slot, a in enumerate(allowed) if reference.solution[n_free + slot] == 0)
        assert _tight_cells(result.strategy, payoff, model) == result.tight


def test_the_corpus_has_unbounded_superhedges():
    # a superhedge is unbounded exactly when the measure set is empty; the ray readback needs such models
    empty = [name for name, m in CORPUS if not enumerate_extreme_points(m.constraints).vertices]
    assert len(empty) >= 5


def test_the_phase1_certificate_equals_the_fraction_program(model):
    # the certificate is a function of the Fraction rows: each gain and claim vector on the allowed cells, made
    # the primitive int row c * r (c > 0), gets the holding -c * y (0 on a zero row); the int scales are never read
    if enumerate_extreme_points(model.constraints).vertices:
        return
    vectors = [vec for _, vec in _reference_gains(model)] + [tuple(claim) for claim in model.claims]
    allowed = sorted(model.allowed)
    rows, factors = [], []
    for vec in vectors:
        (row,) = int_rows([[vec[a] for a in allowed]])
        g = gcd(*row)
        rows.append([x // g for x in row] if g else row)
        k = next((i for i, x in enumerate(row) if x), None)
        factors.append(ZERO if k is None else rows[-1][k] / vec[allowed[k]])
    y = phase1_dual(rows + [[1] * len(allowed)], [0] * len(rows) + [1])
    holdings = [-c * y_i for y_i, c in zip(y, factors)]
    n_gains = len(holdings) - len(model.claims)
    certificate = detect_arbitrage(model).certificate
    expected = (ZERO, *holdings[n_gains:], *holdings[:n_gains])
    assert (certificate.cash, *certificate.static, *certificate.dynamic) == expected


def _reference_payoff(strategy, model):
    coordinates = (strategy.cash, *strategy.static, *strategy.dynamic)
    value = [ZERO] * model.n_cells
    for h, (_, vec) in zip(coordinates, strategy_columns(model)):
        for a in range(model.n_cells):
            value[a] += h * vec[a]
    return tuple(value)


def test_strategy_payoff_matches_the_fraction_sum(model):
    rng = random.Random(model.n_cells + 7)
    values = [0, 0, 1, -2, F(3, 4), F(-5, 3)]
    n = len(strategy_columns(model))
    for _ in range(4):
        strategy = SemiStaticStrategy.from_coordinates([rng.choice(values) for _ in range(n)], model)
        payoff = strategy_payoff(strategy, model)
        assert payoff == _reference_payoff(strategy, model)
        assert all(type(x) is Fraction for x in payoff)
