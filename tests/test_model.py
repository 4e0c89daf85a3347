import random
import re
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semistatic.duality import robust_price, superhedge, verify_duality
from semistatic.enlargement import SingleJump, azema, compensator, enlarge, filtrations_coincide, jeulin_yor
from semistatic.errors import InputError, ShapeError
from semistatic.hedging import SemiStaticStrategy, hedging_span, is_semistatically_complete, replicate, strategy_payoff
from semistatic.model import (
    FilteredModel,
    Measure,
    Partition,
    condexp_groups,
    natural_filtration,
    validate_model,
)
from semistatic.polytope import enumerate_extreme_points, is_extreme, member
from semistatic.sampling import random_measure, random_model, random_payoff
from semistatic.tree import (
    AtomicTree,
    TreeNode,
    check_theorem_conditions,
    extract_tree,
    is_full,
    validate_atomic_tree,
)
from tests.reference import conditional_expectation, row_coeffs
from tests.test_layout import MODELS

F = Fraction
ROOT = AtomicTree([TreeNode((0, 1, 2), 0)])
JUMP = SingleJump((1, None, None), (F(1), 0, 0))


def test_validate_binomial(binomial):
    assert validate_model(binomial.model).ok


def test_validate_flags_non_adapted():
    prices = ((  # S_1 not constant on the trivial partition
        (F(0), F(0)),
        (F(1), F(-1)),
    ),)
    model = FilteredModel(
        outcomes=("u", "d"),
        times=(F(0), F(1)),
        partitions=(Partition([[0, 1]]), Partition([[0, 1]])),
        prices=prices,
        claims=(),
        allowed=frozenset({0}),
    )
    report = validate_model(model)
    assert any(v.code == "adapted" for v in report.violations)


def test_validate_flags_refinement_failure():
    prices = (((F(0), F(0)), (F(0), F(0))),)
    model = FilteredModel(
        outcomes=("u", "d"),
        times=(F(0), F(1)),
        partitions=(Partition([[0], [1]]), Partition([[0, 1]])),
        prices=prices,
        claims=(),
        allowed=frozenset({0}),
    )
    report = validate_model(model)
    assert any(v.code == "refinement" for v in report.violations)


@pytest.mark.parametrize("outside", [99, -1, 0.5, True, "0"])
def test_cell_label_rejects_an_outcome_outside_the_model(trinomial, outside):
    model = trinomial.model
    assert model.cell_label((2, 0)) == "u|d"
    message = "outside 0..2" if type(outside) is int else "is not an int"
    with pytest.raises(ShapeError, match=re.escape(f"outcome index {outside!r} {message}")):
        model.cell_label((0, outside))


@pytest.mark.parametrize("outside", [99, -1])
def test_validate_flags_a_cell_naming_an_outcome_outside_the_model(outside):
    # P_1 = {a}, {b, outside}, {c}: the foreign index is a partition violation, and the
    # adaptedness check of that cell reads no price at it (index -1 would read c's)
    model = FilteredModel(
        outcomes=("a", "b", "c"),
        times=(F(0), F(1)),
        partitions=(Partition([[0, 1, 2]]), Partition([[0], [1, outside], [2]])),
        prices=(((F(0), F(0), F(0)), (F(1), F(0), F(-1))),),
        claims=(),
        allowed=frozenset({0, 1, 2}),
    )
    report = validate_model(model)
    assert [(v.code, v.where, v.message) for v in report.violations] == [
        ("partition", "P_1", f"cell names outcome index {outside} outside 0..2"),
        ("refinement", "P_1", "P_1 does not refine P_0"),
    ]


@pytest.mark.parametrize("cells", [[[0], [True], [2]], [[0], [True, 2]]], ids=["own-cell", "shared-cell"])
def test_validate_flags_a_bool_outcome_index(cells):
    # True == 1, so the cells cover 0..2 as a set; True is still no outcome's index, a partition violation,
    # and the adaptedness check builds no label from it (S_1 differs on b and c)
    model = FilteredModel(
        outcomes=("a", "b", "c"),
        times=(F(0), F(1)),
        partitions=(Partition([[0, True, 2]]), Partition(cells)),
        prices=(((F(0), F(0), F(0)), (F(1), F(0), F(-1))),),
        claims=(),
        allowed=frozenset({0, 1}),  # a terminal cell index for either P_1
    )
    assert [(v.code, v.where, v.message) for v in validate_model(model).violations] == [
        ("partition", f"P_{k}", "cell names outcome index True that is not an int") for k in (0, 1)
    ]


def _three_outcomes(partitions, claims=(), allowed=(0, 1, 2)) -> FilteredModel:
    """Outcomes a, b, c on one period with zero prices, which are constant on any cells."""
    return FilteredModel(
        outcomes=("a", "b", "c"),
        times=(F(0), F(1)),
        partitions=tuple(Partition(cells) for cells in partitions),
        prices=(((F(0),) * 3, (F(0),) * 3),),
        claims=claims,
        allowed=frozenset(allowed),
    )


SINGLETONS = [[[0, 1, 2]], [[0], [1], [2]]]


@pytest.mark.parametrize(
    "model, violation",
    [
        (
            _three_outcomes([[[0, 1, 2]], [[0, 1], [1, 2]]], allowed=(0, 1)),
            ("partition", "P_1", "cells are not disjoint"),
        ),
        (_three_outcomes([[[0, 1, 0, 2]], SINGLETONS[1]]), ("partition", "P_0", "a cell lists an outcome twice")),
        (
            _three_outcomes(SINGLETONS, claims=((F(1),),)),
            ("claim", "claim 0", "payoff length must match terminal cells"),
        ),
        (_three_outcomes(SINGLETONS, allowed=(0, 1, 2, 5)), ("priors", "allowed", "unknown terminal cell index 5")),
    ],
    ids=["overlapping-cells", "repeated-outcome", "short-claim", "unknown-allowed-cell"],
)
def test_validate_flags_each_structural_violation(model, violation):
    assert [(v.code, v.where, v.message) for v in validate_model(model).violations] == [violation]


def test_natural_filtration_trinomial(trinomial):
    partitions = natural_filtration(trinomial.model.prices)
    assert partitions[0].cells == ((0, 1, 2),)
    assert partitions[1].cells == ((0,), (1,), (2,))


def test_natural_filtration_constant_price():
    prices = (((F(0),) * 3, (F(0),) * 3, (F(0),) * 3),)
    assert all(p.cells == ((0, 1, 2),) for p in natural_filtration(prices))


def test_natural_filtration_groups_by_prefix():
    # two-period recombining values (0; 1,-1; 0,0): terminal value equal but paths differ
    prices = (((F(0), F(0)), (F(1), F(-1)), (F(0), F(0))),)
    partitions = natural_filtration(prices)
    assert partitions[0].cells == ((0, 1),)
    assert partitions[1].cells == ((0,), (1,))
    assert partitions[2].cells == ((0,), (1,))


def test_conditional_expectation_examples(trinomial):
    model = trinomial.model
    q = model.measure([F(1, 4), F(1, 2), F(1, 4)])
    x = (F(1), F(0), F(-1))
    assert condexp_groups(x, model.coarse_groups[0], q.numerators) == (F(0), F(0), F(0))
    assert condexp_groups(x, model.coarse_groups[1], q.numerators) == x
    ones = (F(1), F(1), F(1))
    assert condexp_groups(ones, model.coarse_groups[0], q.numerators) == ones


def test_conditional_expectation_null_cells(trinomial):
    model = trinomial.model
    q = model.measure([F(1, 2), F(0), F(1, 2)])
    x = (F(3), F(7), F(5))
    out = condexp_groups(x, model.coarse_groups[1], q.numerators)
    assert out == (F(3), F(0), F(5))  # null cell pinned to zero by convention


def test_measure_invariants(trinomial):
    model = trinomial.model
    with pytest.raises(InputError, match="must sum to exactly 1"):
        Measure((F(1, 2), F(1, 2), F(1, 2)))
    with pytest.raises(InputError, match="must sum to exactly 1"):
        Measure((F(1, 3), F(1, 2), F(1, 7)))  # mixed denominators, sum 41/42
    with pytest.raises(InputError, match="must be nonnegative"):
        Measure((F(-1, 2), F(1), F(1, 2)))
    with pytest.raises(InputError, match="must be nonnegative"):
        Measure((F(-1, 6), F(5, 6), 0, F(1, 3)))
    mixed = Measure((F(1, 3), 0, F(1, 2), F(1, 6)))
    assert mixed.support == (0, 2, 3)
    restricted = replace(model, allowed=frozenset({0, 2}))
    with pytest.raises(InputError, match=r"outside the prior support: \[1\]"):
        restricted.measure([F(0), F(1), F(0)])


@pytest.mark.parametrize("weight", [0.5, True, "1/2", None], ids=["float", "bool", "str", "none"])
def test_measure_rejects_a_weight_that_is_not_an_int_or_fraction(weight):
    with pytest.raises(TypeError, match="measure weights must be int or Fraction"):
        Measure((weight, F(1, 2)))


def test_member_runs_each_row_on_numerators(trinomial_calibrated):
    cs = trinomial_calibrated.model.constraints
    assert member(Measure((F(1, 4), F(1, 2), F(1, 4))), cs)
    # (1/3, 1/3, 1/3) meets the martingale row but not the calibration row
    third = Measure((F(1, 3), F(1, 3), F(1, 3)))
    violated = [row.label for row in cs.rows if sum(c * w for c, w in zip(row_coeffs(row), third.weights)) != 0]
    assert violated == [("calibration", 0)]
    assert not member(third, cs)
    assert not member(Measure((F(1, 4), F(1, 2), F(1, 4))), replace(cs, allowed=frozenset({0, 1})))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_member_agrees_with_rational_rows(seed):
    rng = random.Random(seed)
    model, _ = random_model(rng)
    cs = model.constraints
    measures = [random_measure(rng, model)] + list(enumerate_extreme_points(cs).vertices[:3])
    for q in measures:
        exact = all(sum(c * w for c, w in zip(row_coeffs(row), q.weights)) == 0 for row in cs.rows)
        assert member(q, cs) == (exact and set(q.support) <= cs.allowed)


@pytest.mark.parametrize("weights", [["1/2"], ["1/4", "1/4", "1/4", "1/4"]], ids=["short", "long"])
def test_measure_names_a_wrong_length_before_the_sum(trinomial, weights):
    with pytest.raises(ShapeError, match=f"measure weights: got {len(weights)}, expected 3"):
        trinomial.model.measure(weights)


@pytest.mark.parametrize("payoff", [(F(1), F(1)), (F(1),) * 4], ids=["short", "long"])
def test_expectation_rejects_a_payoff_of_the_wrong_length(trinomial, payoff):
    q = trinomial.model.measure(["1/4", "1/2", "1/4"])
    assert q.expectation((F(1), F(1), F(1))) == 1
    with pytest.raises(ShapeError, match=f"payoff entries: got {len(payoff)}, expected 3"):
        q.expectation(payoff)


@pytest.mark.parametrize(
    "check",
    [
        hedging_span,
        lambda model, measure: filtrations_coincide(measure, enlarge(model, [])),
        lambda model, measure: is_full(AtomicTree([TreeNode((0, 1, 2), 0)]), measure, model),
        lambda model, measure: member(measure, model.constraints),
        lambda model, measure: is_extreme(measure, model.constraints),
        lambda model, measure: is_semistatically_complete(measure, model),
        lambda model, measure: replicate((F(1), F(0), F(1)), measure, model),
        lambda model, measure: extract_tree(measure, model),
        lambda model, measure: validate_atomic_tree(ROOT, measure, model),
        lambda model, measure: check_theorem_conditions(ROOT, measure, model),
        lambda model, measure: azema(measure, JUMP, enlarge(model, [JUMP])),
        lambda model, measure: compensator(measure, JUMP, enlarge(model, [JUMP])),
        lambda model, measure: jeulin_yor(measure, JUMP, enlarge(model, [JUMP])),
    ],
    ids=["hedging_span", "filtrations_coincide", "is_full", "member", "is_extreme",
         "is_semistatically_complete", "replicate", "extract_tree", "validate_atomic_tree", "check_theorem_conditions",
         "azema", "compensator", "jeulin_yor"],
)
def test_a_measure_over_another_model_is_rejected(trinomial_calibrated, check):
    model = trinomial_calibrated.model
    check(model, model.measure(["1/4", "1/2", "1/4"]))
    with pytest.raises(ShapeError, match="measure weights: got 1, expected 3"):
        check(model, Measure((F(1),)))


@pytest.mark.parametrize(
    "check, argument",
    [
        (lambda model, payoff: superhedge(payoff, model), "payoff entries"),
        (lambda model, payoff: verify_duality(payoff, model), "payoff entries"),
        (lambda model, payoff: robust_price(payoff, model), "payoff entries"),
        (lambda model, payoff: replicate(payoff, model.measure(["1/4", "1/2", "1/4"]), model), "payoff entries"),
        # three copies of the one asset give three gain columns, one holding per entry
        (
            lambda model, payoff: strategy_payoff(
                SemiStaticStrategy(F(0), (F(0),), tuple(payoff)), replace(model, prices=model.prices * 3)
            ),
            "holdings",
        ),
        (lambda model, payoff: enlarge(model, [JUMP]).expand(payoff), "payoff entries"),
        (lambda model, payoff: model.measure(["1/4", "1/2", "1/4"]).expectation(payoff), "payoff entries"),
    ],
    ids=["superhedge", "verify_duality", "robust_price", "replicate", "strategy_payoff", "expand", "expectation"],
)
def test_an_inexact_payoff_is_rejected(trinomial_calibrated, check, argument):
    model = trinomial_calibrated.model
    check(model, (F(1, 10), 2, F(3, 10)))
    for payoff in ([0.1, 0.2, 0.3], (F(1), True, F(0)), (F(1), "1/2", F(0))):
        with pytest.raises(TypeError, match=f"{argument} must be int or Fraction"):
            check(model, payoff)
    with pytest.raises(ShapeError, match=f"{argument}: got 2, expected 3"):
        check(model, [0.1, 0.2])


@pytest.mark.parametrize("model", [m for _, m in MODELS], ids=[name for name, _ in MODELS])
def test_condexp_groups_matches_the_set_based_reference(model):
    # the engine averages over its cell tables, the reference over sets of outcomes; null cells read 0 in both
    rng = random.Random(model.n_cells * 1009 + model.horizon)
    for _ in range(3):
        q = random_measure(rng, model)
        x = random_payoff(rng, model)
        for k in range(model.horizon + 1):
            assert condexp_groups(x, model.coarse_groups[k], q.numerators) == conditional_expectation(model, x, k, q)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**6))
def test_tower_property(seed):
    rng = random.Random(seed)
    model, _ = random_model(rng)
    q = random_measure(rng, model)
    x = random_payoff(rng, model)
    k2 = rng.randint(0, model.horizon)
    k1 = rng.randint(0, k2)
    inner = condexp_groups(x, model.coarse_groups[k2], q.numerators)
    lhs = condexp_groups(inner, model.coarse_groups[k1], q.numerators)
    rhs = condexp_groups(x, model.coarse_groups[k1], q.numerators)
    for a in q.support:
        assert lhs[a] == rhs[a]


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**6))
def test_condexp_linearity(seed):
    rng = random.Random(seed)
    model, _ = random_model(rng)
    q = random_measure(rng, model)
    x = random_payoff(rng, model)
    y = random_payoff(rng, model)
    k = rng.randint(0, model.horizon)
    lam = F(rng.randint(-3, 3), rng.randint(1, 4))
    combo = tuple(a + lam * b for a, b in zip(x, y))
    groups = model.coarse_groups[k]
    lhs = condexp_groups(combo, groups, q.numerators)
    ex = condexp_groups(x, groups, q.numerators)
    ey = condexp_groups(y, groups, q.numerators)
    assert lhs == tuple(a + lam * b for a, b in zip(ex, ey))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**6))
def test_natural_filtration_always_valid(seed):
    rng = random.Random(seed)
    model, _ = random_model(rng)
    partitions = natural_filtration(model.prices)
    rebuilt = replace(model, partitions=partitions, claims=(), allowed=frozenset(range(len(partitions[-1].cells))))
    assert validate_model(rebuilt).ok
    for k, partition in enumerate(partitions):  # P_k groups outcomes by their whole price path up to k
        paths: dict[tuple, list[int]] = {}
        for w in range(model.n_outcomes):
            paths.setdefault(tuple(asset[t][w] for t in range(k + 1) for asset in model.prices), []).append(w)
        assert partition == Partition(paths.values())
