"""Two-asset models: per-asset martingale rows, gains, and completeness."""

import random
from fractions import Fraction

from semistatic.duality import robust_price, superhedge
from semistatic.hedging import SemiStaticStrategy, is_semistatically_complete, strategy_payoff
from semistatic.model import FilteredModel, Partition, validate_model
from semistatic.polytope import build_constraints, enumerate_extreme_points
from semistatic.verify import _jacod_yor_checks
from tests.reference import row_coeffs

F = Fraction


def two_asset_model() -> FilteredModel:
    """One period, four states, two independent +/-1 coordinates."""
    s1 = (F(1), F(1), F(-1), F(-1))
    s2 = (F(1), F(-1), F(1), F(-1))
    return FilteredModel.from_fractions(
        outcomes=("uu", "ud", "du", "dd"),
        times=(F(0), F(1)),
        partitions=(Partition([[0, 1, 2, 3]]), Partition([[0], [1], [2], [3]])),
        prices=(((F(0),) * 4, s1), ((F(0),) * 4, s2)),
        claims=(),
        allowed=frozenset(range(4)),
    )


def test_valid_and_one_martingale_row_per_asset():
    model = two_asset_model()
    assert validate_model(model) == ()
    cs = build_constraints(model)
    martingale_labels = [r.label for r in cs.rows if r.label[0] == "martingale"]
    assert martingale_labels == [("martingale", 1, 0, 0), ("martingale", 1, 0, 1)]
    assert row_coeffs(cs.rows[0]) == (F(1), F(1), F(-1), F(-1))
    assert row_coeffs(cs.rows[1]) == (F(1), F(-1), F(1), F(-1))


def test_vertices_and_completeness():
    model = two_asset_model()
    vs = enumerate_extreme_points(build_constraints(model))
    assert [v.weights for v in vs.vertices] == [
        (F(1, 2), F(0), F(0), F(1, 2)),
        (F(0), F(1, 2), F(1, 2), F(0)),
    ]
    for v in vs.vertices:
        assert is_semistatically_complete(v, model).complete
    assert not is_semistatically_complete(
        model.measure(["1/4", "1/4", "1/4", "1/4"]), model
    ).complete
    assert all(c is None for c in _jacod_yor_checks(model, random.Random(0), 0))


def test_terminal_gain_sums_over_assets():
    model = two_asset_model()
    holdings = (F(2), F(-3))  # one P_0 cell, two assets
    gains = strategy_payoff(SemiStaticStrategy(F(0), (), holdings), model)
    assert gains == (F(-1), F(5), F(-5), F(1))  # 2*S1 - 3*S2 statewise


def test_two_asset_duality():
    model = two_asset_model()
    spread = (F(0), F(2), F(2), F(0))  # |S1 - S2|
    result = superhedge(spread, model)
    assert result.price == robust_price(spread, model).value == 2


def test_two_asset_tree_extraction():
    from semistatic.tree import AtomicTree, extract_tree

    model = two_asset_model()
    vs = enumerate_extreme_points(build_constraints(model))
    for v in vs.vertices:
        tree = extract_tree(v, model)
        assert isinstance(tree, AtomicTree) and tree.dim == 1
