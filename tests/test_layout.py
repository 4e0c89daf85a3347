"""One strategy coordinate layout: cash, claims, then the model's gains.

The elementary gains are at once the dynamic columns of a semi-static
strategy and the martingale rows of the measure set, so the two must agree
vector for vector, and a strategy built from coordinates must pay off the
matching column.
"""

import ast
import importlib
import random
from fractions import Fraction

import pytest

from semistatic.hedging import SemiStaticStrategy, strategy_payoff
from semistatic.polytope import build_constraints
from semistatic.sampling import random_model
from tests.conftest import REPO
from tests.decoders import strategy_from_json
from tests.reference import gains, row_coeffs, strategy_columns
from tests.test_multi_asset import two_asset_model

F = Fraction
VALUES = [F(0), F(0), F(1), F(-2), F(3, 4), F(-5, 3)]


def _models():
    rng = random.Random(515)
    named = [(f"random-{i}", random_model(rng)[0]) for i in range(40)]
    return named + [("two-asset", two_asset_model())]


MODELS = _models()


@pytest.fixture(params=[m for _, m in MODELS], ids=[name for name, _ in MODELS])
def model(request):
    return request.param


def test_gains_are_price_increments_on_predecessor_cells(model):
    labels = []
    for (kind, k, c, j), row, scale in model.int_gains:
        assert kind == "gain"
        vec = [F(x, scale) for x in row]
        labels.append((k, c, j))
        group = model.partitions[k - 1].cells[c]
        for a, cell in enumerate(model.terminal_cells):
            w = cell[0]
            step = model.prices[j][k][w] - model.prices[j][k - 1][w]
            assert vec[a] == (step if w in group else 0)
    assert labels == sorted(labels)
    cells_before = sum(len(model.partitions[k].cells) for k in range(model.horizon))
    assert len(labels) == cells_before * len(model.prices)


def test_martingale_rows_are_the_gain_vectors(model):
    assert model.constraints is model.constraints
    assert model.constraints == build_constraints(model)
    rows = [row for row in model.constraints.rows if row.label[0] == "martingale"]
    reference = gains(model)
    assert [row.label[1:] for row in rows] == [label[1:] for label, _ in reference]
    assert [row_coeffs(row) for row in rows] == [vec for _, vec in reference]


def test_rows_are_homogeneous_normals_over_the_cells(model):
    # the sum to one is the measure's, so a row has no rhs entry and no row normalizes
    rows = model.constraints.rows
    assert all(len(row.normal) == model.n_cells for row in rows)
    assert [row.label[0] for row in rows] == ["martingale"] * len(model.int_gains) + ["calibration"] * len(model.claims)


def test_unit_coordinates_pay_off_their_column(model):
    columns = strategy_columns(model)
    assert [label[0] for label, _ in columns[: 1 + len(model.claims)]] == ["const"] + ["claim"] * len(model.claims)
    for i, (_, vec) in enumerate(columns):
        unit = [F(0)] * len(columns)
        unit[i] = F(1)
        assert strategy_payoff(SemiStaticStrategy.from_coordinates(unit, model), model) == vec


def test_strategy_json_round_trip(model):
    rng = random.Random(len(model.outcomes))
    n = len(strategy_columns(model))
    for _ in range(5):
        strategy = SemiStaticStrategy.from_coordinates([rng.choice(VALUES) for _ in range(n)], model)
        assert strategy_from_json(strategy.to_json(model), model) == strategy


def test_package_states_no_invariant_with_assert():
    # python -O strips assert statements; invariants raise InvariantViolation instead
    found = []
    for path in sorted((REPO / "src" / "semistatic").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            exc = getattr(node, "exc", None) if isinstance(node, ast.Raise) else None
            if isinstance(exc, ast.Call):
                exc = exc.func
            if isinstance(node, ast.Assert) or (isinstance(exc, ast.Name) and exc.id == "AssertionError"):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_traced_layers_name_callables_of_the_package():
    # the benchmark's --trace run wraps each LAYERS entry by name; a missing one fails there
    tree = ast.parse((REPO / "perfbench" / "layers.py").read_text())
    (layers,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "LAYERS" for t in node.targets)
    ]
    missing = []
    for module, names in ast.literal_eval(layers).items():
        home = importlib.import_module(f"semistatic.{module}")
        missing += [f"{module}.{name}" for name in names if not callable(getattr(home, name, None))]
    assert missing == []


def test_only_the_parser_is_cached_across_calls():
    # a memo that outlives one call (of a parsed scenario, say) would speed repeated in-process calls only
    memos = {"cache", "lru_cache"}
    decorated, uses = [], 0
    for path in sorted((REPO / "src" / "semistatic").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                uses += sum(alias.name in memos for alias in node.names)
            if isinstance(node, ast.Attribute) and node.attr in memos and getattr(node.value, "id", None) == "functools":
                uses += 1
            for decorator in getattr(node, "decorator_list", ()):
                target = decorator.func if isinstance(decorator, ast.Call) else decorator
                if getattr(target, "attr", getattr(target, "id", None)) in memos:
                    decorated.append(f"{path.stem}.{node.name}")
    assert decorated == ["cli.build_parser"]
    assert uses == 1  # that decorator, and no memo made by a call or imported by name


def test_shape_errors_are_raised_only_by_the_input_checks():
    # a length or an index is checked by the model's helpers, so no module grows its own check again
    allowed = {
        "model._check_index",
        "model._check_vector",
        "tree._check_tree",
        # checks the helpers do not cover: a system's allowed cells, a jump's measurability
        "polytope.ConstraintSystem.__post_init__",
        "enlargement.EnlargedModel.on_cells",
    }
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            exc = child.exc.func if isinstance(child, ast.Raise) and isinstance(child.exc, ast.Call) else None
            if getattr(exc, "id", None) == "ShapeError":
                found.add(".".join(scope))
            visit(child, scope)

    for path in sorted((REPO / "src" / "semistatic").glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), [path.stem])
    assert found == allowed


def test_only_the_measure_scales_its_weights_to_ints():
    # a Measure keeps its weights' int form, numerators over scale, so no layer scales them again,
    # whether it reads a measure's .weights or a parameter named weights
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            called = child.func if isinstance(child, ast.Call) else None
            if getattr(called, "id", getattr(called, "attr", None)) == "common_denominator" and any(
                getattr(part, "attr", getattr(part, "id", None)) == "weights" for part in ast.walk(child)
            ):
                found.add(".".join(scope))
            visit(child, scope)

    for path in sorted((REPO / "src" / "semistatic").glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), [path.stem])
    assert found == {"model.Measure.__post_init__"}
