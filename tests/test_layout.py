"""One strategy coordinate layout: cash, claims, then the model's gains.

The elementary gains are at once the dynamic columns of a semi-static
strategy and the martingale rows of the measure set, so the two must agree
vector for vector, and a strategy built from coordinates must pay off the
matching column.
"""

import ast
import importlib
import json
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import semistatic
from semistatic.hedging import SemiStaticStrategy, strategy_payoff
from semistatic.polytope import build_constraints
from semistatic.sampling import random_model
from semistatic.scenario import load_scenario
from tests.conftest import REPO, SCENARIOS
from tests.decoders import strategy_from_json
from tests.reference import fraction_prices, gains, row_coeffs, strategy_columns
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
            step = fraction_prices(model)[j][k][w] - fraction_prices(model)[j][k - 1][w]
            assert vec[a] == (step if w in group else 0)
    assert labels == sorted(labels)
    cells_before = sum(len(model.partitions[k].cells) for k in range(model.horizon))
    assert len(labels) == cells_before * len(model.int_prices)


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
    assert [row.label[0] for row in rows] == ["martingale"] * len(model.int_gains) + ["calibration"] * len(model.int_claims)


def test_unit_coordinates_pay_off_their_column(model):
    columns = strategy_columns(model)
    assert [label[0] for label, _ in columns[: 1 + len(model.int_claims)]] == ["const"] + ["claim"] * len(model.int_claims)
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


def _traced_layers() -> dict[str, tuple[str, ...]]:
    """``perfbench/layers.py``'s ``LAYERS``, module -> function names, read without importing the benchmark."""
    tree = ast.parse((REPO / "perfbench" / "layers.py").read_text())
    (layers,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "LAYERS" for t in node.targets)
    ]
    return ast.literal_eval(layers)


def test_traced_layers_name_callables_of_the_package():
    # the benchmark's --trace run wraps each LAYERS entry by name; a missing one fails there
    missing = []
    for module, names in _traced_layers().items():
        home = importlib.import_module(f"semistatic.{module}")
        missing += [f"{module}.{name}" for name in names if not callable(getattr(home, name, None))]
    assert missing == []


def test_nothing_is_cached_across_calls():
    # a memo that outlives one call (of a parsed scenario or the parser, say) would speed repeated in-process calls only
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
    assert decorated == []
    assert uses == 0  # no memo made by a call or imported by name


def _decorators(node) -> set:
    """The names of a class's or a function's decorators, called or not."""
    return {getattr(d.func if isinstance(d, ast.Call) else d, "id", None) for d in node.decorator_list}


def test_dataclasses_are_only_the_records_a_tuple_cannot_be():
    # a dataclass costs about 1 ms of exec per import; a record that only holds fields is a NamedTuple.
    # The rest keep a cached_property, an __init__ or the checks __post_init__ runs on each replace,
    # and a docstring, without which dataclass builds __doc__ through inspect.signature.
    kept = {}
    for path in sorted((REPO / "src" / "semistatic").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef) and "dataclass" in _decorators(node):
                methods = [n for n in node.body if isinstance(n, ast.FunctionDef)]
                needs = any(
                    m.name in ("__init__", "__post_init__") or "cached_property" in _decorators(m) for m in methods
                )
                kept[f"{path.stem}.{node.name}"] = (needs, ast.get_docstring(node) is not None)
    assert kept == {
        name: (True, True)
        for name in [
            "enlargement.EnlargedModel",
            "enlargement.SingleJump",
            "model.FilteredModel",
            "model.Measure",
            "model.Partition",
            "polytope.ConstraintSystem",
            "tree.AtomicTree",
        ]
    }


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
    assert found == {"model.Measure.__init__"}


def test_the_exact_kernels_take_int_rows():
    # linalg and simplex scale no row: every caller poses its program in ints, so neither imports from
    # rationals nor calls common_denominator
    for name in ("linalg", "simplex"):
        tree = ast.parse((REPO / "src" / "semistatic" / f"{name}.py").read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                imported.update([node.module or ""] + [alias.name for alias in node.names])
            elif isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
        assert not [module for module in imported if "rationals" in module.split(".")], name
        calls = [node.func for node in ast.walk(tree) if isinstance(node, ast.Call)]
        assert not [f for f in calls if getattr(f, "id", getattr(f, "attr", None)) == "common_denominator"], name


# -- reach: every def in the package is called by one fixed CLI corpus, traced, or a listed failure path --

PACKAGE = Path(semistatic.__file__).resolve().parent

# qualified name -> why the corpus cannot reach it; failure paths only
UNREACHED: dict[str, str] = {}

# the claim pays >= 0 at zero cost, so no calibrated martingale measure exists
ARBITRAGE = {
    "outcomes": ["u", "m", "d"],
    "times": [0, 1],
    "filtration": "natural",
    "prices": [[[0, 0, 0], [1, 0, -1]]],
    "claims": [[2, 1, 0]],
    "payoffs": {"zero": [0, 0, 0]},
}

# the randomized suites at 2-3 instances each, by their instance-count parameter
SMALL_SUITES = {
    "jacod-yor": {"n_models": 2},
    "duality": {"n_models": 3},
    "jeulin-yor": {"n_trials": 3},
    "corollary54": {"n_instances": 2},
}


def reach_corpus(directory: Path) -> list[list[str]]:
    """The reach guard's ``cli.main`` argument lists; the arbitrage scenario is written into ``directory``.

    Every bundled scenario goes through every scenario command, at vertex 0
    and on one of its payoffs (an inline one where it names none).  Then the
    paths the scenarios miss: an arbitrage model's unbounded superhedge and
    empty-set certificate, an inline measure under which an inline payoff is not
    replicable, the text format, the two verify forms and a usage error.
    """
    corpus = []
    for path in sorted(SCENARIOS.glob("*.json")):
        scenario, name = load_scenario(path), str(path)
        payoff = min(scenario.payoffs, default=",".join(["0"] * scenario.model.n_cells))
        corpus += [["validate", name], ["extremes", name]]
        corpus += [[command, "--measure", "0", name] for command in ("complete", "tree")]
        corpus.append(["replicate", "--payoff", payoff, "--measure", "0", name])
        corpus += [[command, "--payoff", payoff, name] for command in ("price", "superhedge", "duality")]
        if scenario.jumps:
            corpus += [["enlarge", name], ["enlarge", "--measure", "0", name], ["informed-compare", name]]
    arbitrage = directory / "arbitrage.json"
    arbitrage.write_text(json.dumps(ARBITRAGE))
    corpus += [[command, "--payoff", "zero", str(arbitrage)] for command in ("superhedge", "duality")]
    trinomial = str(SCENARIOS / "trinomial.json")
    corpus.append(["replicate", "--payoff", "0,1,0", "--measure", "1/4,1/2,1/4", trinomial])
    corpus = [["--format", "json", *argv] for argv in corpus]
    corpus.append(["--format", "text", "extremes", trinomial])
    corpus.append(["--format", "json", "verify", "--suite", "multinomial", "--pmax", "2", "--mmax", "2"])
    corpus.append(["--format", "json", "verify", "--suite", "all"])
    corpus.append(["--format", "json", "complete", "--payoff", "abs_S1", trinomial])  # usage error
    return corpus


def _package_defs() -> dict[tuple[str, int], tuple[str, str]]:
    """Every def in the package, keyed as its code object is, (file, first line), to (module.Qualname, file:line).

    A decorated def's code object starts at its first decorator.
    """
    found = {}

    def visit(node, path, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, path, scope + [child.name])
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = child.decorator_list[0].lineno if child.decorator_list else child.lineno
                qualname = ".".join([path.stem, *scope, child.name])
                found[str(path), first] = (qualname, f"{path.name}:{child.lineno}")
                visit(child, path, scope + [child.name, "<locals>"])
            else:
                visit(child, path, scope)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path, [])
    return found


def _exempt() -> set[str]:
    """The functions the benchmark's traced layers name: ``--trace`` looks each up, called by a command or not.

    An export has no exemption of its own: the public API is what the CLI runs.
    """
    return {f"{module}.{name}" for module, names in _traced_layers().items() for name in names}


# run in a fresh interpreter whose profile is set before the package is imported, so that a def that runs
# only while a class body executes (a descriptor's __init__ or __set_name__) counts as reached
REACH_CHILD = """
import contextlib, functools, io, json, sys

called = set()


def profile(frame, event, arg):
    if event == "call":
        called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))


sys.setprofile(profile)
from semistatic import cli, verify

corpus, small_suites = json.load(sys.stdin)
for name, size in small_suites.items():
    verify.SUITES[name] = functools.partial(verify.SUITES[name], **size)
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for argv in corpus:
        try:
            cli.main(argv)
        except SystemExit:  # a usage error, reported by argparse
            pass
sys.setprofile(None)
print(json.dumps(sorted(called)))
"""


def reached_lines(root: Path, corpus: list[list[str]]) -> set[tuple[str, int]]:
    """Every (file, first line) called in a fresh interpreter that imports ``root``'s package, then runs ``corpus``."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root), os.environ.get("PYTHONPATH", "")])}
    child = subprocess.run(
        [sys.executable, "-c", REACH_CHILD],
        input=json.dumps([corpus, SMALL_SUITES]),
        capture_output=True, text=True, env=env,
    )
    assert child.returncode == 0, child.stderr
    return {(str(Path(file).resolve()), line) for file, line in json.loads(child.stdout)}


def test_reach_counts_a_def_that_runs_while_the_package_imports(tmp_path):
    # a descriptor's __set_name__ runs once, as the class body that uses it executes
    copy = tmp_path / "semistatic"
    shutil.copytree(PACKAGE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    module = copy / "rationals.py"
    descriptor = "class _Named:\n    def __set_name__(self, owner, name):\n        self.name = name\n"
    module.write_text(module.read_text() + f"\n\n{descriptor}\n\nclass _Holder:\n    tag = _Named()\n")
    line = module.read_text().splitlines().index("    def __set_name__(self, owner, name):") + 1
    assert (str(module.resolve()), line) in reached_lines(tmp_path, [])


def test_every_src_function_is_reached(tmp_path):
    # a def that neither the CLI nor verify calls, that is not traced and not a listed failure path, is dead code
    reached = reached_lines(PACKAGE.parent, reach_corpus(tmp_path))
    unreached = {qualname: where for key, (qualname, where) in _package_defs().items() if key not in reached}
    exempt = _exempt() | set(UNREACHED)
    offenders = [f"{name} ({where})" for name, where in sorted(unreached.items()) if name not in exempt]
    assert not offenders, "reached by no corpus command, not traced, not listed:\n" + "\n".join(offenders)
    assert sorted(set(UNREACHED) - set(unreached)) == []  # an entry goes once its def is reached or gone
    # the traced layers that no command calls, kept only because the benchmark wraps them by name
    assert sorted(_exempt() & set(unreached)) == [
        "duality.detect_arbitrage",
        "duality.robust_price",
        "linalg.project_onto_span",
    ]
