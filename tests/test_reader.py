"""The one-pass scenario read: its token reader, its tables against the Fraction oracle, and what it builds.

``tests/reference.py`` keeps the parse, the validator and the table builds as
they were before the read went straight into the model's int tables; the
engine must give the same model, the same tables and the same error message
on every input the oracle reads, except that a value which is no JSON array
where the format wants one now has its own message.
"""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import floor
from report_digest import scenario_json
from semistatic import cli, model as model_module, verify
from semistatic.cli import main
from semistatic.rationals import rat, ratio
from semistatic.sampling import random_model
from semistatic.scenario import ScenarioError, load_scenario, parse_scenario
from tests import reference
from tests.conftest import REPO, SCENARIOS
from tests.test_cli_fuzz import BUNDLED, REPLACEMENTS, locations

ACCEPTED = ["1_0", "+3", " 5 ", "1/-2", "2/4", "٣", "-0", "0/7", " -6 / 4 ", 7, -12, 2**200]
REJECTED = ["1/0", "0/0", "/", "", "1.5", "1" * 4301, True, 0.5, None, [], "1/2/3", "x"]


def _outcome(read, token):
    try:
        return read(token)
    except (ValueError, TypeError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _value(pair):
    """``ratio``'s int, or its pair, as a Fraction; a pair is in lowest terms with a denominator above 1."""
    if type(pair) is int:
        return Fraction(pair)
    numerator, denominator = pair
    assert denominator > 1 and Fraction(numerator, denominator).denominator == denominator
    return Fraction(numerator, denominator)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.sampled_from(ACCEPTED + REJECTED),
        st.integers(),
        st.text(alphabet="0123456789/+- _٣", max_size=8),
        st.builds(lambda p, q: f"{p}/{q}", st.integers(-99, 99), st.integers(-99, 99)),
    )
)
def test_the_token_reader_accepts_exactly_what_rat_accepts_with_the_same_value(token):
    expected = _outcome(rat, token)
    got = _outcome(ratio, token)
    if isinstance(expected, str):
        assert got == expected
    else:
        assert _value(got) == expected


@pytest.mark.parametrize("token", ACCEPTED, ids=repr)
def test_the_edge_tokens_rat_accepts_are_read(token):
    assert _value(ratio(token)) == rat(token)


@pytest.mark.parametrize("token", REJECTED, ids=lambda t: repr(t)[:12])
def test_the_edge_tokens_rat_rejects_are_rejected_with_its_message(token):
    assert isinstance(_outcome(rat, token), str)
    assert _outcome(ratio, token) == _outcome(rat, token)


TABLES = ["terminal_cells", "coarse_cell_of", "coarse_groups", "int_gains", "int_claims", "terminal_labels"]


def assert_matches_the_oracle(data):
    """The engine reads the data as the oracle reads it: every field and table, or the same error."""
    try:
        name, expected, jumps, payoffs, prices, claims = reference.oracle_parse(data)
    except ScenarioError as exc:
        with pytest.raises(ScenarioError) as caught:
            parse_scenario(data)
        assert str(caught.value) == str(exc)
        return
    scenario = parse_scenario(data)
    assert (scenario.name, scenario.jumps, scenario.payoffs) == (name, jumps, payoffs)
    model = scenario.model
    for field in ("outcomes", "times", "partitions", "int_prices", "int_claims", "allowed"):
        assert getattr(model, field) == getattr(expected, field), field
    assert (reference.fraction_prices(model), reference.fraction_claims(model)) == (prices, claims)
    tables = reference.oracle_tables(expected, prices, claims)
    for table in TABLES:
        assert getattr(model, table) == tables[table], table
    assert model == expected
    assert [tuple(p.cells) for p in model.partitions] == [tuple(p.cells) for p in expected.partitions]


@pytest.mark.parametrize("name", sorted(BUNDLED))
def test_a_bundled_scenario_reads_as_the_fraction_oracle_reads_it(name):
    assert_matches_the_oracle(BUNDLED[name])


def test_random_models_read_as_the_fraction_oracle_reads_them():
    rng = random.Random(4301)
    for i in range(300):
        model, reference_measure = random_model(rng)
        payoff = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(model.n_cells))
        data = json.loads(json.dumps(scenario_json(f"r{i}", model, (), {"p": payoff})))
        if i % 2:
            data["filtration"] = "natural"  # coarser or not, a claim or payoff must be measurable on it
        assert_matches_the_oracle(data)


def _read(parse, data):
    try:
        return parse(data)
    except ScenarioError as exc:
        return f"ScenarioError: {exc}"


def test_every_single_value_mutation_reads_as_the_oracle_reads_it_unless_an_array_is_missing():
    changed = 0
    for name, original in BUNDLED.items():
        for *parents, key in locations(original):
            for replacement in ["delete"] + REPLACEMENTS:
                data = json.loads(json.dumps(original))
                container = data
                for step in parents:
                    container = container[step]
                if replacement == "delete":
                    del container[key]
                else:
                    container[key] = replacement
                got = _read(parse_scenario, data)
                expected = _read(reference.oracle_parse, data)
                if isinstance(got, str) and got.endswith("must be a JSON array"):
                    assert replacement != "delete" and type(replacement) is not list
                    changed += 1
                    continue
                if isinstance(got, str) or isinstance(expected, str):
                    assert got == expected, (name, parents, key, replacement)
                else:
                    assert got[1] == expected[1] and got[0] == expected[0], (name, parents, key, replacement)
    # the 77 array-valued key paths, and the 13 where the file says "natural" or "all", times 6 non-arrays
    assert changed == (77 + 13) * 6


TROUBLED = {
    "outcomes": lambda d: d.update(outcomes="umd"),
    "times": lambda d: d.update(times="01"),
    "prices[0][1]": lambda d: d["prices"][0].__setitem__(1, "000"),
    "claims[0]": lambda d: d.update(claims=["101"]),
    "payoffs[x]": lambda d: d.update(payoffs={"x": "123"}),
    "prior_support": lambda d: d.update(prior_support="umd"),
    "claims": lambda d: d.update(claims={}),
    "jumps": lambda d: d.update(jumps={}),
}


@pytest.mark.parametrize("where", sorted(TROUBLED))
def test_a_string_or_an_object_where_an_array_belongs_is_an_input_error(tmp_path, where):
    data = {
        "outcomes": ["u", "m", "d"],
        "times": [0, 1],
        "prices": [[[0, 0, 0], [1, 0, -1]]],
        "claims": [],
        "payoffs": {"x": [1, 0, 1]},
    }
    TROUBLED[where](data)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["--format", "json", "validate", str(path)])
    assert (code, err.getvalue()) == (2, "")
    assert json.loads(out.getvalue()) == {"error": f"malformed scenario: {where} must be a JSON array"}


def _calls(function, run):
    """How often ``function``'s code runs during ``run()``, by a profile hook."""
    code, count = function.__code__, [0]

    def hook(frame, event, arg):
        if event == "call" and frame.f_code is code:
            count[0] += 1

    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(None)
    return count[0]


@pytest.mark.parametrize("name", sorted(BUNDLED))
def test_loading_builds_no_fraction_for_a_price_or_claim_and_sorts_each_partition_at_most_once(name):
    data = BUNDLED[name]

    def load_and_read_tables():
        model = load_scenario(SCENARIOS / f"{name}.json").model
        model.int_gains, model.int_claims, model.coarse_groups, model.constraints, model.terminal_labels

    tokens = [*data["times"], *(t for vec in data.get("payoffs", {}).values() for t in vec)]
    tokens += [x for jump in data.get("jumps", []) for x in jump["mark"].values()]
    # the times, payoffs and jump marks that are not integers are the only Fractions a load builds
    assert _calls(Fraction.__new__, load_and_read_tables) == sum(rat(t).denominator != 1 for t in tokens)
    explicit = data.get("filtration", "natural") != "natural"
    partitions = len(data["filtration"]) if explicit else len(data["times"])
    assert _calls(model_module.Partition.__init__, load_and_read_tables) == partitions  # each sorts once


def test_a_plain_command_imports_neither_the_suites_nor_sampling_nor_random():
    # -S: the interpreter's site hooks may import random themselves
    code = (
        "import sys; from semistatic.cli import main; main(sys.argv[1:]); "
        "print(sorted(m for m in ('semistatic.verify', 'semistatic.sampling', 'random') if m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code, "extremes", str(SCENARIOS / "trinomial.json")],
        capture_output=True, text=True, env=env, check=True,
    )
    assert proc.stdout.splitlines()[-1] == "[]"


def test_the_suite_choices_are_the_verify_suites_and_all():
    assert cli.SUITES == sorted(verify.SUITES) + ["all"]


def test_the_floor_script_times_the_bundled_scenarios():
    paths = sorted(str(path) for path in SCENARIOS.glob("*.json"))
    result = floor.floor(paths, repeat=1)
    assert set(result) == {"load_us", "load_and_tables_us"} and all(value > 0 for value in result.values())


def test_the_floor_script_times_every_layer_on_the_bundled_scenarios():
    paths = sorted(str(path) for path in SCENARIOS.glob("*.json"))
    result = floor.layers(paths, tuple(floor.LAYERS), repeat=1)
    extra = {"superhedge_p99_us", "superhedge_pivots", "certificate_pivots"}
    assert set(result) == {f"{name}_us" for name in floor.LAYERS} | extra and all(value > 0 for value in result.values())
    assert type(result["superhedge_pivots"]) is int and type(result["certificate_pivots"]) is int
    assert {name for names in floor.LAYERS_OF.values() for name in names} == set(floor.LAYERS)
