import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semistatic.cli import main
from semistatic.hedging import replicate
from semistatic.polytope import build_constraints, enumerate_extreme_points
from semistatic.scenario import ScenarioError, load_scenario, parse_inline_measure, parse_scenario
from semistatic.tree import extract_tree
from tests import reference
from tests.conftest import SCENARIOS
from tests.decoders import measure_from_json, strategy_from_json, tree_from_json

F = Fraction


def test_scenarios_all_load(trinomial, binomial, glued_two_vol, jump_counterexample,
                            informed_arbitrage, initial_enlargement, trinomial_calibrated):
    for scenario in (trinomial, binomial, glued_two_vol, jump_counterexample,
                     informed_arbitrage, initial_enlargement, trinomial_calibrated):
        assert scenario.model.n_outcomes >= 2


def test_quotient_rejects_non_measurable_claim():
    data = {
        "outcomes": ["a", "b"],
        "times": [0, 1],
        "filtration": [[["a", "b"]], [["a", "b"]]],
        "prices": [[[0, 0], [0, 0]]],
        "claims": [[1, 2]],
    }
    with pytest.raises(ScenarioError):
        parse_scenario(data)


def test_quotient_merges_cells():
    data = {
        "outcomes": ["a", "b"],
        "times": [0, 1],
        "filtration": [[["a", "b"]], [["a", "b"]]],
        "prices": [[[0, 0], [0, 0]]],
        "claims": [[0, 0]],
        "payoffs": {"flat": [7, 7]},
    }
    scenario = parse_scenario(data)
    assert scenario.model.n_cells == 1
    assert scenario.payoffs["flat"] == (F(7),)


def _spelled(value: Fraction, scale: int, padded: bool) -> str:
    text = f"{value.numerator * scale}/{value.denominator * scale}"
    return f" {text} " if padded else text


def _one_cell_payoff(tokens: list[str]) -> dict:
    """Outcomes w0.. in one terminal cell beside a lone outcome z; the payoff lists the tokens, then 0."""
    names = [f"w{i}" for i in range(len(tokens))]
    return {
        "outcomes": names + ["z"],
        "times": [0, 1],
        "filtration": [[names + ["z"]], [names, ["z"]]],
        "prices": [[["0"] * (len(names) + 1)] * 2],
        "payoffs": {"x": tokens + ["0"]},
    }


@settings(max_examples=60, deadline=None)
@given(
    st.fractions(max_denominator=40),
    st.lists(st.tuples(st.integers(1, 9), st.booleans()), min_size=2, max_size=5),
    st.fractions(max_denominator=40).filter(bool),
)
def test_a_cell_may_spell_one_value_in_several_ways(value, spellings, shift):
    tokens = [_spelled(value, scale, padded) for scale, padded in spellings]
    scenario = parse_scenario(_one_cell_payoff(tokens))
    assert scenario.payoffs["x"] == (value, F(0))
    rows, _ = scenario.model.int_prices[0]
    assert rows[0][0] == rows[1][-1]  # one value, however spelled, is one int over the asset's scale
    tokens[-1] = _spelled(value + shift, 1, False)
    cell = ", ".join(str(i) for i in range(len(tokens)))
    with pytest.raises(ScenarioError, match=rf"^payoff x is not constant on the terminal cell \[{cell}\]$"):
        parse_scenario(_one_cell_payoff(tokens))


@pytest.mark.parametrize("kind, key", [("claim", 0), ("payoff", "x")])
@pytest.mark.parametrize("entries", [2, 4], ids=["short", "long"])
def test_a_claim_or_payoff_needs_one_entry_per_outcome(tmp_path, capsys, kind, key, entries):
    # unchecked, the quotient would drop a long vector's extra entries and read past a short one's end
    data = {
        "outcomes": ["u", "m", "d"],
        "times": [0, 1],
        "prices": [[[0, 0, 0], [1, 0, -1]]],
        "claims": [[1, 0, 1]],
        "payoffs": {"x": [1, 2, 3]},
    }
    vector = data["claims"][0] if kind == "claim" else data["payoffs"]["x"]
    vector[:] = (vector + [7])[:entries]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    assert main(["--format", "json", "price", "--payoff", "x", str(path)]) == 2
    message = f"{kind} {key} has {entries} entries, expected 3, one per outcome"
    assert json.loads(capsys.readouterr().out) == {"error": message}


def test_partial_prior_cell_rejected():
    data = {
        "outcomes": ["a", "b"],
        "times": [0, 1],
        "filtration": [[["a", "b"]], [["a", "b"]]],
        "prices": [[[0, 0], [0, 0]]],
        "prior_support": ["a"],
    }
    with pytest.raises(ScenarioError):
        parse_scenario(data)


def test_invalid_model_rejected():
    data = {
        "outcomes": ["a", "b"],
        "times": [0, 1],
        "filtration": [[["a"], ["b"]], [["a", "b"]]],  # coarsens over time
        "prices": [[[0, 0], [0, 0]]],
    }
    with pytest.raises(ScenarioError):
        parse_scenario(data)


def test_repeated_outcome_labels_rejected():
    data = {"outcomes": ["u", "u"], "times": [0, 1], "prices": [[[0, 0], [1, -1]]]}
    with pytest.raises(ScenarioError, match="^outcome labels must be unique$"):
        parse_scenario(data)


def test_float_rejected():
    data = {
        "outcomes": ["a", "b"],
        "times": [0, 1],
        "filtration": "natural",
        "prices": [[[0, 0], [0.5, -0.5]]],
    }
    with pytest.raises(ScenarioError):
        parse_scenario(data)


def test_jump_with_inf(initial_enlargement):
    jump = initial_enlargement.jumps[0]
    assert jump.tau == (0, None, None)
    assert jump.mark == (F(1), F(0), F(0))


def test_inline_measure(trinomial):
    measure = parse_inline_measure("1/4,1/2,1/4", trinomial.model)
    assert measure.weights == (F(1, 4), F(1, 2), F(1, 4))
    with pytest.raises(ScenarioError):
        parse_inline_measure("1/2,1/2", trinomial.model)


@pytest.mark.parametrize(
    "text, reason",
    [
        ("1/4,x,3/4", "invalid literal for int() with base 10: 'x'"),
        ("1/0,0,1", "zero denominator in '1/0'"),
        ("1/4,1/2,1/2", "measure weights must sum to exactly 1"),
    ],
    ids=["not-a-number", "zero-denominator", "not-a-probability"],
)
def test_an_invalid_inline_measure_names_its_reason(trinomial, text, reason):
    with pytest.raises(ScenarioError) as caught:
        parse_inline_measure(text, trinomial.model)
    assert str(caught.value) == f"invalid inline measure: {reason}"


def test_measure_round_trip(trinomial):
    model = trinomial.model
    vs = enumerate_extreme_points(build_constraints(model))
    for vertex in vs.vertices:
        data = json.loads(json.dumps(vertex.to_json(model)))
        assert measure_from_json(data, model).weights == vertex.weights


def test_strategy_round_trip(trinomial_calibrated):
    model = trinomial_calibrated.model
    q = model.measure(["1/4", "1/2", "1/4"])
    strategy = replicate((F(0), F(1), F(0)), q, model)
    data = json.loads(json.dumps(strategy.to_json(model)))
    assert strategy_from_json(data, model) == strategy


@pytest.mark.parametrize("k, cell, asset", [(0, "u", 0), (2, "u|m|d", 0), (1, "u|m|d", 1), (1, "u|m|d", -1)])
def test_strategy_holding_off_the_layout_is_rejected(trinomial_calibrated, k, cell, asset):
    data = {"cash": "0", "static": ["0"], "dynamic": [{"k": k, "cell": cell, "asset": asset, "value": "1"}]}
    with pytest.raises(ScenarioError):
        strategy_from_json(data, trinomial_calibrated.model)


def test_tree_round_trip(glued_two_vol):
    model = glued_two_vol.model
    q = enumerate_extreme_points(build_constraints(model)).vertices[0]
    tree = extract_tree(q, model)
    data = json.loads(json.dumps(tree.to_json(model)))
    assert tree_from_json(data, model).nodes == tree.nodes


def test_missing_file():
    with pytest.raises(ScenarioError):
        load_scenario("scenarios/does_not_exist.json")


# -- the byte read path against the text-mode reference: the same Scenario or the same error message --

BUNDLED = sorted(p.stem for p in SCENARIOS.glob("*.json"))


def _variants(raw: bytes) -> dict:
    """The bundled file's bytes as written with other line endings, a BOM, a bad byte or cut short."""
    crlf, cr = raw.replace(b"\n", b"\r\n"), raw.replace(b"\n", b"\r")
    middle = len(raw) // 2
    return {
        "as-is": raw,
        "crlf": crlf,
        "cr": cr,
        # an error after the line endings: its line, column and offset count each CRLF as one newline
        "crlf-then-error": crlf.rstrip() + b"\r\n\r\n  ,\r\n",
        "cr-then-error": cr.rstrip() + b"\r\r  ,\r",
        "crlf-error-inside": crlf[:middle] + b"\r\n@" + crlf[middle:],
        "bom": b"\xef\xbb\xbf" + raw,
        "not-utf8": raw[:middle] + b"\xff" + raw[middle:],
        "truncated": raw[:middle],
        "empty": b"",
    }


def _outcome(load, path):
    try:
        return load(path)
    except ScenarioError as exc:
        return f"ScenarioError: {exc}"


@pytest.mark.parametrize("variant", list(_variants(b"")))
@pytest.mark.parametrize("name", BUNDLED)
def test_load_matches_the_text_mode_reference(tmp_path, name, variant):
    path = tmp_path / f"{name}.json"
    path.write_bytes(_variants((SCENARIOS / f"{name}.json").read_bytes())[variant])
    expected = _outcome(reference.load_scenario, str(path))
    assert _outcome(load_scenario, str(path)) == expected
    assert _outcome(load_scenario, path) == expected  # a pathlib.Path argument
    if variant in ("as-is", "crlf", "cr"):
        assert expected == load_scenario(SCENARIOS / f"{name}.json")
    else:
        assert expected.startswith("ScenarioError: cannot read scenario")


def test_load_reports_a_bom_a_bad_byte_and_a_crlf_error_position_as_text_mode_did(tmp_path):
    path = tmp_path / "s.json"
    for content, message in [
        (b'\xef\xbb\xbf{"outcomes": []}', "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
        (b'{"a": "\xff"}', "'utf-8' codec can't decode byte 0xff in position 7: invalid start byte"),
        (b'{\r\n"a": 1,\r\n}', "Expecting property name enclosed in double quotes: line 3 column 1 (char 10)"),
        (b'{\r"a": 1,\r}', "Expecting property name enclosed in double quotes: line 3 column 1 (char 10)"),
    ]:
        path.write_bytes(content)
        assert _outcome(load_scenario, str(path)) == f"ScenarioError: cannot read scenario {path}: {message}"
        assert _outcome(reference.load_scenario, str(path)) == _outcome(load_scenario, str(path))


@pytest.mark.parametrize("kind", ["directory", "missing"])
def test_an_unreadable_path_matches_the_reference(tmp_path, kind):
    path = tmp_path / "scenario.json"
    if kind == "directory":
        path.mkdir()
    expected = _outcome(reference.load_scenario, str(path))
    assert expected.startswith(f"ScenarioError: cannot read scenario {path}: [Errno")
    assert _outcome(load_scenario, str(path)) == _outcome(load_scenario, path) == expected


@pytest.mark.parametrize("file_name", ["plain.json", "two.dots.json", "trailing.", ".hidden", "..x", "noext"])
def test_an_unnamed_scenario_is_named_after_the_file_as_pathlib_would(tmp_path, file_name):
    data = json.loads((SCENARIOS / "trinomial.json").read_text(encoding="utf-8"))
    del data["name"]
    path = tmp_path / file_name
    path.write_text(json.dumps(data), encoding="utf-8")
    assert load_scenario(str(path)).name == reference.load_scenario(str(path)).name == path.stem


def test_load_rejects_an_int_path_rather_than_read_a_file_descriptor():
    with pytest.raises(TypeError):
        load_scenario(0)
