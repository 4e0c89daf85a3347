import contextlib
import hashlib
import io
import json
import shlex
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction

import pytest
import run_corpus

from semistatic import bounds, cli, duality, enlargement, verify
from semistatic.cli import build_parser, main
from semistatic.enlargement import enlarge
from semistatic.polytope import VertexSet
from semistatic.scenario import canonical_json, load_scenario
from tests.conftest import REPO, scenario_path
from tests.decoders import strategy_from_json
from tests.reference import strategy_columns
from tests.test_duality import slacken_a_tight_cell
from tests.test_layout import ARBITRAGE

RUN = [sys.executable, "-m", "semistatic"]


def run_cli(*args):
    return subprocess.run(RUN + list(args), capture_output=True, text=True)


def run_json(*args):
    proc = run_cli("--format", "json", *args)
    return proc.returncode, json.loads(proc.stdout) if proc.stdout else None


def test_extremes_trinomial():
    code, report = run_json("extremes", str(scenario_path("trinomial")))
    assert code == 0
    assert report["result"]["count"] == 2
    assert report["result"]["vertices"][0]["weights"] == ["1/2", "0", "1/2"]
    assert report["result"]["vertices"][1]["weights"] == ["0", "1", "0"]


def test_duality_command():
    code, report = run_json("duality", "--payoff", "abs_S1", str(scenario_path("trinomial")))
    assert code == 0
    assert report["result"]["primal"] == "1"
    assert report["result"]["dual"] == "1"
    assert report["result"]["gap"] == "0"


def test_complete_with_vertex_index():
    code, report = run_json("complete", "--measure", "0", str(scenario_path("trinomial_calibrated")))
    assert code == 0 and report["result"]["complete"] is True


def test_complete_with_inline_measure():
    code, report = run_json(
        "complete", "--measure", "1/4,1/2,1/4", str(scenario_path("trinomial"))
    )
    assert code == 0 and report["result"]["complete"] is False


def test_replicate_command():
    code, report = run_json(
        "replicate", "--payoff", "ind_m", "--measure", "0",
        str(scenario_path("trinomial_calibrated")),
    )
    assert code == 0
    assert report["result"]["replicable"] is True
    assert report["result"]["strategy"]["cash"] == "1/2"


def test_tree_command_glued():
    code, report = run_json("tree", "--measure", "0", str(scenario_path("glued_two_vol")))
    assert code == 0
    assert report["result"]["dim"] == 2


def test_tree_command_counterexample():
    code, report = run_json("tree", "--measure", "0", str(scenario_path("jump_counterexample")))
    assert code == 0
    assert report["result"]["tree"] is None
    assert "sub-event" in report["result"]["reason"]


def test_informed_compare_command():
    code, report = run_json("informed-compare", str(scenario_path("initial_enlargement")))
    assert code == 0
    assert report["result"]["corollary_equal"] is True
    code, report = run_json("informed-compare", str(scenario_path("informed_arbitrage")))
    assert code == 0
    assert report["result"]["informed_arbitrage"] is True


def test_informed_compare_command_fails_when_the_corollary_does_not_hold(monkeypatch, capsys):
    real = cli.informed_compare

    def denied(model, jumps, payoffs):
        report, enlarged = real(model, jumps, payoffs)
        return replace(report, corollary_equal=False), enlarged

    monkeypatch.setattr(cli, "informed_compare", denied)
    assert main(["--format", "json", "informed-compare", str(scenario_path("initial_enlargement"))]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["corollary_equal"] is False and report["ok"] is False


def test_enlarge_command():
    code, report = run_json(
        "enlarge", "--measure", "0,1,0", str(scenario_path("initial_enlargement"))
    )
    assert code == 0
    assert report["result"]["per_jump"][0]["martingale_ok"] is True


# two of the four checks an enlarge report prints, made false in the jeulin_yor result they are read from
# (tests/test_enlargement.py makes predictable_ok false through the base groups)
FALSIFY = {
    "supermartingale_ok": lambda jy: replace(jy, azema=replace(jy.azema, supermartingale_ok=False)),
    "compensated_martingale_ok": lambda jy: replace(jy, compensator=replace(jy.compensator, martingale_ok=False)),
}


@pytest.mark.parametrize("flag", FALSIFY)
def test_enlarge_command_fails_on_each_false_check(monkeypatch, capsys, flag):
    real = cli.jeulin_yor
    monkeypatch.setattr(cli, "jeulin_yor", lambda *args: FALSIFY[flag](real(*args)))
    path = str(scenario_path("initial_enlargement"))
    assert main(["--format", "json", "enlarge", "--measure", "0,1,0", path]) == 1
    report = json.loads(capsys.readouterr().out)
    (checks,) = report["result"]["per_jump"]
    assert [name for name, value in checks.items() if value is False] == [flag]
    assert report["ok"] is False


def test_duality_on_arbitrage_model(tmp_path, monkeypatch, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(ARBITRAGE))
    code, report = run_json("duality", "--payoff", "zero", str(path))
    assert code == 0
    assert report["result"]["status"] == "arbitrage"
    assert report["result"]["certificate"]["feasible"] is False
    # the unbounded superhedge proves the set empty: no vertex enumeration
    calls = []
    for module in (cli, duality):
        real = module.enumerate_extreme_points
        monkeypatch.setattr(module, "enumerate_extreme_points", lambda cs, real=real: calls.append(cs) or real(cs))
    assert main(["--format", "json", "duality", "--payoff", "zero", str(path)]) == 0
    assert json.loads(capsys.readouterr().out) == report
    assert calls == []


def informed_market() -> dict:
    """``informed_arbitrage`` on its enlarged filtration, written as a plain model without jumps."""
    scenario = load_scenario(scenario_path("informed_arbitrage"))
    data = json.loads(scenario_path("informed_arbitrage").read_text())
    del data["jumps"]
    partitions = enlarge(scenario.model, scenario.jumps).model.partitions
    data["filtration"] = [[[data["outcomes"][w] for w in cell] for cell in p.cells] for p in partitions]
    return data


@pytest.mark.parametrize("data, payoff", [(ARBITRAGE, "zero"), (informed_market(), "call_at_1")])
def test_duality_prints_a_certificate_whose_holdings_pay_its_payoff(tmp_path, capsys, data, payoff):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(data))
    assert main(["--format", "json", "duality", "--payoff", payoff, str(path)]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["status"] == "arbitrage" and result["certificate"]["feasible"] is False
    model = load_scenario(path).model
    strategy = strategy_from_json(result["certificate"]["certificate"], model)
    coordinates = (strategy.cash, *strategy.static, *strategy.dynamic)
    # the payoff recomputed from the printed holdings on the Fraction columns, not by strategy_payoff
    value = [sum(h * vec[a] for h, (_, vec) in zip(coordinates, strategy_columns(model))) for a in range(model.n_cells)]
    assert value == [Fraction(x) for x in result["certificate"]["certificate_payoff"]]
    assert strategy.cash == 0 and all(value[a] > 0 for a in model.allowed)


CERTIFICATE_MISSING = "certificate must be zero-cost and pay a positive floor on every allowed cell"


def test_extremes_prints_an_empty_set_only_with_its_certificate(tmp_path, monkeypatch, capsys):
    path = tmp_path / "arbitrage.json"
    path.write_text(json.dumps(ARBITRAGE))
    assert main(["--format", "json", "extremes", str(path)]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert (result["count"], result["empty_is_arbitrage"]) == (0, True)
    # an enumeration that misses every vertex of a model with measures has no certificate behind its flag
    monkeypatch.setattr(cli, "enumerate_extreme_points", lambda cs: VertexSet(()))
    assert main(["--format", "json", "extremes", str(scenario_path("trinomial"))]) == 1
    assert capsys.readouterr().out == canonical_json({"error": CERTIFICATE_MISSING})


@pytest.mark.parametrize("flag, emptied", [("uninformed_arbitrage", 0), ("informed_arbitrage", 1)])
def test_informed_compare_prints_an_arbitrage_flag_only_with_its_certificate(
    tmp_path, monkeypatch, capsys, flag, emptied
):
    # a jump that never happens: both measure sets are the calibrated claim's one measure; the claim
    # leaves the corollary unchecked, so only the certificate can fail the command
    path = edited_scenario(tmp_path, "trinomial_calibrated", lambda data: data.update(jumps=[{"tau": {}, "mark": {}}]))
    assert main(["--format", "json", "informed-compare", path]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert (result["uninformed_arbitrage"], result["informed_arbitrage"]) == (False, False)
    real, calls = enlargement.enumerate_extreme_points, []

    def missing(cs):
        calls.append(cs)
        return VertexSet(()) if len(calls) - 1 == emptied else real(cs)

    monkeypatch.setattr(enlargement, "enumerate_extreme_points", missing)
    assert main(["--format", "json", "informed-compare", path]) == 1
    assert capsys.readouterr().out == canonical_json({"error": CERTIFICATE_MISSING})
    assert len(calls) == 2  # the base set, then the enlarged one


def test_superhedge_command_checks_its_tight_cells(monkeypatch, capsys):
    slacken_a_tight_cell(monkeypatch)
    code = main(["--format", "json", "superhedge", "--payoff", "abs_S1", str(scenario_path("trinomial"))])
    out = capsys.readouterr().out
    assert code == 1
    assert out.count("\n") == 1
    assert "tight cells" in json.loads(out)["error"]


@pytest.mark.parametrize(
    "command",
    [["validate"], ["extremes"], ["complete", "--measure", "0"], ["price", "--payoff", "0,0"], ["informed-compare"]],
    ids=["validate", "extremes", "complete", "price", "informed-compare"],
)
def test_a_filtration_cell_listing_an_outcome_twice_is_an_input_error(tmp_path, capsys, command):
    repeated = {
        "outcomes": ["u", "d"],
        "times": [0, 1],
        "filtration": [[["u", "d", "u"]], [["u", "u"], ["d"]]],
        "prices": [[[0, 0], [1, -1]]],
    }
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps(repeated))
    assert main(["--format", "json", *command, str(path)]) == 2
    message = "invalid model (2 violations; first: partition at P_0: a cell lists an outcome twice)"
    assert capsys.readouterr().out == canonical_json({"error": message})


def test_input_error_exit_code(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    proc = run_cli("validate", str(path))
    assert proc.returncode == 2


def test_unknown_payoff_exit_code():
    proc = run_cli("price", "--payoff", "nope", str(scenario_path("trinomial")))
    assert proc.returncode == 2


def test_not_calibrated_measure_exit_code():
    proc = run_cli("complete", "--measure", "1,0,0", str(scenario_path("trinomial")))
    assert proc.returncode == 2


def test_verify_multinomial_exit_zero():
    code, report = run_json("verify", "--suite", "multinomial", "--pmax", "3", "--mmax", "4")
    assert code == 0 and report["ok"] is True


@pytest.mark.parametrize("pmax, mmax", [("-3", "0"), ("0", "2"), ("2", "0")])
def test_verify_multinomial_rejects_a_size_below_one(pmax, mmax, capsys):
    # a size below one would check zero inequalities and report ok
    argv = ["--format", "json", "verify", "--suite", "multinomial", "--pmax", pmax, "--mmax", mmax]
    assert main(argv) == 2
    out = capsys.readouterr().out
    assert out.count("\n") == 1
    assert json.loads(out) == {"error": f"--pmax and --mmax must be at least 1, got {pmax} and {mmax}"}


@pytest.mark.parametrize("pmax, mmax", [("1", "400"), ("11", "11"), ("1", "1" + "0" * 12)])
def test_verify_multinomial_refuses_work_past_its_budget(pmax, mmax, monkeypatch, capsys):
    # 4.3e7, 1.02e7 and far more composition entries: the refusal comes before any sum is taken
    def refuse(p, m):
        raise RuntimeError("multinomial_lhs ran past the work budget")

    monkeypatch.setattr(bounds, "multinomial_lhs", refuse)
    argv = ["--format", "json", "verify", "--suite", "multinomial", "--pmax", pmax, "--mmax", mmax]
    assert main(argv) == 2
    out = capsys.readouterr().out
    assert out.count("\n") == 1
    message = (
        f"--pmax {pmax} --mmax {mmax} is over the multinomial suite's budget: "
        f"its compositions times their length pass {cli.MULTINOMIAL_BUDGET} entries"
    )
    assert json.loads(out) == {"error": message}


def test_verify_multinomial_within_its_budget_is_unchanged(capsys):
    argv = ["--format", "json", "verify", "--suite", "multinomial", "--pmax", "5", "--mmax", "6"]
    assert main(argv) == 0
    envelope = {"command": "verify", "result": verify.suite_multinomial(5, 6), "ok": True}
    assert capsys.readouterr().out == canonical_json(envelope)


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--suite", "multinomial", "--seed", "5"], "--seed applies only to the randomized suites, not to multinomial"),
        (["--suite", "all", "--seed", "5"], "--seed applies only to the randomized suites, not to all"),
        (["--suite", "all", "--pmax", "2"], "--pmax and --mmax apply only to the multinomial suite, not to all"),
        (
            ["--suite", "duality", "--mmax", "2"],
            "--pmax and --mmax apply only to the multinomial suite, not to duality",
        ),
        (
            ["--suite", "jeulin-yor", "--pmax", "5", "--seed", "1"],
            "--pmax and --mmax apply only to the multinomial suite, not to jeulin-yor",
        ),
    ],
    ids=["seed-multinomial", "seed-all", "pmax-all", "mmax-seeded", "pmax-seeded-with-seed"],
)
def test_verify_rejects_a_flag_its_suite_ignores(flags, message, capsys):
    # the suite would run without reading the flag, and its report would not show that it was dropped
    assert main(["--format", "json", "verify", *flags]) == 2
    out = capsys.readouterr().out
    assert out.count("\n") == 1
    assert json.loads(out) == {"error": message}


@pytest.mark.parametrize("seed", [None, 5], ids=["default-seed", "seed-5"])
def test_verify_runs_a_randomized_suite_as_the_library_does(capsys, seed):
    flags = [] if seed is None else ["--seed", str(seed)]
    assert main(["--format", "json", "verify", "--suite", "jacod-yor", *flags]) == 0
    expected = verify.suite_jacod_yor() if seed is None else verify.suite_jacod_yor(seed=seed)
    assert expected["seed"] == (verify.JACOD_YOR_SEED if seed is None else seed) and expected["ok"]
    assert capsys.readouterr().out == canonical_json({"command": "verify", "result": expected, "ok": True})


def test_verify_multinomial_defaults_are_five_and_six(monkeypatch, capsys):
    sizes = []
    monkeypatch.setattr(cli.verify_suites, "suite_multinomial", lambda p, m: sizes.append((p, m)) or {"ok": True})
    assert main(["--format", "json", "verify", "--suite", "multinomial"]) == 0
    assert main(["--format", "json", "verify", "--suite", "multinomial", "--mmax", "2"]) == 0
    assert sizes == [(5, 6), (5, 2)]


def test_byte_identical_reports():
    first = run_cli("--format", "json", "extremes", str(scenario_path("glued_two_vol")))
    second = run_cli("--format", "json", "extremes", str(scenario_path("glued_two_vol")))
    assert first.stdout == second.stdout
    assert first.stdout.startswith("{")


def test_thread_env_var_has_no_semantic_effect():
    import os
    import subprocess as sp

    args = RUN + ["--format", "json", "duality", "--payoff", "abs_S1", str(scenario_path("trinomial"))]
    plain = sp.run(args, capture_output=True, text=True)
    threaded = sp.run(args, capture_output=True, text=True, env={**os.environ, "SEMISTATIC_THREADS": "8"})
    assert plain.stdout == threaded.stdout and plain.returncode == threaded.returncode == 0
    bad = sp.run(args, capture_output=True, text=True, env={**os.environ, "SEMISTATIC_THREADS": "lots"})
    assert bad.returncode == 2


@pytest.mark.parametrize("threads", ["0", "00", "\u00b2", "-1", "", " 8", "lots"])
def test_thread_env_var_must_be_a_positive_ascii_decimal(monkeypatch, capsys, threads):
    monkeypatch.setenv("SEMISTATIC_THREADS", threads)
    code = main(["--format", "json", "superhedge", "--payoff", "abs_S1", str(scenario_path("trinomial"))])
    out = capsys.readouterr().out
    assert code == 2
    assert out.count("\n") == 1
    assert json.loads(out) == {"error": f"SEMISTATIC_THREADS must be a positive integer, got {threads!r}"}


@pytest.mark.parametrize("threads", ["8", "08", "1" * 5000])
def test_thread_env_var_accepts_positive_decimals(monkeypatch, capsys, threads):
    monkeypatch.setenv("SEMISTATIC_THREADS", threads)
    code = main(["--format", "json", "superhedge", "--payoff", "abs_S1", str(scenario_path("trinomial"))])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True


def test_main_entry_in_process(capsys):
    code = main(["--format", "json", "price", "--payoff", "abs_S1", str(scenario_path("trinomial"))])
    assert code == 0
    out = capsys.readouterr().out
    assert json.loads(out)["result"]["value"] == "1"


def edited_scenario(tmp_path, name, edit):
    data = json.loads(scenario_path(name).read_text())
    edit(data)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(data))
    return str(path)


def set_claim(data):
    data["claims"] = [["1/0", 0, 1]]


def set_tau(value):
    def edit(data):
        data["jumps"][0]["tau"]["u"] = value

    return edit


def set_payoffs_list(data):
    data["payoffs"] = [1]


def set_tau_list(data):
    data["jumps"][0]["tau"] = [0, 1]


@pytest.mark.parametrize(
    "command, name, edit",
    [
        (["validate"], "trinomial", set_claim),
        (["complete", "--measure", "1/0,0,1"], "trinomial", None),
        (["superhedge", "--payoff", "1,x,0"], "trinomial", None),
        (["superhedge", "--payoff", "1/0,0,1"], "trinomial", None),
        (["enlarge"], "initial_enlargement", set_tau(0.7)),
        (["enlarge"], "initial_enlargement", set_tau(True)),
        (["enlarge"], "initial_enlargement", set_tau("0")),
        (["enlarge"], "initial_enlargement", set_tau(5)),
        (["informed-compare"], "initial_enlargement", set_tau(-1)),
        (["validate"], "trinomial", set_payoffs_list),
        (["enlarge"], "initial_enlargement", set_tau_list),
    ],
    ids=["claim-zero-denominator", "measure-zero-denominator", "payoff-not-a-number",
         "payoff-zero-denominator", "tau-float", "tau-bool", "tau-string", "tau-after-horizon",
         "tau-negative", "payoffs-not-a-dict", "tau-not-a-dict"],
)
def test_malformed_number_is_an_input_error(tmp_path, command, name, edit):
    path = edited_scenario(tmp_path, name, edit) if edit else str(scenario_path(name))
    proc = run_cli("--format", "json", *command, path)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 1 and list(json.loads(lines[0])) == ["error"]


ONE_CELL = {
    "outcomes": ["x"],
    "times": [0, 1],
    "filtration": "natural",
    "prices": [[[0], [0]]],
    "claims": [],
    "payoffs": {"one": [1]},
}


def test_bare_integer_measure_on_one_cell_model_hints_at_inline_form(tmp_path):
    path = tmp_path / "one_cell.json"
    path.write_text(json.dumps(ONE_CELL))
    proc = run_cli("--format", "json", "complete", "--measure", "1", str(path))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])["error"]
    assert "vertex index 1 out of range" in error and "p/q, e.g. 1/1" in error
    code, report = run_json("complete", "--measure", "1/1", str(path))
    assert code == 0 and report["result"]["measure"]["weights"] == ["1"]


@pytest.mark.parametrize("command", ["price", "superhedge", "duality"])
def test_one_cell_model_takes_an_inline_payoff_written_p_over_q(tmp_path, capsys, command):
    path = tmp_path / "one_cell.json"
    path.write_text(json.dumps(ONE_CELL))
    assert main(["--format", "json", command, "--payoff", "3/1", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True
    # a bare integer stays a payoff name, as it stays a vertex index for --measure
    assert main(["--format", "json", command, "--payoff", "3", str(path)]) == 2
    assert capsys.readouterr().out == canonical_json({"error": "unknown payoff '3'; scenario defines ['one']"})


def readme_command_lines():
    """The README's command-line examples, as argument lists after ``semistatic``."""
    text = (REPO / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("semistatic ")]


README_LINES = [argv for argv in readme_command_lines() if argv[0] != "verify"]


def run_main(argv):
    """``main(argv)``'s exit code and stdout; argparse's usage exit counts as its code."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def test_readme_lists_every_plain_command():
    assert sorted({argv[0] for argv in README_LINES}) == sorted(set(cli.COMMANDS) - {"verify"})


@pytest.mark.parametrize("argv", README_LINES, ids=[argv[0] for argv in README_LINES])
def test_readme_lines_take_the_plain_path_and_match_their_argparse_spelling(monkeypatch, argv):
    monkeypatch.chdir(REPO)
    # --flag=value is a spelling only argparse reads; text is the default format
    joined = [f"{arg}={value}" for arg, value in zip(argv, argv[1:]) if arg.startswith("--")]
    spelled = [["--format=json", argv[0], *joined, argv[-1]], [argv[0], "--format=text", *joined, argv[-1]]]
    assert [cli._plain_args(line) for line in spelled] == [None, None]
    expected = [run_main(line) for line in spelled]

    def no_parser():
        raise AssertionError("a plain line reached argparse")

    monkeypatch.setattr(cli, "build_parser", no_parser)
    # the benchmark's shape (a leading --format json) and the README's
    assert [run_main(["--format", "json", *argv]), run_main(argv)] == expected
    assert [code for code, _ in expected] == [0, 0]


def test_reused_parser_matches_fresh_parser(capsys):
    trinomial = str(scenario_path("trinomial"))
    calls = [
        ["--format", "json", "extremes", trinomial],
        ["--format", "json", "price", "--payoff", "abs_S1", trinomial],
        ["--format", "json", "complete", "--payoff", "abs_S1", trinomial],  # usage error
        ["complete", "--measure", "1/4,1/2,1/4", trinomial],
        ["--format", "json", "verify", "--suite", "multinomial", "--pmax", "3", "--mmax", "4"],
        ["--format", "json", "duality", "--payoff", "abs_S1", trinomial],
    ]

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    reused = [run(argv) for argv in calls]
    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(run(argv))
    assert reused == fresh
    assert [code for code, _, _ in reused] == [0, 0, 2, 0, 0, 0]
    assert reused[2][1] == "" and "usage:" in reused[2][2]


# every subcommand, in the order argparse lists them
SUBCOMMANDS = (
    "validate", "extremes", "complete", "replicate", "price", "superhedge",
    "duality", "tree", "enlarge", "informed-compare", "verify",
)
USAGE_SHA256 = "295165025189813de0373211de5805d1bd904c61361e104df2ca51526db59b87"


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="argparse's help layout differs between Python versions")
def test_usage_output_is_pinned(monkeypatch, capsys):
    """The top-level help, each subcommand's help and an invalid-choice error, byte for byte."""
    monkeypatch.setenv("COLUMNS", "80")
    calls = [["--help"], *([name, "--help"] for name in SUBCOMMANDS), ["nope"]]
    outputs = []
    for argv in calls:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        outputs.append([argv, exc.value.code, captured.out, captured.err])
    assert [code for _, code, _, _ in outputs] == [0] * 12 + [2]
    assert "invalid choice: 'nope'" in outputs[-1][3]
    assert hashlib.sha256(json.dumps(outputs).encode()).hexdigest() == USAGE_SHA256


def unlimited_str(n):
    """str(n) with Python's int-to-string digit limit lifted for the call only."""
    if not hasattr(sys, "get_int_max_str_digits"):  # Python < 3.10.7 has no limit
        return str(n)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(limit)


def test_extremes_prints_weights_past_the_int_digit_limit(tmp_path, capsys):
    # every price has under 2500 digits, but the vertex weights have more than 4300
    a, b, c, d = 7**2950 + 1, 3**5200 + 2, 11**2380 + 5, 13**2200 + 3
    scenario = {
        "name": "long_prices",
        "outcomes": ["uu", "ud", "du", "dd"],
        "times": [0, 1, 2],
        "filtration": "natural",
        "prices": [[[0, 0, 0, 0], [str(a), str(a), str(-b), str(-b)], [str(a + c), str(a - d), str(c - b), str(-b - d)]]],
        "claims": [],
        "prior_support": "all",
    }
    path = tmp_path / "long_prices.json"
    path.write_text(json.dumps(scenario))
    assert main(["--format", "json", "extremes", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    up, down = Fraction(b, a + b), Fraction(a, a + b)
    expected = [up * Fraction(d, c + d), up * Fraction(c, c + d), down * Fraction(d, c + d), down * Fraction(c, c + d)]
    texts = [f"{unlimited_str(q.numerator)}/{unlimited_str(q.denominator)}" for q in expected]
    assert all(len(part) > 4300 for text in texts for part in text.split("/"))
    assert report["result"]["vertices"] == [{"support": ["uu", "ud", "du", "dd"], "weights": texts}]


def test_run_corpus_script_walks_every_bundled_scenario(capsys):
    assert run_corpus.main() == 0
    headers = [line for line in capsys.readouterr().out.splitlines() if line.startswith("== ")]
    names = sorted(load_scenario(path).name for path in run_corpus.SCENARIOS.glob("*.json"))
    assert names
    assert sorted(line[3:].split(" (")[0] for line in headers) == names
