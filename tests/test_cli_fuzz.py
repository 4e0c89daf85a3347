"""Input-contract fuzzing of the command line.

Every run of ``cli.main`` on malformed input must end with exit code 0, 1 or
2 (or argparse's usage exit 2), and print one JSON line: never a traceback.
"""

import contextlib
import hashlib
import io
import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semistatic import cli
from semistatic.cli import main
from tests.conftest import SCENARIOS

BUNDLED = {path.stem: json.loads(path.read_text()) for path in sorted(SCENARIOS.glob("*.json"))}
REPLACEMENTS = [None, True, 0.5, "1/0", [], {}, 2**200]
COMMANDS = [
    ["validate"],
    ["extremes"],
    ["complete", "--measure", "0"],
    ["replicate", "--measure", "0", "--payoff", "abs_S1"],
    ["price", "--payoff", "abs_S1"],
    ["superhedge", "--payoff", "abs_S1"],
    ["duality", "--payoff", "abs_S1"],
    ["tree", "--measure", "0"],
    ["enlarge", "--measure", "0"],
    ["informed-compare"],
]


def locations(node, prefix=()):
    """The key path of every value below the root of a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from locations(value, prefix + (key,))


@st.composite
def mutated_scenarios(draw):
    """A bundled scenario with one value deleted or replaced by a malformed one."""
    data = json.loads(json.dumps(BUNDLED[draw(st.sampled_from(sorted(BUNDLED)))]))
    *parents, key = draw(st.sampled_from(list(locations(data))))
    container = data
    for step in parents:
        container = container[step]
    replacement = draw(st.sampled_from(["delete"] + REPLACEMENTS))
    if replacement == "delete":
        del container[key]
    else:
        container[key] = replacement
    return data


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(["--format", "json", *argv])
        except SystemExit as exc:
            assert exc.code == 2 and "usage:" in err.getvalue()
            return 2
    assert code in (0, 1, 2)
    lines = out.getvalue().splitlines()
    assert len(lines) == 1 and isinstance(json.loads(lines[0]), dict)
    return code


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=150, deadline=None)
@given(data=mutated_scenarios(), command=st.sampled_from(COMMANDS))
def test_mutated_scenarios_keep_the_exit_code_contract(scratch, data, command):
    path = scratch / "mutated.json"
    path.write_text(json.dumps(data))
    run([*command, str(path)])


ARGUMENT_TEXT = st.one_of(
    st.text(alphabet="0123456789/,-+. abxe", max_size=24),
    st.text(max_size=12),
)


@settings(max_examples=150, deadline=None)
@given(
    name=st.sampled_from(sorted(BUNDLED)),
    command=st.sampled_from(["complete", "tree", "enlarge", "replicate", "price", "superhedge", "duality"]),
    measure=ARGUMENT_TEXT,
    payoff=ARGUMENT_TEXT,
)
def test_random_measure_and_payoff_strings_keep_the_exit_code_contract(name, command, measure, payoff):
    flags = {
        "complete": ["--measure", measure],
        "tree": ["--measure", measure],
        "enlarge": ["--measure", measure],
        "replicate": ["--measure", measure, "--payoff", payoff],
    }.get(command, ["--payoff", payoff])
    run([command, *flags, str(SCENARIOS / f"{name}.json")])


@pytest.mark.parametrize(
    "content",
    [b'{"outcomes": [1' + b"0" * 5000 + b"]}", b"\xff\xfe\x00 not text"],
    ids=["integer-beyond-digit-limit", "not-utf8"],
)
def test_unreadable_scenario_is_an_input_error(scratch, content):
    path = scratch / "unreadable.json"
    path.write_bytes(content)
    assert run(["validate", str(path)]) == 2


def test_every_single_value_mutation_of_the_bundled_scenarios_keeps_its_validate_report(scratch):
    """Pin ``validate`` on each bundled scenario with one value deleted or replaced.

    Every key path of every bundled file gets each entry of ``REPLACEMENTS``
    and a deletion: 2240 scenarios.  The exit-code counts and one sha256 over
    (file, key path, replacement, exit code, stdout) are pinned, so a change
    to the parser that alters any error message, or which input it rejects,
    fails here.
    """
    path = scratch / "mutated.json"
    digest, codes = hashlib.sha256(), Counter()
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
                path.write_text(json.dumps(data))
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = main(["--format", "json", "validate", str(path)])
                codes[code] += 1
                record = [name, [*parents, key], repr(replacement), code, out.getvalue()]
                digest.update(json.dumps(record).encode() + b"\n")
    assert dict(codes) == {0: 372, 2: 1868}
    assert digest.hexdigest() == "2d9ae3c83d54609d88b32f766fd46ddc4ffafbffdb5aa4ba9656f2f57030e641"


FLAGS = sorted({flag for _, arguments in cli.COMMANDS.values() for flag, _ in arguments if flag.startswith("-")})
PLAIN_VALUES = ["json", "text", "p.json", "0", "1/4,1/2,1/4", "abs_S1", "3", ""]
OTHER_VALUES = ["xml", "-1", "-1,2", "-", "--", "-h", "--help"]
WORDS = [*cli.COMMANDS, *FLAGS, *PLAIN_VALUES, *OTHER_VALUES, "--format", "--meas", "--pay", "--form", "--measure=0"]


@st.composite
def command_lines(draw):
    """Command lines built from a command's own flags and a path, in any order, mostly plain.

    Values and stray words bring in the spellings that only argparse reads:
    abbreviations, ``--flag=value``, ``--``, ``-``, values starting with
    ``-``, ``--help``, ``-h``, a bad ``--format`` value, a repeated flag and a
    second positional.
    """
    prefixes = [[], [], ["--format", "json"], ["--format", "text"], ["--format", "xml"], ["--format"]]
    prefix = draw(st.sampled_from(prefixes))
    command = draw(st.sampled_from([*cli.COMMANDS, "nope", None]))
    flags = [flag for flag, _ in cli.COMMANDS.get(command, (None, ()))[1] if flag.startswith("-")] + ["--format"]
    value = st.sampled_from(PLAIN_VALUES * 3 + OTHER_VALUES)
    often = st.sampled_from([1, 1, 1, 0])
    pieces = [[flag, draw(value)] for flag in flags if draw(often)]
    pieces += [["p.json"]] * draw(often)
    pieces += [[draw(st.sampled_from(WORDS))] for _ in range(draw(st.sampled_from([0, 0, 1, 2])))]
    words = [word for piece in draw(st.permutations(pieces)) for word in piece]
    return [*prefix, *[command] * (command is not None), *words]


@settings(max_examples=1000, deadline=None)
@given(argv=command_lines())
def test_a_plain_line_parses_as_argparse_parses_it(argv):
    plain = cli._plain_args(argv)
    if plain is None:
        return
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            parsed = cli.build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"argparse rejects a plain line {argv}: {err.getvalue()}")
    assert vars(plain) == vars(parsed)


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        ["price", "-h"],
        ["price", "--pay", "abs_S1", "p.json"],
        ["price", "--payoff=abs_S1", "p.json"],
        ["price", "--payoff", "abs_S1", "--", "p.json"],
        ["price", "--payoff", "abs_S1", "-"],
        ["price", "--payoff", "-1,2", "p.json"],
        ["price", "--payoff", "a", "--payoff", "b", "p.json"],
        ["price", "--payoff", "abs_S1", "p.json", "q.json"],
        ["price", "p.json"],
        ["nope", "p.json"],
        ["--format", "xml", "validate", "p.json"],
        ["validate", "--format", "xml", "p.json"],
        ["verify", "--suite", "all"],
    ],
)
def test_every_other_spelling_is_left_to_argparse(argv):
    assert cli._plain_args(argv) is None
