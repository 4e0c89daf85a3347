"""Batch command line front end.

One logical command per invocation, deterministic reports (canonical JSON or
stable indented text), exit code 0 on pass, 1 on property failure, 2 on input
error.  Measures are addressed by vertex index or given inline as "p/q"
weights; payoffs by name from the scenario file or inline.  ``_plain_args``
reads a plain command line straight from ``COMMANDS`` into the namespace
argparse would build; any other line, help and every usage error go to
argparse.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from itertools import accumulate, chain
from math import comb

from .duality import _phase1_certificate, optimal_face, superhedge, verify_duality
from .enlargement import enlarge, informed_compare, jeulin_yor
from .errors import EmptyMeasureSet, NotCalibrated, NotComplete, SemistaticError
from .hedging import NotReplicable, is_semistatically_complete, replicate
from .model import FilteredModel, Measure, validate_model
from .polytope import enumerate_extreme_points
from .rationals import fmt, rat
from .scenario import Scenario, ScenarioError, canonical_json, load_scenario, parse_inline_measure
from .tree import AtomicTree, NoTree, extract_tree
from . import verify as verify_suites

PASS, FAIL, INPUT_ERROR = 0, 1, 2
MULTINOMIAL_BUDGET = 10**7  # composition entries: --pmax 10 --mmax 10 needs 2.4e6, --pmax 11 --mmax 11 1.02e7


def _emit(report: dict, fmt_mode: str) -> None:
    if fmt_mode == "json":
        sys.stdout.write(canonical_json(report))
    else:
        sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")


def _resolve_measure(arg: str, model: FilteredModel) -> Measure:
    """An inline measure, or a vertex of the model's calibrated measure set."""
    if "," in arg or "/" in arg:
        return parse_inline_measure(arg, model)
    try:
        index = int(arg)
    except ValueError as exc:
        raise ScenarioError(f"measure must be a vertex index or inline weights, got {arg!r}") from exc
    vertex_set = enumerate_extreme_points(model.constraints)
    if not 0 <= index < len(vertex_set.vertices):
        raise ScenarioError(
            f"vertex index {index} out of range ({len(vertex_set.vertices)} vertices); "
            "a single inline weight is written p/q, e.g. 1/1"
        )
    return vertex_set.vertices[index]


def _resolve_payoff(arg: str, scenario: Scenario):
    if arg in scenario.payoffs:
        return scenario.payoffs[arg]
    if "," in arg or "/" in arg:  # as for a measure, so that a one-cell model takes p/q
        try:
            values = [rat(p.strip()) for p in arg.split(",")]
        except (ValueError, TypeError) as exc:
            raise ScenarioError(f"invalid inline payoff: {exc}") from exc
        if len(values) != scenario.model.n_cells:
            raise ScenarioError("inline payoff has the wrong length")
        return tuple(values)
    raise ScenarioError(f"unknown payoff {arg!r}; scenario defines {sorted(scenario.payoffs)}")


def render_tree(tree: AtomicTree, model: FilteredModel) -> list[str]:
    children: dict[int | None, list[int]] = {}
    for i, p in enumerate(tree.parents):
        children.setdefault(p, []).append(i)

    lines: list[str] = []

    def walk(index: int, prefix: str, connector: str) -> None:
        node = tree.nodes[index]
        lines.append(f"{prefix}{connector}{model.cell_label(node.cell)} (birth {node.birth})")
        if connector == "":
            child_prefix = prefix
        elif connector.startswith("`"):
            child_prefix = prefix + "   "
        else:
            child_prefix = prefix + "|  "
        kids = children.get(index, [])
        for pos, kid in enumerate(kids):
            walk(kid, child_prefix, "`- " if pos == len(kids) - 1 else "|- ")

    for root in children.get(None, []):
        walk(root, "", "")
    return lines


def _cmd_validate(scenario: Scenario, args) -> tuple[dict, int]:
    report = validate_model(scenario.model)
    return report.to_json(), PASS if report.ok else INPUT_ERROR


def _cmd_extremes(scenario: Scenario, args) -> tuple[dict, int]:
    vertex_set = enumerate_extreme_points(scenario.model.constraints)
    if not vertex_set.vertices:  # the arbitrage flag holds only with the phase-1 checked certificate
        _phase1_certificate(scenario.model)
    result = {
        "count": len(vertex_set.vertices),
        "vertices": vertex_set.to_json(scenario.model),
        "empty_is_arbitrage": len(vertex_set.vertices) == 0,
    }
    return result, PASS


def _cmd_complete(scenario: Scenario, args) -> tuple[dict, int]:
    measure = _resolve_measure(args.measure, scenario.model)
    report = is_semistatically_complete(measure, scenario.model)
    result = report.to_json()
    result["measure"] = measure.to_json(scenario.model)
    return result, PASS


def _cmd_replicate(scenario: Scenario, args) -> tuple[dict, int]:
    model = scenario.model
    measure = _resolve_measure(args.measure, model)
    payoff = _resolve_payoff(args.payoff, scenario)
    outcome = replicate(payoff, measure, model)
    if isinstance(outcome, NotReplicable):
        return outcome.to_json(), PASS
    return {"replicable": True, "strategy": outcome.to_json(model)}, PASS


def _cmd_price(scenario: Scenario, args) -> tuple[dict, int]:
    payoff = _resolve_payoff(args.payoff, scenario)
    _, result = optimal_face(payoff, scenario.model)
    return result.to_json(scenario.model), PASS


def _cmd_superhedge(scenario: Scenario, args) -> tuple[dict, int]:
    payoff = _resolve_payoff(args.payoff, scenario)
    result = superhedge(payoff, scenario.model)
    return result.to_json(scenario.model), PASS


def _cmd_duality(scenario: Scenario, args) -> tuple[dict, int]:
    payoff = _resolve_payoff(args.payoff, scenario)
    try:
        report = verify_duality(payoff, scenario.model)
    except EmptyMeasureSet:
        # the unbounded superhedge already proves the set empty (LP duality);
        # phase 1's checked certificate is the independent proof
        arb = _phase1_certificate(scenario.model)
        return {"status": "arbitrage", "certificate": arb.to_json(scenario.model)}, PASS
    return report.to_json(scenario.model), PASS if report.ok else FAIL


def _cmd_tree(scenario: Scenario, args) -> tuple[dict, int]:
    model = scenario.model
    measure = _resolve_measure(args.measure, model)
    outcome = extract_tree(measure, model)
    if isinstance(outcome, NoTree):
        return outcome.to_json(model), PASS
    result = outcome.to_json(model)
    result["render"] = render_tree(outcome, model)
    return result, PASS


def _cmd_enlarge(scenario: Scenario, args) -> tuple[dict, int]:
    model = scenario.model
    if not scenario.jumps:
        raise ScenarioError("scenario declares no jumps to enlarge with")
    enlarged = enlarge(model, scenario.jumps)
    result: dict = {
        "jumps": [j.to_json(model) for j in scenario.jumps],
        "enlarged_partitions": [list(labels) for labels in enlarged.model.partition_labels],
    }
    if args.measure is not None:
        measure = _resolve_measure(args.measure, enlarged.model)
        per_jump = []
        for jump in scenario.jumps:
            jy = jeulin_yor(measure, jump, enlarged)
            z, comp = jy.azema, jy.compensator
            per_jump.append(
                {
                    "azema": [[fmt(x) for x in row] for row in z.values],
                    "supermartingale_ok": z.supermartingale_ok,
                    "compensator_increments": [[fmt(x) for x in row] for row in comp.increments],
                    "predictable_ok": comp.predictable_ok,
                    "compensated_martingale_ok": comp.martingale_ok,
                    "jeulin_yor": [[fmt(x) for x in row] for row in jy.values],
                    "martingale_ok": jy.martingale_ok,
                }
            )
        result["measure"] = measure.to_json(enlarged.model)
        result["per_jump"] = per_jump
        checks = ("supermartingale_ok", "predictable_ok", "compensated_martingale_ok", "martingale_ok")
        ok = all(p[check] for p in per_jump for check in checks)
        return result, PASS if ok else FAIL
    return result, PASS


def _cmd_informed_compare(scenario: Scenario, args) -> tuple[dict, int]:
    if not scenario.jumps:
        raise ScenarioError("scenario declares no jumps to compare with")
    report, enlarged = informed_compare(scenario.model, scenario.jumps, scenario.payoffs)
    code = PASS
    if report.corollary_equal is False:
        code = FAIL
    return report.to_json(enlarged), code


def _cmd_verify(scenario: None, args) -> tuple[dict, int]:
    """Run one suite; a flag the suite does not read (so it would be ignored) is an input error."""
    if args.suite != "multinomial" and (args.pmax is not None or args.mmax is not None):
        raise ScenarioError(f"--pmax and --mmax apply only to the multinomial suite, not to {args.suite}")
    if args.suite in ("multinomial", "all") and args.seed is not None:
        raise ScenarioError(f"--seed applies only to the randomized suites, not to {args.suite}")
    if args.suite == "all":
        report = verify_suites.suite_all()
    elif args.suite == "multinomial":
        pmax = 5 if args.pmax is None else args.pmax
        mmax = 6 if args.mmax is None else args.mmax
        if pmax < 1 or mmax < 1:
            raise ScenarioError(f"--pmax and --mmax must be at least 1, got {pmax} and {mmax}")
        # C(p+m-1, p) compositions of length m per (p, m), the anchors first; m >= p caps p at mmax
        sizes = chain([(2, 2)], ((1, m) for m in range(1, mmax + 1)),
                      ((p, m) for p in range(1, min(pmax, mmax) + 1) for m in range(p, mmax + 1)))
        if any(work > MULTINOMIAL_BUDGET for work in accumulate(comb(p + m - 1, p) * m for p, m in sizes)):
            raise ScenarioError(f"--pmax {pmax} --mmax {mmax} is over the multinomial suite's budget: "
                                f"its compositions times their length pass {MULTINOMIAL_BUDGET} entries")
        report = verify_suites.suite_multinomial(pmax, mmax)
    else:
        fn = verify_suites.SUITES[args.suite]
        report = fn() if args.seed is None else fn(seed=args.seed)
    return report, PASS if report["ok"] else FAIL


FORMATS = ("json", "text")
_SCENARIO = ("scenario", {"help": "path to a scenario JSON file"})
_MEASURE = ("--measure", {"required": True})
_PAYOFF = ("--payoff", {"required": True})

# name -> (handler, arguments after --format in usage order); a command with a
# scenario argument gets the loaded scenario, the others get None
COMMANDS = {
    "validate": (_cmd_validate, (_SCENARIO,)),
    "extremes": (_cmd_extremes, (_SCENARIO,)),
    "complete": (_cmd_complete, (_MEASURE, _SCENARIO)),
    "replicate": (_cmd_replicate, (_PAYOFF, _MEASURE, _SCENARIO)),
    "price": (_cmd_price, (_PAYOFF, _SCENARIO)),
    "superhedge": (_cmd_superhedge, (_PAYOFF, _SCENARIO)),
    "duality": (_cmd_duality, (_PAYOFF, _SCENARIO)),
    "tree": (_cmd_tree, (_MEASURE, _SCENARIO)),
    "enlarge": (_cmd_enlarge, (("--measure", {"default": None}), _SCENARIO)),
    "informed-compare": (_cmd_informed_compare, (_SCENARIO,)),
    "verify": (
        _cmd_verify,
        (
            ("--suite", {"required": True, "choices": sorted(verify_suites.SUITES) + ["all"]}),
            ("--pmax", {"type": int, "default": None}),  # 5 and 6 in the handler, so that a given flag shows
            ("--mmax", {"type": int, "default": None}),
            ("--seed", {"type": int, "default": None}),
        ),
    ),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and reused by every later call."""
    parser = argparse.ArgumentParser(
        prog="semistatic",
        description="Exact-rational analysis of semi-static hedging on finite filtered market models.",
    )
    parser.add_argument("--format", dest="format_global", choices=FORMATS, default=None)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, arguments) in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--format", dest="format_sub", choices=FORMATS, default=None)
        for flag, kwargs in arguments:
            p.add_argument(flag, **kwargs)
    return parser


def _plain_args(argv: list[str]) -> argparse.Namespace | None:
    """``build_parser().parse_args(argv)``'s namespace for a plain line, read from ``COMMANDS``; else None.

    A plain line is an optional leading ``--format json|text``, then a command
    whose arguments take no ``type`` or ``choices``, then its flags, its
    ``--format`` and its scenario path in any order: each flag spelled in
    full, given once and followed by a value that does not start with ``-``.
    """
    args = argparse.Namespace(format_global=None)
    if len(argv) > 1 and argv[0] == "--format" and argv[1] in FORMATS:
        args.format_global, argv = argv[1], argv[2:]
    if not argv or argv[0] not in COMMANDS:
        return None
    args.command, args.format_sub = argv[0], None
    flags, positionals, required = {"--format": "format_sub"}, [], set()  # flag -> dest
    for name, kwargs in COMMANDS[argv[0]][1]:
        if not kwargs.keys() <= {"required", "default", "help"}:
            return None  # argparse converts and checks the value
        if not name.startswith("-"):
            positionals.append(name)
            continue
        flags[name] = name[2:].replace("-", "_")
        setattr(args, flags[name], kwargs.get("default"))
        if kwargs.get("required"):
            required.add(name)
    given, values = set(), []
    rest = iter(argv[1:])
    for arg in rest:
        if arg in flags:
            value = next(rest, "-")
            if arg in given or value.startswith("-") or (arg == "--format" and value not in FORMATS):
                return None
            given.add(arg)
            setattr(args, flags[arg], value)
        elif arg.startswith("-"):
            return None
        else:
            values.append(arg)
    if len(values) != len(positionals) or not required <= given:
        return None
    for name, value in zip(positionals, values):
        setattr(args, name, value)
    return args


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _plain_args(argv) or build_parser().parse_args(argv)
    args.format = args.format_sub or args.format_global or "text"
    threads = os.environ.get("SEMISTATIC_THREADS")
    # an ASCII decimal above zero; not int(), which rejects more than 4300 digits
    if threads is not None and not (threads.isascii() and threads.isdigit() and threads.strip("0")):
        # accepted for compatibility; evaluation is sequential and deterministic
        _emit({"error": f"SEMISTATIC_THREADS must be a positive integer, got {threads!r}"}, args.format)
        return INPUT_ERROR
    handler, _ = COMMANDS[args.command]
    try:
        scenario = load_scenario(args.scenario) if "scenario" in args else None
        result, code = handler(scenario, args)
    except (ScenarioError, NotCalibrated, NotComplete) as exc:
        _emit({"error": str(exc)}, args.format)
        return INPUT_ERROR
    except SemistaticError as exc:
        _emit({"error": str(exc)}, args.format)
        return FAIL
    envelope = {"command": args.command, "result": result, "ok": code == PASS}
    if scenario is not None:
        envelope["scenario"] = scenario.name
    _emit(envelope, args.format)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
