#!/usr/bin/env python3
"""One digest of every CLI report over a fixed corpus.

Runs ``semistatic.cli.main`` in-process with ``--format json`` over the
bundled scenarios and 300 seeded random models (about half of them with a
jump), and prints the count of each exit code and one sha256 over every
(command with the scenario's basename, exit code, stdout) triple.  The
commands are ``extremes``, ``complete``, ``replicate``, ``tree``, ``price``,
``superhedge`` and ``duality``, plus ``enlarge`` and ``informed-compare``
where a model has jumps.

Two commits give the same digest exactly when every report is byte-identical:

    PYTHONPATH=src python scripts/report_digest.py
    PYTHONPATH=<other checkout>/src python scripts/report_digest.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import tempfile
from collections import Counter
from fractions import Fraction
from pathlib import Path

from semistatic import cli, sampling
from semistatic.rationals import fmt

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
SEED = 20150
N_MODELS = 300


def scenario_json(name: str, model, jumps, payoffs: dict) -> dict:
    """A scenario file for the model; claims and payoffs are spread back onto outcomes."""
    cell_of = model.terminal_cell_of_outcome
    outcomes = model.outcomes

    def per_outcome(vec):
        return [fmt(vec[cell_of[w]]) for w in range(len(outcomes))]

    return {
        "name": name,
        "outcomes": list(outcomes),
        "times": [fmt(t) for t in model.times],
        "filtration": [
            [[outcomes[w] for w in cell] for cell in partition.cells]
            for partition in model.partitions
        ],
        "prices": [[[fmt(Fraction(x, scale)) for x in row] for row in rows] for rows, scale in model.int_prices],
        "claims": [per_outcome([Fraction(x, scale) for x in row]) for row, scale in model.int_claims],
        "prior_support": [outcomes[w] for a in sorted(model.allowed) for w in model.terminal_cells[a]],
        "jumps": [
            {
                "tau": {w: "inf" if t is None else t for w, t in zip(outcomes, jump.tau)},
                "mark": {w: fmt(x) for w, x in zip(outcomes, jump.mark)},
            }
            for jump in jumps
        ],
        "payoffs": {key: per_outcome(vec) for key, vec in payoffs.items()},
    }


def commands(path: Path, payoffs, has_jumps: bool) -> list[list[str]]:
    scenario = str(path)
    out = [["extremes", scenario]]
    for measure in ("0", "1"):
        out.append(["complete", "--measure", measure, scenario])
        out.append(["tree", "--measure", measure, scenario])
        for payoff in payoffs:
            out.append(["replicate", "--payoff", payoff, "--measure", measure, scenario])
    for payoff in payoffs:
        for command in ("price", "superhedge", "duality"):
            out.append([command, "--payoff", payoff, scenario])
    if has_jumps:
        out.append(["enlarge", scenario])
        out.append(["enlarge", "--measure", "0", scenario])
        out.append(["informed-compare", scenario])
    return out


def run(argv: list[str]) -> tuple[int, str]:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(["--format", "json", *argv])
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # the CLI itself would exit 1 with a traceback
            code = 1
            print(f"raised {type(exc).__name__}: {exc}")
    return code, stdout.getvalue()


def corpus(workdir: Path) -> list[list[str]]:
    out = []
    for path in sorted(SCENARIOS.glob("*.json")):
        data = json.loads(path.read_text())
        out.extend(commands(path, sorted(data.get("payoffs", {})), bool(data.get("jumps"))))
    rng = random.Random(SEED)
    for i in range(N_MODELS):
        model, _ = sampling.random_model(rng)
        jumps = [sampling.random_jump(rng, model)] if rng.random() < 0.5 else []
        payoffs = {f"p{n}": sampling.random_payoff(rng, model) for n in range(2)}
        path = workdir / f"random_{i:03d}.json"
        path.write_text(json.dumps(scenario_json(path.stem, model, jumps, payoffs)))
        out.extend(commands(path, sorted(payoffs), bool(jumps)))
    return out


def report_digest() -> tuple[Counter, str]:
    """The count of each exit code over the corpus and the sha256 of every report."""
    digest = hashlib.sha256()
    codes: Counter = Counter()
    with tempfile.TemporaryDirectory() as tmp:
        for argv in corpus(Path(tmp)):
            code, stdout = run(argv)
            codes[code] += 1
            shown = argv[:-1] + [Path(argv[-1]).name]
            digest.update(json.dumps([shown, code, stdout]).encode() + b"\n")
    return codes, digest.hexdigest()


def main() -> int:
    codes, sha256 = report_digest()
    print(f"commands: {sum(codes.values())}")
    print("exit codes: " + " ".join(f"{code}={count}" for code, count in sorted(codes.items())))
    print(f"sha256: {sha256}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
