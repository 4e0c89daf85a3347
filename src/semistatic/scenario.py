"""Scenario files: JSON ingestion and serialization codecs.

A scenario is a model plus optional jumps and named payoffs.  Rationals on
the wire are integers or canonical "p/q" strings; floats are rejected.  Claim
and payoff vectors are given with one entry per outcome and quotiented onto
the terminal partition at load time, which must leave them well defined.

A file is read as UTF-8 whatever the locale.  A UTF-8 BOM is an error, as
``json`` reports it ("Unexpected UTF-8 BOM"), and line endings do not
matter: "\\r\\n" and lone "\\r" read as "\\n".
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .enlargement import SingleJump
from .errors import SemistaticError
from .model import (
    FilteredModel,
    Measure,
    Partition,
    Payoff,
    is_constant_on,
    natural_filtration,
    validate_model,
)
from .rationals import rat

ZERO = Fraction(0)


class ScenarioError(SemistaticError):
    """Malformed or invalid scenario input."""


@dataclass(frozen=True)
class Scenario:
    name: str
    model: FilteredModel
    jumps: tuple
    payoffs: dict[str, Payoff]


def _quotient(values: Sequence[Fraction], n: int, cells: Sequence[Sequence[int]], kind: str, key) -> Payoff:
    """The values of one vector of ``n`` entries, one per outcome, on the terminal cells; ``kind`` and ``key`` name it."""
    if len(values) != n:
        raise ScenarioError(f"{kind} {key} has {len(values)} entries, expected {n}, one per outcome")
    out = []
    for cell in cells:
        if len(cell) > 1 and not is_constant_on(values, cell):
            raise ScenarioError(f"{kind} {key} is not constant on the terminal cell {sorted(cell)}")
        out.append(values[cell[0]])
    return tuple(out)


class _Numbers(dict):
    """Wire tokens to Fractions for one parse: equal tokens are parsed once and share one Fraction.

    Only ``str`` and ``int`` tokens are keys, so a bool or a float never
    meets the int it compares equal to, and ``rat`` rejects it.
    """

    def __missing__(self, token: str | int) -> Fraction:
        value = self[token] = rat(token)
        return value

    def number(self, token) -> Fraction:
        return self[token] if type(token) is str or type(token) is int else rat(token)

    def vector(self, tokens) -> tuple[Fraction, ...]:
        return tuple([self[t] if type(t) is str or type(t) is int else rat(t) for t in tokens])


def load_scenario(path: str | os.PathLike) -> Scenario:
    """Read the file at ``path`` and parse it; the name defaults to the file name without its suffix.

    The bytes are read once and decoded as UTF-8, keeping a BOM for ``json``
    to reject.  Line endings are translated as text mode translates them, so
    a JSON error's line, column and offset do not depend on them.
    """
    file = os.fsdecode(path)  # a str or a PathLike; an int, which ``open`` reads as a descriptor, raises TypeError
    try:
        with open(file, "rb") as stream:
            text = stream.read().decode("utf-8")
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        data = json.loads(text)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON, bad UTF-8, or an integer past the digit limit
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
    name = os.path.basename(file)
    dot = name.rfind(".")  # pathlib's stem: a leading or trailing dot starts no suffix
    return parse_scenario(data, name_hint=name[:dot] if 0 < dot < len(name) - 1 else name)


def parse_scenario(data: dict, name_hint: str = "scenario") -> Scenario:
    numbers = _Numbers()
    try:
        outcomes = tuple(map(str, data["outcomes"]))
        if len(set(outcomes)) != len(outcomes):
            raise ScenarioError("outcome labels must be unique")
        index = {w: i for i, w in enumerate(outcomes)}
        times = numbers.vector(data["times"])
        prices = tuple(tuple(map(numbers.vector, asset)) for asset in data["prices"])

        spec = data.get("filtration", "natural")
        if spec == "natural":
            partitions = natural_filtration(prices)
        else:
            partitions = tuple(Partition([[index[w] for w in cell] for cell in cells]) for cells in spec)

        terminal = partitions[-1].cells
        claims = tuple(
            _quotient(numbers.vector(payoff), len(outcomes), terminal, "claim", i)
            for i, payoff in enumerate(data.get("claims", []))
        )

        support_spec = data.get("prior_support", "all")
        if support_spec == "all":
            allowed = frozenset(range(len(terminal)))
        else:
            listed = {index[w] for w in support_spec}
            allowed = set()
            for c, cell in enumerate(terminal):
                hit = listed.intersection(cell)
                if hit and not set(cell) <= listed:
                    raise ScenarioError(
                        f"prior support lists part of the terminal cell {sorted(cell)}"
                    )
                if hit:
                    allowed.add(c)
            allowed = frozenset(allowed)

        model = FilteredModel(outcomes, times, partitions, prices, claims, allowed)

        jumps = []
        horizon = model.horizon
        for j in data.get("jumps", []):
            tau = [None] * len(outcomes)
            mark = [ZERO] * len(outcomes)
            for w, t in j["tau"].items():
                if t == "inf":
                    t = None
                elif not isinstance(t, int) or isinstance(t, bool):
                    raise ScenarioError(f'jump time of {w!r} must be an integer or "inf", got {t!r}')
                elif not 0 <= t <= horizon:
                    raise ScenarioError(f"jump time of {w!r} must lie in the grid 0..{horizon}, got {t}")
                tau[index[w]] = t
            for w, x in j["mark"].items():
                mark[index[w]] = numbers.number(x)
            jumps.append(SingleJump(tuple(tau), tuple(mark)))

        payoffs = {
            name: _quotient(numbers.vector(vec), len(outcomes), terminal, "payoff", name)
            for name, vec in data.get("payoffs", {}).items()
        }
    except ScenarioError:
        raise
    except (KeyError, ValueError, TypeError, IndexError, AttributeError) as exc:
        raise ScenarioError(f"malformed scenario: {exc}") from exc

    report = validate_model(model)
    if not report.ok:
        first = report.violations[0]
        raise ScenarioError(
            f"invalid model ({len(report.violations)} violations; first: {first.code} at {first.where}: {first.message})"
        )
    return Scenario(str(data.get("name", name_hint)), model, tuple(jumps), payoffs)


def parse_inline_measure(text: str, model: FilteredModel) -> Measure:
    """Comma-separated "p/q" weights over terminal cells, e.g. "1/4,1/2,1/4"."""
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != model.n_cells:
        raise ScenarioError(
            f"inline measure has {len(parts)} weights, model has {model.n_cells} terminal cells"
        )
    try:
        return model.measure([rat(p) for p in parts])
    except (ValueError, TypeError) as exc:
        raise ScenarioError(f"invalid inline measure: {exc}") from exc


def canonical_json(obj) -> str:
    """Deterministic serialization: sorted keys, tight separators, newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
