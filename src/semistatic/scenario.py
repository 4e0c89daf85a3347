"""Scenario files: JSON ingestion and serialization codecs.

A scenario is a model plus optional jumps and named payoffs.  Rationals on
the wire are integers or canonical "p/q" strings; floats are rejected.  Claim
and payoff vectors are given per outcome and quotiented onto the terminal
partition at load time, which must leave them well defined.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Sequence

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
    description: str
    model: FilteredModel
    jumps: tuple = ()
    payoffs: dict[str, Payoff] = field(default_factory=dict)
    notes: str = ""


def _quotient(values: Sequence[Fraction], cells: Sequence[Sequence[int]], what: str) -> Payoff:
    out = []
    for cell in cells:
        if len(cell) > 1 and not is_constant_on(values, cell):
            raise ScenarioError(f"{what} is not constant on the terminal cell {sorted(cell)}")
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
        return tuple(map(self.number, tokens))


def load_scenario(path: str | Path) -> Scenario:
    file = Path(path)
    try:
        data = json.loads(file.read_text())
    except (OSError, ValueError) as exc:  # ValueError: bad JSON, bad UTF-8, or an integer past the digit limit
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
    return parse_scenario(data, name_hint=file.stem)


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
            _quotient(numbers.vector(payoff), terminal, f"claim {i}")
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

        from .enlargement import SingleJump  # local import to avoid a cycle

        jumps = []
        for j in data.get("jumps", []):
            tau = [None] * len(outcomes)
            mark = [ZERO] * len(outcomes)
            for w, t in j["tau"].items():
                if t != "inf" and (not isinstance(t, int) or isinstance(t, bool)):
                    raise ScenarioError(f'jump time of {w!r} must be an integer or "inf", got {t!r}')
                if t != "inf" and not 0 <= t <= model.horizon:
                    raise ScenarioError(f"jump time of {w!r} must lie in the grid 0..{model.horizon}, got {t}")
                tau[index[w]] = None if t == "inf" else t
            for w, x in j["mark"].items():
                mark[index[w]] = numbers.number(x)
            jumps.append(SingleJump(tuple(tau), tuple(mark)))

        payoffs = {
            name: _quotient(numbers.vector(vec), terminal, f"payoff {name}")
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
    return Scenario(
        name=str(data.get("name", name_hint)),
        description=str(data.get("description", "")),
        model=model,
        jumps=tuple(jumps),
        payoffs=payoffs,
        notes=str(data.get("notes", "")),
    )


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
