"""Scenario files: JSON ingestion and serialization codecs.

A scenario is a model plus optional jumps and named payoffs.  Rationals on
the wire are integers or canonical "p/q" strings; floats are rejected, and
every list of the format must be a JSON array.  Claim and payoff vectors are
given with one entry per outcome and quotiented onto the terminal partition
at load time, which must leave them well defined.  Price and claim tokens are
read straight into the model's int tables, with no Fraction built for them.

A file is read as UTF-8 whatever the locale.  A UTF-8 BOM is an error, as
``json`` reports it ("Unexpected UTF-8 BOM"), and line endings do not
matter: "\\r\\n" and lone "\\r" read as "\\n".
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from typing import NamedTuple, Sequence

from .enlargement import SingleJump
from .errors import SemistaticError
from .model import (
    FilteredModel,
    Measure,
    Partition,
    Payoff,
    int_table,
    is_constant_on,
    natural_filtration,
    validate_model,
)
from .rationals import ratio

ZERO = Fraction(0)


class ScenarioError(SemistaticError):
    """Malformed or invalid scenario input."""


class Scenario(NamedTuple):
    name: str
    model: FilteredModel
    jumps: tuple
    payoffs: dict[str, Payoff]


def _quotient(values: Sequence, n: int, cells: Sequence[Sequence[int]] | None, kind: str, key) -> tuple:
    """The values of one vector of ``n`` entries, one per outcome, on the terminal cells (None: on the outcomes)."""
    if len(values) != n:
        raise ScenarioError(f"{kind} {key} has {len(values)} entries, expected {n}, one per outcome")
    if cells is None:
        return tuple(values)
    out = []
    for cell in cells:
        if not is_constant_on(values, cell):
            raise ScenarioError(f"{kind} {key} is not constant on the terminal cell {sorted(cell)}")
        out.append(values[cell[0]])
    return tuple(out)


def _array(value, *where) -> list:
    """``value`` if it is a JSON array, else a ScenarioError naming it by its key path ``where``."""
    if type(value) is not list:
        path = where[0] + "".join(f"[{key}]" for key in where[1:])
        raise ScenarioError(f"malformed scenario: {path} must be a JSON array")
    return value


def _arrays(value, *where) -> list:
    """``value`` if it is a JSON array of JSON arrays, else ``_array``'s error for it or for its first other entry."""
    if not {list}.issuperset(map(type, _array(value, *where))):  # 1% of the floor, kept to hold it within 3%
        for i, item in enumerate(value):
            _array(item, *where, i)
    return value


class _Numbers(dict):
    """Wire tokens to ``ratio``'s int or (numerator, denominator) pair for one parse: equal tokens are read once.

    Only ``str`` and ``int`` tokens are keys, so a bool or a float never
    meets the int it compares equal to, and ``ratio`` rejects it.  Without
    the cache the floor rises 2-4%.
    """

    def __missing__(self, token: str | int) -> int | tuple[int, int]:
        value = self[token] = ratio(token)
        return value

    def number(self, token) -> int | Fraction:  # a time, a payoff entry or a jump mark
        value = self[token] if type(token) is str or type(token) is int else ratio(token)
        return value if type(value) is int else Fraction(*value)

    def row(self, tokens, *where) -> tuple:
        """Each token of the JSON array at key path ``where`` read as ``ratio`` reads it."""
        return tuple([self[t] if type(t) is str or type(t) is int else ratio(t) for t in _array(tokens, *where)])


def load_scenario(path: str | os.PathLike) -> Scenario:
    """Read the file at ``path`` and parse it; the name defaults to the file name without its suffix.

    The bytes are read once and decoded as UTF-8, keeping a BOM for ``json``
    to reject.  Line endings are translated as text mode translates them, so
    a JSON error's line, column and offset do not depend on them.
    """
    file = os.fsdecode(path)  # a str or a PathLike; an int, which ``open`` reads as a descriptor, raises TypeError
    try:
        with open(file, "rb", buffering=0) as stream:
            text = stream.read().decode("utf-8")
        data = json.loads(text.replace("\r\n", "\n").replace("\r", "\n"))
    except (OSError, ValueError, RecursionError) as exc:  # bad JSON or UTF-8, too many digits, deep nesting
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
    name = os.path.basename(file)
    dot = name.rfind(".")  # pathlib's stem: a leading or trailing dot starts no suffix
    return parse_scenario(data, name_hint=name[:dot] if 0 < dot < len(name) - 1 else name)


def parse_scenario(data: dict, name_hint: str = "scenario") -> Scenario:
    numbers = _Numbers()
    try:
        outcomes = tuple(map(str, _array(data["outcomes"], "outcomes")))
        index = dict(zip(outcomes, range(len(outcomes))))
        if len(index) != len(outcomes):
            raise ScenarioError("outcome labels must be unique")
        times = tuple(map(numbers.number, _array(data["times"], "times")))
        int_prices = tuple(
            int_table([numbers.row(row, "prices", j, k) for k, row in enumerate(_array(asset, "prices", j))])
            for j, asset in enumerate(_array(data["prices"], "prices"))
        )

        spec = data.get("filtration", "natural")
        if spec == "natural":
            partitions = natural_filtration([rows for rows, _ in int_prices])
        else:
            partitions = tuple(
                Partition([map(index.__getitem__, cell) for cell in _arrays(cells, "filtration", k)])
                for k, cells in enumerate(_array(spec, "filtration"))
            )

        n, terminal = len(outcomes), partitions[-1].cells
        on_cells = None if terminal == tuple(zip(range(n))) else terminal  # None: each outcome is a terminal cell (floor +3%)
        int_claims = []
        for i, claim in enumerate(_array(data.get("claims", []), "claims")):
            (row,), scale = int_table([_quotient(numbers.row(claim, "claims", i), n, on_cells, "claim", i)])
            int_claims.append((row, scale))

        support_spec = data.get("prior_support", "all")
        if support_spec == "all":
            allowed = frozenset(range(len(terminal)))
        else:
            listed = {index[w] for w in _array(support_spec, "prior_support")}
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

        model = FilteredModel(outcomes, times, partitions, int_prices, tuple(int_claims), allowed)

        jumps = []
        horizon = len(times) - 1
        for j in _array(data.get("jumps", []), "jumps"):
            tau = [None] * n
            mark = [ZERO] * n
            for w, t in j["tau"].items():
                if type(t) is int:
                    if not 0 <= t <= horizon:
                        raise ScenarioError(f"jump time of {w!r} must lie in the grid 0..{horizon}, got {t}")
                elif t == "inf":
                    t = None
                else:
                    raise ScenarioError(f'jump time of {w!r} must be an integer or "inf", got {t!r}')
                tau[index[w]] = t
            for w, x in j["mark"].items():
                mark[index[w]] = numbers.number(x)
            jumps.append(SingleJump(tuple(tau), tuple(mark)))

        payoffs = {
            name: _quotient(tuple(map(numbers.number, _array(vec, "payoffs", name))), n, on_cells, "payoff", name)
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
        return model.measure(parts)
    except (ValueError, TypeError) as exc:
        raise ScenarioError(f"invalid inline measure: {exc}") from exc


def canonical_json(obj) -> str:
    """Deterministic serialization: sorted keys, tight separators, newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
