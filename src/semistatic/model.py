"""Finite filtered market models.

A model is one flat record, ``FilteredModel``, of six fields: ``outcomes``
(the outcome names), ``times`` (the rational grid t_0 = 0 < ... < t_K),
``partitions`` (the filtration P_0, ..., P_K, each refining its
predecessor), ``prices[j][k][w]`` (asset j at time index k on outcome w,
adapted and started at zero), ``claims`` (the statically traded claims,
payoffs over the cells of P_K with initial price zero) and ``allowed`` (the
P_K cells that priors may charge).  Probability measures live on the cells
of the terminal partition P_K; payoff vectors are indexed the same way.
The model caches the gains and claims as int rows with positive scales
(``int_gains``, ``int_claims``), which every exact layer reads, and its
cell labels (``terminal_labels``, ``partition_labels``) for the reports.  A
``Measure`` is its weights' int form in lowest terms: ``numerators`` over a
positive ``scale``, set once by its input check; a vertex is built, compared,
hashed, priced and written from it, and builds its Fraction weights only when read.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress
from math import gcd
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .errors import InputError, ShapeError
from .rationals import _INT, common_denominator, fmt_ratio, rat

if TYPE_CHECKING:
    from .polytope import ConstraintSystem

ZERO = Fraction(0)

Cell = tuple[int, ...]
Payoff = tuple[Fraction, ...]


class cached_property(functools.cached_property):
    """``functools.cached_property`` without the lock Python 3.11 takes on each first read (3.12 dropped it).

    The engine runs on one thread, and the lock cost about as much as
    building a partition's ``cell_of``.  The first read stores the value in
    the instance's ``__dict__``, where every later read finds it.
    """

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.attrname] = self.func(instance)
        return value


def _canonical_cells(cells: Iterable[Iterable[int]]) -> tuple[Cell, ...]:
    return tuple(sorted([tuple(sorted(c)) for c in cells]))  # an outcome listed twice stays, for validate_model


def _check_index(name: str, index: int, size: int) -> None:
    if isinstance(index, bool) or not isinstance(index, int):
        raise ShapeError(f"{name} index {index!r} is not an int")
    if not 0 <= index < size:
        raise ShapeError(f"{name} index {index} outside 0..{size - 1}")


def _check_vector(name: str, values: Sequence, size: int) -> None:
    """Raise ShapeError unless there are ``size`` values, TypeError unless each is an int or a Fraction (no bool)."""
    if len(values) != size:
        raise ShapeError(f"{name}: got {len(values)}, expected {size}")
    for x in values:
        if type(x) is not Fraction and type(x) is not int:
            raise TypeError(f"{name} must be int or Fraction, got {x!r}")


@dataclass(frozen=True)
class Partition:
    """Disjoint nonempty cells of outcome indices covering the outcome set."""

    cells: tuple[Cell, ...]

    def __init__(self, cells: Iterable[Iterable[int]]):
        object.__setattr__(self, "cells", _canonical_cells(cells))

    @cached_property
    def cell_of(self) -> dict[int, int]:
        return {w: i for i, cell in enumerate(self.cells) for w in cell}

    def refines(self, coarser: "Partition") -> bool:
        lookup = coarser.cell_of
        for cell in self.cells:
            parents = set(map(lookup.get, cell))
            if len(parents) != 1 or None in parents:
                return False
        return True


@dataclass(frozen=True)
class FilteredModel:
    """A finite market: outcomes, time grid, filtration, prices, static claims and prior support.

    ``partitions[k]`` is P_k, ``prices[j][k][w]`` is S^j_k on outcome w,
    ``claims[i]`` is the payoff of claim i over the cells of P_K, and
    ``allowed`` holds the indices of the P_K cells that priors may charge.
    """

    outcomes: tuple[str, ...]
    times: tuple[Fraction, ...]
    partitions: tuple[Partition, ...]
    prices: tuple[tuple[tuple[Fraction, ...], ...], ...]
    claims: tuple[Payoff, ...]
    allowed: frozenset[int]

    @property
    def horizon(self) -> int:
        return len(self.times) - 1

    @property
    def n_outcomes(self) -> int:
        return len(self.outcomes)

    @cached_property
    def terminal_cells(self) -> tuple[Cell, ...]:
        return self.partitions[-1].cells

    @property
    def n_cells(self) -> int:
        return len(self.terminal_cells)

    @cached_property
    def terminal_cell_of_outcome(self) -> dict[int, int]:
        return self.partitions[-1].cell_of

    @cached_property
    def coarse_cell_of(self) -> tuple[tuple[int, ...], ...]:
        """For each time k, map terminal cell index -> index of its P_k cell."""
        return _cells_of(self.terminal_cells, self.partitions)

    @cached_property
    def coarse_groups(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """For each time k, the P_k cells as groups of terminal cell indices."""
        return groups_of(self.coarse_cell_of, self.partitions)

    @cached_property
    def int_gains(self) -> tuple[tuple[tuple, tuple[int, ...], int], ...]:
        """Elementary gains 1_A (S^j_k - S^j_{k-1}) as int rows: (("gain", k, c, j), row, scale).

        A is cell c of P_{k-1}; the order is (k, c, j).  Asset j's prices (on
        each terminal cell's representative) are scaled once by their lcm,
        ``scale``, so the gain is ``row / scale``.  These vectors are both the
        dynamic strategy columns and the martingale rows of the measure set.
        """
        representatives, n = [cell[0] for cell in self.terminal_cells], self.n_cells
        assets = []
        for path in self.prices:
            numerators, scale = common_denominator([slice_k[w] for slice_k in path for w in representatives])
            assets.append(([numerators[k * n : (k + 1) * n] for k in range(len(path))], scale))
        rows = []
        for k in range(1, self.horizon + 1):
            for c, group in enumerate(self.coarse_groups[k - 1]):
                for j, (path, scale) in enumerate(assets):
                    row = [0] * n
                    now, before = path[k], path[k - 1]
                    for a in group:
                        row[a] = now[a] - before[a]
                    rows.append((("gain", k, c, j), tuple(row), scale))
        return tuple(rows)

    @cached_property
    def int_claims(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """Each claim as an int row over the lcm of its denominators, and that lcm: the claim is ``row / scale``."""
        return tuple((tuple(row), scale) for row, scale in map(common_denominator, self.claims))

    @cached_property
    def constraints(self) -> ConstraintSystem:
        """The equality description of the calibrated martingale-measure set, built once."""
        from .polytope import build_constraints  # local import to avoid a cycle

        return build_constraints(self)

    def cell_label(self, cell: Iterable[int]) -> str:
        """The outcome names of the cell in index order, joined by "|"; each entry passes ``_check_index``."""
        cell = list(cell)
        for w in cell:
            _check_index("outcome", w, self.n_outcomes)
        return "|".join(self.outcomes[w] for w in sorted(cell))

    @cached_property
    def terminal_labels(self) -> tuple[str, ...]:
        """The ``cell_label`` of each terminal cell, built once."""
        return tuple(map(self.cell_label, self.terminal_cells))

    @cached_property
    def partition_labels(self) -> tuple[tuple[str, ...], ...]:
        """Per time k, the ``cell_label`` of each P_k cell, built once."""
        return tuple(tuple(map(self.cell_label, partition.cells)) for partition in self.partitions)

    def measure(self, weights: Sequence[Fraction | int | str]) -> "Measure":
        """A probability measure on the terminal cells that charges only allowed cells."""
        values = tuple(map(rat, weights))
        _check_vector("measure weights", values, self.n_cells)
        measure = Measure(values)
        bad = [a for a in measure.support if a not in self.allowed]
        if bad:
            raise InputError(f"measure charges terminal cells outside the prior support: {bad}")
        return measure


@dataclass(frozen=True, init=False)
class Measure:
    """Nonnegative rational weights over terminal cells summing to one, kept as their lowest-terms int form.

    Each weight is an ``int`` or a ``Fraction``; anything else (a float, a
    bool, a string) raises ``TypeError``, as ``rat`` does.  Sign and sum are
    checked exactly on the int form, ``numerators`` over ``scale`` > 0 with
    gcd 1, which is kept, with ``support``, the charged cells, for every exact
    layer to read; equal weights are equal int forms, so equality and hashing
    compare ``numerators`` and ``scale``.  ``from_ints`` builds a measure from
    int numerators over one scale, with the same checks and no Fraction.
    ``weights`` is ``numerators / scale`` as Fractions, built on first read.
    """

    numerators: tuple[int, ...]
    scale: int
    support: tuple[int, ...] = field(compare=False, repr=False)

    def __init__(self, weights: Sequence[Fraction | int]) -> None:
        _check_vector("measure weights", weights, len(weights))
        self._keep_ints(*common_denominator(weights))

    def _keep_ints(self, numerators: Sequence[int], scale: int) -> None:
        """Keep the int form over its gcd, and the charged cells; InputError unless it is a probability."""
        if min(numerators, default=0) < 0:
            raise InputError("measure weights must be nonnegative")
        if scale <= 0 or sum(numerators) != scale:
            raise InputError("measure weights must sum to exactly 1")
        g = gcd(*numerators)  # at least 1: the numerators sum to scale > 0; a vertex's primitive ray gives 1
        object.__setattr__(self, "numerators", tuple(numerators) if g == 1 else tuple([x // g for x in numerators]))
        object.__setattr__(self, "scale", scale // g)
        object.__setattr__(self, "support", tuple(compress(range(len(numerators)), numerators)))

    @classmethod
    def from_ints(cls, numerators: Sequence[int], scale: int) -> Measure:
        """The measure with weights ``numerators[a] / scale``, all ints; no Fraction is built here."""
        if not _INT.issuperset(map(type, numerators)) or type(scale) is not int:
            raise TypeError("measure numerators and scale must be int")
        measure = object.__new__(cls)
        measure._keep_ints(numerators, scale)
        return measure

    @cached_property
    def weights(self) -> Payoff:
        """``numerators[a] / scale`` as Fractions, built on first read and kept."""
        return tuple(Fraction(x, self.scale) if x else ZERO for x in self.numerators)

    def expectation(self, payoff: Sequence[Fraction | int], scale: int | None = None) -> Fraction:
        """E_Q[payoff]: one int dot product of ``numerators`` with the payoff's int row, over both scales.

        With ``scale`` the payoff is read unchecked as that int row over
        ``scale``: a scan over many measures scales its payoff once.
        """
        if scale is None:
            _check_vector("payoff entries", payoff, len(self.numerators))
            payoff, scale = common_denominator(payoff)
        return Fraction(sum([self.numerators[a] * payoff[a] for a in self.support]), self.scale * scale)

    def to_json(self, model: FilteredModel) -> dict:
        """Each weight's canonical string, from ``numerators / scale`` reduced cell by cell."""
        _check_vector("measure weights", self.numerators, model.n_cells)
        labels, n, s = model.terminal_labels, self.numerators, self.scale
        weights = ["0"] * len(n)
        for a in self.support:
            g = gcd(n[a], s)
            weights[a] = fmt_ratio(n[a] // g, s // g)
        return {"weights": weights, "support": [labels[a] for a in self.support]}


class Violation(NamedTuple):
    code: str
    where: str
    message: str


class ValidationReport(NamedTuple):
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "violations": [
                {"code": v.code, "where": v.where, "message": v.message} for v in self.violations
            ],
        }


def validate_model(model: FilteredModel) -> ValidationReport:
    """Check every structural invariant; an empty report means valid."""
    bad: list[Violation] = []
    n = model.n_outcomes
    times = model.times
    horizon = len(times) - 1

    # the times are Fractions (or ints): zero and order are read off their int numerators and denominators
    if horizon < 1:
        bad.append(Violation("grid", "times", "need at least one period"))
    if times and times[0]:
        bad.append(Violation("grid", "times[0]", "time grid must start at 0"))
    for i in range(1, len(times)):
        before, now = times[i - 1], times[i]
        if now.numerator * before.denominator <= before.numerator * now.denominator:
            bad.append(Violation("grid", f"times[{i}]", "times must be strictly increasing"))

    partitions = model.partitions
    if len(partitions) != horizon + 1:
        bad.append(Violation("filtration", "partitions", "need one partition per time index"))
    universe = frozenset(range(n))
    foreign: set[tuple[int, Cell]] = set()  # (k, cell) for each P_k cell naming an index that is no outcome's
    for k, partition in enumerate(partitions):
        cells = partition.cells
        # nonempty cells of n outcomes in all whose union (the keys of the cached cell_of) is 0..n-1
        # are a partition when each is an int (True == 1 in a set); else find what is wrong
        cell_of = partition.cell_of
        if all(cells) and sum(map(len, cells)) == n and universe == cell_of.keys() and {*map(type, cell_of)} <= {int}:
            continue
        seen: set[int] = set()
        for cell in cells:
            if not cell:
                bad.append(Violation("partition", f"P_{k}", "empty cell"))
            if len(set(cell)) < len(cell):
                bad.append(Violation("partition", f"P_{k}", "a cell lists an outcome twice"))
            if seen.intersection(cell):
                bad.append(Violation("partition", f"P_{k}", "cells are not disjoint"))
            seen.update(cell)
            strays = [w for w in cell if type(w) is not int or w not in universe]
            if strays:
                foreign.add((k, cell))
                why = f"outside 0..{n - 1}" if type(strays[0]) is int else "that is not an int"
                bad.append(Violation("partition", f"P_{k}", f"cell names outcome index {strays[0]!r} {why}"))
        if not universe.issubset(seen):
            bad.append(Violation("partition", f"P_{k}", "cells do not cover the outcome set"))
    for k in range(1, len(partitions)):
        if not partitions[k].refines(partitions[k - 1]):
            bad.append(Violation("refinement", f"P_{k}", f"P_{k} does not refine P_{k - 1}"))

    values = model.prices
    if not values:
        bad.append(Violation("prices", "assets", "need at least one asset"))
    for j, asset_path in enumerate(values):
        if len(asset_path) != horizon + 1:
            bad.append(Violation("prices", f"asset {j}", "wrong number of time slices"))
            continue
        for k, slice_k in enumerate(asset_path):
            if len(slice_k) != n:
                bad.append(Violation("prices", f"asset {j}, k={k}", "wrong number of outcomes"))
                continue
            if k == 0 and any(slice_k):
                bad.append(Violation("prices", f"asset {j}, k=0", "initial price must be 0"))
            if k < len(partitions):
                for cell in partitions[k].cells:
                    # an empty cell or one naming an unknown outcome is reported above and compares nothing here
                    if len(cell) > 1 and (k, cell) not in foreign and not is_constant_on(slice_k, cell):
                        bad.append(
                            Violation(
                                "adapted",
                                f"asset {j}, k={k}, cell {model.cell_label(cell)}",
                                "price is not constant on a partition cell",
                            )
                        )
                        break

    n_cells = model.n_cells
    for i, claim in enumerate(model.claims):
        if len(claim) != n_cells:
            bad.append(Violation("claim", f"claim {i}", "payoff length must match terminal cells"))

    if not model.allowed:
        bad.append(Violation("priors", "allowed", "prior support must be nonempty"))
    for a in model.allowed:
        if not 0 <= a < n_cells:
            bad.append(Violation("priors", "allowed", f"unknown terminal cell index {a}"))

    return ValidationReport(tuple(bad))


def is_constant_on(values: Sequence[Fraction], cell: Cell) -> bool:
    """Whether the values agree on the nonempty cell; shared values compare by identity first."""
    base = values[cell[0]]
    for w in cell[1:]:
        value = values[w]
        if value is not base and value != base:
            return False
    return True


def natural_filtration(prices: Sequence[Sequence[Sequence[Fraction]]]) -> tuple[Partition, ...]:
    """Coarsest refining filtration making the prices ``prices[j][k][w]`` adapted.

    P_k groups outcomes by the tuple of all asset values up to time k, that is
    by their P_{k-1} cell and the asset values at time k; groups by a longer
    prefix automatically refine groups by a shorter one.  A value is keyed by
    its int numerator and denominator, which equal values share and which hash
    faster than a Fraction.
    """
    n = len(prices[0][0]) if prices and prices[0] else 0
    partitions = []
    cell_of = [0] * n  # each outcome's group at the previous time; one group before time 0
    for k in range(len(prices[0]) if prices else 1):
        groups: dict[tuple, list[int]] = {}
        columns = [[(asset[k][w].numerator, asset[k][w].denominator) for w in range(n)] for asset in prices]
        for w, key in enumerate(zip(cell_of, *columns)):
            groups.setdefault(key, []).append(w)
        for c, group in enumerate(groups.values()):
            for w in group:
                cell_of[w] = c
        partitions.append(Partition(groups.values()))
    return tuple(partitions)


def _cells_of(terminal_cells: Sequence[Cell], partitions: Sequence[Partition]) -> tuple[tuple[int, ...], ...]:
    """Per time k, the index of the ``partitions[k]`` cell holding each of the terminal cells."""
    return tuple(tuple(partition.cell_of[cell[0]] for cell in terminal_cells) for partition in partitions)


def groups_of(
    cell_of: Sequence[Sequence[int]], partitions: Sequence[Partition]
) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Per time k, the cells of ``partitions[k]`` as groups of the indices ``cell_of[k]`` maps there."""
    table = []
    for lookup, partition in zip(cell_of, partitions):
        groups: list[list[int]] = [[] for _ in partition.cells]
        for a, coarse in enumerate(lookup):
            groups[coarse].append(a)
        table.append(tuple(tuple(g) for g in groups))
    return tuple(table)


def condexp_groups(
    payoff: Sequence[Fraction],
    groups: Sequence[Sequence[int]],
    weights: Sequence[Fraction],
) -> Payoff:
    """Groupwise conditional expectation; zero on null groups by convention.

    The groups ``model.coarse_groups[k]`` give E[payoff | P_k] over the
    terminal cells.  The weights are read as given (every caller in the
    package passes a measure's int ``numerators``) and the payoff is scaled
    to ints once.
    """
    x, scale = common_denominator(payoff)
    result = [ZERO] * len(payoff)
    for group in groups:
        mass = sum([weights[a] for a in group])
        if not mass:
            continue
        mean = Fraction(sum([weights[a] * x[a] for a in group if weights[a]]), mass * scale)
        for a in group:
            result[a] = mean
    return tuple(result)
