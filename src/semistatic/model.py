"""Finite filtered market models.

A model is one flat record, ``FilteredModel``, of six fields: ``outcomes``
(the outcome names), ``times`` (the rational grid t_0 = 0 < ... < t_K),
``partitions`` (the filtration P_0, ..., P_K, each refining its
predecessor), ``int_prices`` (per asset j, S^j_k on outcome w, adapted and
started at zero), ``int_claims`` (the statically traded claims, payoffs over
the cells of P_K with initial price zero) and ``allowed`` (the P_K cells that
priors may charge).  Probability measures live on the cells of the terminal
partition P_K; payoff vectors are indexed the same way.  Prices and claims
are int tables, int rows over one positive scale, the lcm of the
denominators, built by ``int_table`` alone: a scenario is read into them from
its tokens, ``FilteredModel.from_fractions`` converts given Fractions once.
The model caches its cell labels (``terminal_labels``, ``partition_labels``)
for the reports.  A ``Measure`` is its weights' int form in lowest terms: ``numerators``
over a positive ``scale``, set once by its input check; a vertex is built, compared,
hashed, priced and written from it, and builds its Fraction weights only when read.
A ``SingleJump``, a random time and a mark per outcome, is a scenario's other input
record.  ``validate_model`` returns the model's ``Violation``s, none if it is valid.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress
from math import gcd, lcm
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .errors import InputError, ShapeError
from .rationals import common_denominator, fmt, fmt_ratio, rat, ratio

if TYPE_CHECKING:
    from .polytope import ConstraintSystem

ZERO = Fraction(0)
_INT = frozenset({int})  # the type set of an all-int row

Cell = tuple[int, ...]
Payoff = tuple[Fraction, ...]


class cached_property(functools.cached_property):
    """``functools.cached_property`` without the lock Python 3.11 takes on each first read (3.12 dropped it).

    The engine runs on one thread; the lock cost 0.3 us a first read, 3-5%
    of the floor.  The first read stores the value in the instance's
    ``__dict__``, where every later read finds it.
    """

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.attrname] = self.func(instance)
        return value


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
    """Disjoint nonempty cells of outcome indices covering the outcome set, and ``cell_of``, each outcome's cell."""

    cells: tuple[Cell, ...]

    def __init__(self, cells: Iterable[Iterable[int]]):
        cells = tuple(sorted([tuple(sorted(c)) for c in cells]))  # an outcome listed twice stays, for validate_model
        self.__dict__.update(cells=cells, cell_of={w: i for i, cell in enumerate(cells) for w in cell})


@dataclass(frozen=True)
class FilteredModel:
    """A finite market: outcomes, time grid, filtration, prices, static claims and prior support.

    ``partitions[k]`` is P_k, ``rows[k][w] / scale`` of ``int_prices[j]`` is S^j_k on outcome w,
    ``row / scale`` of ``int_claims[i]`` is the payoff of claim i over the cells of P_K, and
    ``allowed`` holds the indices of the P_K cells that priors may charge.
    """

    outcomes: tuple[str, ...]
    times: tuple[Fraction | int, ...]
    partitions: tuple[Partition, ...]
    int_prices: tuple[tuple[tuple[tuple[int, ...], ...], int], ...]  # per asset j: (rows, scale), rows[k][w] / scale
    int_claims: tuple[tuple[tuple[int, ...], int], ...]  # per claim: (row, scale), the claim is row / scale
    allowed: frozenset[int]

    @classmethod
    def from_fractions(cls, outcomes, times, partitions, prices, claims, allowed) -> FilteredModel:
        """The model of prices ``prices[j][k][w]`` and claims ``claims[i][a]``, ints or Fractions, as int tables."""
        int_prices = tuple(int_table([list(map(ratio, row)) for row in path]) for path in prices)
        int_claims = tuple((rows[0], scale) for rows, scale in (int_table([list(map(ratio, c))]) for c in claims))
        return cls(tuple(outcomes), tuple(times), tuple(partitions), int_prices, int_claims, allowed)

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
        """For each time k, the P_k cells as groups of terminal cell indices: the cells, if each outcome is one."""
        if self.n_cells == self.n_outcomes:  # the floor +8% without this path
            return tuple([partition.cells for partition in self.partitions])
        return groups_of(self.coarse_cell_of, self.partitions)

    @cached_property
    def int_gains(self) -> tuple[tuple[tuple, tuple[int, ...], int], ...]:
        """Elementary gains 1_A (S^j_k - S^j_{k-1}) as int rows: (("gain", k, c, j), row, scale).

        A is cell c of P_{k-1}; the order is (k, c, j).  Asset j's ``int_prices``
        on each terminal cell's representative give ``row``, over their scale.
        These vectors are both the dynamic strategy columns and the martingale
        rows of the measure set.
        """
        n, assets = self.n_cells, self.int_prices
        if n != self.n_outcomes:  # the prices on each terminal cell's representative; the floor +4% without the skip
            representatives = [cell[0] for cell in self.terminal_cells]
            assets = [([[*map(row.__getitem__, representatives)] for row in path], scale) for path, scale in assets]
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
        """The ``cell_label`` of each terminal cell, built once: the outcomes, if each is a cell."""
        if self.n_cells == self.n_outcomes:  # the floor +2-3% without this path
            return self.outcomes
        return tuple(["|".join([self.outcomes[w] for w in cell]) for cell in self.terminal_cells])

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
        g = gcd(*numerators)  # >= 1 as they sum to scale > 0; a vertex's primitive ray copies (ladder enumeration +3-5%)
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


@dataclass(frozen=True)
class SingleJump:
    """A random time and a nonnegative mark, with tau = never exactly on {mark = 0}."""

    tau: tuple[int | None, ...]  # per outcome; None means the jump never occurs
    mark: tuple[Fraction, ...]  # per outcome

    def __post_init__(self) -> None:
        _check_vector("jump marks", self.mark, len(self.tau))
        for t, x in zip(self.tau, self.mark):  # each x is an int or a Fraction: its sign is its numerator's
            if x.numerator < 0:
                raise InputError("marks must be nonnegative")
            if (t is None) != (not x):
                raise InputError("tau must be infinite exactly where the mark vanishes")

    def to_json(self, model: FilteredModel) -> dict:
        return {
            "tau": {model.outcomes[w]: ("inf" if t is None else t) for w, t in enumerate(self.tau)},
            "mark": {model.outcomes[w]: fmt(x) for w, x in enumerate(self.mark)},
        }


def _check_jump(jump: SingleJump, model: FilteredModel) -> None:
    """Raise ShapeError unless the jump has one entry per outcome of the model and its times lie on the grid."""
    _check_vector("jump marks", jump.mark, model.n_outcomes)
    for t in jump.tau:
        if t is not None:
            _check_index("jump time", t, model.horizon + 1)


class Violation(NamedTuple):
    code: str
    where: str
    message: str


def validate_model(model: FilteredModel) -> tuple[Violation, ...]:
    """Check every structural invariant; no violation means valid."""
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
        # are a partition when each is an int (True == 1 in a set); else find what is wrong (validate_model +50% without)
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
    for k in range(1, len(partitions)):  # each P_k cell lies in one P_{k-1} cell; one outcome skips the set (+12%)
        get = partitions[k - 1].cell_of.get
        for cell in partitions[k].cells:
            if not cell or get(cell[0]) is None or len(cell) > 1 and len({*map(get, cell)}) != 1:
                bad.append(Violation("refinement", f"P_{k}", f"P_{k} does not refine P_{k - 1}"))
                break

    values = model.int_prices  # equal ints over an asset's one scale are equal prices
    if not values:
        bad.append(Violation("prices", "assets", "need at least one asset"))
    for j, (asset_path, _) in enumerate(values):
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
                    # a cell reported above (empty, or naming no outcome) compares nothing; one outcome is constant (+12%)
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
    for i, (claim, _) in enumerate(model.int_claims):
        if len(claim) != n_cells:
            bad.append(Violation("claim", f"claim {i}", "payoff length must match terminal cells"))

    if not model.allowed:
        bad.append(Violation("priors", "allowed", "prior support must be nonempty"))
    for a in model.allowed:
        if not 0 <= a < n_cells:
            bad.append(Violation("priors", "allowed", f"unknown terminal cell index {a}"))

    return tuple(bad)


def is_constant_on(values: Sequence[Fraction], cell: Cell) -> bool:
    """Whether the values agree on the nonempty cell."""
    base = values[cell[0]]
    for w in cell[1:]:
        if values[w] != base:
            return False
    return True


def natural_filtration(prices: Sequence[Sequence[Sequence]]) -> tuple[Partition, ...]:
    """Coarsest refining filtration making the processes ``prices[j][k][w]`` adapted.

    P_k groups outcomes by the tuple of all process values up to time k, that
    is by their P_{k-1} cell and the values at time k; groups by a longer
    prefix automatically refine groups by a shorter one.  The values may be
    each asset's ``int_prices`` rows (equal where the prices are) or cell indices.
    """
    n = len(prices[0][0]) if prices and prices[0] else 0
    partitions = []
    cell_of = [0] * n  # each outcome's cell at the previous time; one cell before time 0
    for k in range(len(prices[0]) if prices else 1):
        groups: dict[tuple, list[int]] = {}
        columns = [[asset[k][w] for w in range(n)] for asset in prices]
        for w, key in enumerate(zip(cell_of, *columns)):
            groups.setdefault(key, []).append(w)
        partitions.append(Partition(groups.values()))
        cell_of = list(map(partitions[-1].cell_of.__getitem__, range(n)))
    return tuple(partitions)


def int_table(rows: Sequence[Sequence[int | tuple[int, int]]]) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Rows of ``ratio``'s ints and lowest-terms pairs as int rows over the lcm of the denominators, and that lcm."""
    scale = lcm(*[x[1] for row in rows for x in row if type(x) is not int])
    return tuple([tuple([x * scale if type(x) is int else x[0] * (scale // x[1]) for x in row]) for row in rows]), scale


def _cells_of(terminal_cells: Sequence[Cell], partitions: Sequence[Partition]) -> tuple[tuple[int, ...], ...]:
    """Per time k, the index of the ``partitions[k]`` cell holding each of the terminal cells."""
    representatives = [cell[0] for cell in terminal_cells]
    return tuple(tuple(map(partition.cell_of.__getitem__, representatives)) for partition in partitions)


def groups_of(
    cell_of: Sequence[Sequence[int]], partitions: Sequence[Partition]
) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Per time k, the cells of ``partitions[k]`` as groups of the indices ``cell_of[k]`` maps there."""
    table = []
    for lookup, partition in zip(cell_of, partitions):
        groups: list[list[int]] = [[] for _ in partition.cells]
        for a, coarse in enumerate(lookup):
            groups[coarse].append(a)
        table.append(tuple(map(tuple, groups)))
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
        mean = Fraction(sum([weights[a] * x[a] for a in group]), mass * scale)
        for a in group:
            result[a] = mean
    return tuple(result)
