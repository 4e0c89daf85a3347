"""Semi-static replication and completeness certificates.

A semi-static strategy is cash, static positions in the claims, and a
predictable dynamic integrand held as one value per row of ``model.int_gains``,
the elementary gains in (k, c, j) order.  Completeness under a measure Q is a
rank fact: the span of {1, claims, elementary gains} restricted to the
Q-support must fill the whole support.  The unhedgeable-part decomposition
projects each claim off the gain span and splits the resulting span by
single-jump times.  Completeness, replication and the decomposition first
check that the measure is calibrated, against the model's own constraint
system ``model.constraints``.  All three read the int rows of
``int_strategy_columns`` on the measure's support.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import NamedTuple, Sequence

from . import linalg
from .errors import InvariantViolation, NotCalibrated, NotComplete
from .model import FilteredModel, Measure, Payoff, _check_vector
from .polytope import member
from .rationals import common_denominator, fmt

ZERO = Fraction(0)


class SemiStaticStrategy(NamedTuple):
    """Cash, static positions in the claims, and dynamic holdings.

    ``dynamic`` has one holding per row of ``model.int_gains``, in its (k, c, j)
    order: the units of asset j held over period k on cell c of P_{k-1}.
    """

    cash: Fraction
    static: tuple[Fraction, ...]
    dynamic: tuple[Fraction, ...]

    @classmethod
    def from_coordinates(cls, values: Sequence[Fraction], model: FilteredModel) -> SemiStaticStrategy:
        """The strategy with these coordinates on ``int_strategy_columns(model)``; another count raises ShapeError."""
        n_static = len(model.int_claims)
        _check_vector("strategy coordinates", values, 1 + n_static + len(model.int_gains))
        return cls(values[0], tuple(values[1 : 1 + n_static]), tuple(values[1 + n_static :]))

    def to_json(self, model: FilteredModel) -> dict:
        entries = [
            {"k": k, "cell": model.cell_label(model.partitions[k - 1].cells[c]), "asset": j, "value": fmt(h)}
            for ((_, k, c, j), _, _), h in zip(model.int_gains, self.dynamic)
            if h
        ]
        return {"cash": fmt(self.cash), "static": [fmt(a) for a in self.static], "dynamic": entries}


def strategy_payoff(strategy: SemiStaticStrategy, model: FilteredModel) -> Payoff:
    """Cash plus every nonzero position and holding times its int column, over one common denominator.

    Static positions that do not match ``model.int_claims`` one to one, or holdings
    that do not match the rows of ``model.int_gains``, raise ``ShapeError``.
    """
    _check_vector("cash", (strategy.cash,), 1)
    _check_vector("static positions", strategy.static, len(model.int_claims))
    _check_vector("holdings", strategy.dynamic, len(model.int_gains))
    coordinates = (strategy.cash, *strategy.static, *strategy.dynamic)
    terms = [(h, row, h.denominator * scale) for h, (row, scale) in zip(coordinates, int_strategy_columns(model)) if h]
    common = lcm(*[d for _, _, d in terms])
    value = [0] * model.n_cells
    for h, row, d in terms:
        f = h.numerator * (common // d)
        for a, x in enumerate(row):
            if x:
                value[a] += f * x
    return tuple(Fraction(x, common) for x in value)


def int_strategy_columns(model: FilteredModel) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Strategy coordinates in column order, cash, claims, gains, each an int row with its scale: ``row / scale``."""
    gains = tuple((row, scale) for _, row, scale in model.int_gains)
    return (((1,) * model.n_cells, 1), *model.int_claims, *gains)


def hedging_span(model: FilteredModel, measure: Measure) -> int:
    """The rank of the int strategy columns (cash, claims, gains) on the support; positive scales change no rank."""
    _check_vector("measure weights", measure.numerators, model.n_cells)
    support = measure.support
    return linalg.rank([[row[a] for a in support] for row, _ in int_strategy_columns(model)])


def _require_calibrated(measure: Measure, model: FilteredModel) -> None:
    if not member(measure, model.constraints):
        raise NotCalibrated("measure is not a calibrated martingale measure")


class CompletenessReport(NamedTuple):
    complete: bool
    rank: int
    support_size: int

    def to_json(self) -> dict:
        return {"complete": self.complete, "rank": self.rank, "support_size": self.support_size}


def is_semistatically_complete(measure: Measure, model: FilteredModel) -> CompletenessReport:
    """True iff every payoff is replicable Q-a.s., i.e. the span fills the support."""
    _require_calibrated(measure, model)
    rank, size = hedging_span(model, measure), len(measure.support)
    return CompletenessReport(rank == size, rank, size)


class NotReplicable(NamedTuple):
    residual: Payoff

    def to_json(self) -> dict:
        return {"replicable": False, "residual": [fmt(x) for x in self.residual]}


def replicate(
    payoff: Sequence[Fraction], measure: Measure, model: FilteredModel
) -> SemiStaticStrategy | NotReplicable:
    """Solve for a semi-static strategy matching the payoff on the Q-support.

    The system is underdetermined in general; the minimum-norm coefficient
    vector is returned, which is deterministic.  The int columns over the lcm
    L of their scales are the rational system times L; the payoff is scaled
    by its lcm D, so the solution reads back times L / D.  On failure the
    residual is the payoff's Q-orthogonal component off the span, zero off the
    support.
    """
    _require_calibrated(measure, model)
    _check_vector("payoff entries", payoff, model.n_cells)
    columns = int_strategy_columns(model)
    support = measure.support
    common = lcm(*[scale for _, scale in columns])
    rows = [[row[a] * (common // scale) for row, scale in columns] for a in support]
    rhs, den = common_denominator([payoff[a] for a in support])
    coeffs = linalg.min_norm_solution(rows, rhs)
    if coeffs is None:
        weights = [measure.numerators[a] for a in support]
        span = linalg.WeightedSpan(zip(*rows), weights)  # the columns on the support, times common / scale
        residual, factor = span.residual(rhs)
        return NotReplicable(_spread(residual, factor / den, support, model.n_cells))
    coordinates = [x and Fraction(common * x.numerator, den * x.denominator) for x in coeffs]
    return SemiStaticStrategy.from_coordinates(coordinates, model)


def _spread(row: Sequence[int], scale: Fraction, support: Sequence[int], n: int) -> Payoff:
    """The vector ``scale * row`` on the support cells, zero elsewhere."""
    vec = [ZERO] * n
    for a, x in zip(support, row):
        vec[a] = scale * x
    return tuple(vec)


class JumpBlock(NamedTuple):
    """Orthogonal residual-span directions that jump at one time index.

    ``atom_cells`` indexes the cells of P_{time-1} (P_0 when time is 0) that
    carry the jump; they are pairwise disjoint by construction.
    """

    time: int
    vectors: tuple[Payoff, ...]
    atom_cells: tuple[int, ...]


class UnhedgeableDecomposition(NamedTuple):
    residual_terminals: tuple[Payoff, ...]
    blocks: tuple[JumpBlock, ...]


def decompose_unhedgeable(measure: Measure, model: FilteredModel) -> UnhedgeableDecomposition:
    """Residual terminal values of the claims and their single-jump block basis.

    Each claim is projected off the elementary-gain span under the Q-weighted
    inner product.  Under completeness the residual span decomposes into
    orthogonal pieces, one per time index k, whose martingales vanish strictly
    before k and are constant from k on; each piece is carried by disjoint
    atoms of the previous partition.  Vectors are int rows on the support with
    Fraction factors; the gain span is orthogonalized once, the previous span once per k.
    """
    if not is_semistatically_complete(measure, model).complete:
        raise NotComplete("unhedgeable decomposition requires semi-static completeness")
    support = measure.support
    weights = [measure.numerators[a] for a in support]
    gains = linalg.WeightedSpan([[row[a] for a in support] for _, row, _ in model.int_gains], weights)
    residuals = []
    for row, scale in model.int_claims:
        residual, factor = gains.residual([row[a] for a in support])
        residuals.append((residual, factor / scale))
    # the independent residuals brought to one factor 1 / common, which changes no kernel vector
    independent = [residuals[i] for i in linalg.independent_rows([row for row, _ in residuals])]
    common = lcm(*[factor.denominator for _, factor in independent])
    span_basis = [[x * (f.numerator * (common // f.denominator)) for x in row] for row, f in independent]

    position = {a: i for i, a in enumerate(support)}  # the charged cells of each P_k cell, as support positions
    groups = [[[position[a] for a in cell if a in position] for cell in cells] for cells in model.coarse_groups]
    blocks: list[JumpBlock] = []
    previous: list[tuple[list[int], Fraction]] = []
    for k in range(model.horizon + 1):
        measurable = _measurable_combinations(span_basis, Fraction(1, common), groups[k])
        # the residuals off the previous span, orthogonalized among themselves: one sweep off both
        span = linalg.WeightedSpan([row for row, _ in previous], weights)
        block = [(added[0], added[1] * f) for row, f in measurable if (added := span.add(row)) is not None]
        if block:
            if k >= 1 and any(sum([weights[i] * row[i] for i in cell]) for row, _ in block for cell in groups[k - 1]):
                raise InvariantViolation("block martingale must vanish before its jump")
            cell_of = model.coarse_cell_of[max(k - 1, 0)]
            carrying = sorted({cell_of[a] for row, _ in block for a, x in zip(support, row) if x})
            blocks.append(JumpBlock(k, tuple(_spread(r, f, support, model.n_cells) for r, f in block), tuple(carrying)))
        previous = measurable

    return UnhedgeableDecomposition(tuple(_spread(r, f, support, model.n_cells) for r, f in residuals), tuple(blocks))


def _measurable_combinations(
    span_basis: Sequence[list[int]], scale: Fraction, groups: Sequence[Sequence[int]]
) -> list[tuple[list[int], Fraction]]:
    """Basis of the span elements constant on each group, as int rows with factors; the span is ``scale`` * rows."""
    if not span_basis:
        return []
    constraints = [[row[a] - row[b] for row in span_basis] for group in groups for a, b in zip(group, group[1:])]
    if not constraints:
        return [(row, scale) for row in span_basis]
    combined = []
    for coeffs in linalg.nullspace(constraints):
        numerators, den = common_denominator(coeffs)
        row = [0] * len(span_basis[0])
        for y, base in zip(numerators, span_basis):
            if y:
                row = [x + y * b for x, b in zip(row, base)]
        combined.append((row, scale / den))
    return combined
