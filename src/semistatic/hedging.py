"""Semi-static replication and completeness certificates.

A semi-static strategy is cash, static positions in the claims, and a
predictable dynamic integrand held as one value per column of ``model.gains``,
the elementary gains in (k, c, j) order.  Completeness under a measure Q is a
rank fact: the span of {1, claims, elementary gains} restricted to the
Q-support must fill the whole support.  The unhedgeable-part decomposition
projects each claim off the gain span and splits the resulting span by
single-jump times.  Completeness, replication and the decomposition first
check that the measure is calibrated, against the model's own constraint
system ``model.constraints``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from . import linalg
from .errors import EmptyMeasureSet, InvariantViolation, NotCalibrated, NotComplete
from .model import FilteredModel, Measure, Payoff, _check_vector, conditional_expectation
from .polytope import enumerate_extreme_points, is_extreme, member
from .rationals import fmt

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class SemiStaticStrategy:
    """Cash, static positions in the claims, and dynamic holdings.

    ``dynamic`` has one holding per column of ``model.gains``, in its (k, c, j)
    order: the units of asset j held over period k on cell c of P_{k-1}.
    """

    cash: Fraction
    static: tuple[Fraction, ...]
    dynamic: tuple[Fraction, ...]

    @classmethod
    def from_coordinates(cls, values: Sequence[Fraction], model: FilteredModel) -> SemiStaticStrategy:
        """The strategy with these coordinates on ``strategy_columns(model)``; another count raises ShapeError."""
        _check_vector("strategy coordinates", values, 1 + len(model.claims) + len(model.int_gains))
        n_static = len(model.claims)
        return cls(values[0], tuple(values[1 : 1 + n_static]), tuple(values[1 + n_static :]))

    def to_json(self, model: FilteredModel) -> dict:
        entries = [
            {"k": k, "cell": model.cell_label(model.partitions[k - 1].cells[c]), "asset": j, "value": fmt(h)}
            for ((_, k, c, j), _, _), h in zip(model.int_gains, self.dynamic)
            if h
        ]
        return {"cash": fmt(self.cash), "static": [fmt(a) for a in self.static], "dynamic": entries}


def terminal_gain(dynamic: Sequence[Fraction], model: FilteredModel) -> Payoff:
    """Terminal value sum of H_k (S_k - S_{k-1}) of holdings on ``model.gains``; other lengths raise ShapeError."""
    return strategy_payoff(SemiStaticStrategy(ZERO, (ZERO,) * len(model.claims), tuple(dynamic)), model)


def strategy_payoff(strategy: SemiStaticStrategy, model: FilteredModel) -> Payoff:
    """Cash plus every nonzero position and holding times its int column, over one common denominator.

    Static positions that do not match ``model.claims`` one to one, or holdings
    that do not match the columns of ``model.gains``, raise ``ShapeError``.
    """
    _check_vector("cash", (strategy.cash,), 1)
    _check_vector("static positions", strategy.static, len(model.claims))
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


def strategy_columns(model: FilteredModel) -> tuple[tuple[tuple, Payoff], ...]:
    """Strategy coordinates in column order: cash, claims, gains."""
    claims = tuple((("claim", i), claim) for i, claim in enumerate(model.claims))
    return ((("const",), (ONE,) * model.n_cells), *claims, *model.gains)


def int_strategy_columns(model: FilteredModel) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The columns of ``strategy_columns`` as int rows with their scales: column i is ``row / scale``."""
    gains = tuple((row, scale) for _, row, scale in model.int_gains)
    return (((1,) * model.n_cells, 1), *model.int_claims, *gains)


@dataclass(frozen=True)
class HedgingSpan:
    """Realizable terminal payoffs: constant, claims, and elementary gains."""

    columns: tuple[tuple[tuple, Payoff], ...]
    rank: int
    support: tuple[int, ...]


def hedging_span(model: FilteredModel, measure: Measure) -> HedgingSpan:
    _check_vector("measure weights", measure.weights, model.n_cells)
    columns = strategy_columns(model)
    support = measure.support
    restricted = [[vec[a] for a in support] for _, vec in columns]
    return HedgingSpan(columns, linalg.rank(restricted), support)


def _require_calibrated(measure: Measure, model: FilteredModel) -> None:
    if not member(measure, model.constraints):
        raise NotCalibrated("measure is not a calibrated martingale measure")


@dataclass(frozen=True)
class CompletenessReport:
    complete: bool
    rank: int
    support_size: int

    def to_json(self) -> dict:
        return {"complete": self.complete, "rank": self.rank, "support_size": self.support_size}


def is_semistatically_complete(measure: Measure, model: FilteredModel) -> CompletenessReport:
    """True iff every payoff is replicable Q-a.s., i.e. the span fills the support."""
    _require_calibrated(measure, model)
    span = hedging_span(model, measure)
    return CompletenessReport(span.rank == len(span.support), span.rank, len(span.support))


@dataclass(frozen=True)
class NotReplicable:
    residual: Payoff

    def to_json(self) -> dict:
        return {"replicable": False, "residual": [fmt(x) for x in self.residual]}


def replicate(
    payoff: Sequence[Fraction], measure: Measure, model: FilteredModel
) -> SemiStaticStrategy | NotReplicable:
    """Solve for a semi-static strategy matching the payoff on the Q-support.

    The system is underdetermined in general; the minimum-norm coefficient
    vector is returned, which is deterministic.  On failure the residual is
    the component of the payoff orthogonal to the span under the Q-weighted
    inner product, reported as zero off the support.
    """
    _require_calibrated(measure, model)
    _check_vector("payoff entries", payoff, model.n_cells)
    columns = strategy_columns(model)
    support = measure.support
    rows = [[vec[a] for _, vec in columns] for a in support]
    rhs = [payoff[a] for a in support]
    coeffs = linalg.min_norm_solution(rows, rhs)
    if coeffs is None:
        vectors = [[vec[a] for a in support] for _, vec in columns]
        proj = linalg.project_onto_span(rhs, vectors, [measure.weights[a] for a in support])
        residual = [ZERO] * model.n_cells
        for a, x, p in zip(support, rhs, proj):
            residual[a] = x - p
        return NotReplicable(tuple(residual))
    return SemiStaticStrategy.from_coordinates(coeffs, model)


@dataclass(frozen=True)
class EquivalenceCheck:
    description: str
    weights: Payoff
    expected: bool
    extreme: bool
    complete: bool

    @property
    def passed(self) -> bool:
        return self.extreme == self.expected and self.complete == self.expected


def _mix(measures: Sequence[Measure], coeffs: Sequence[Fraction]) -> Measure:
    n = len(measures[0].weights)
    weights = [ZERO] * n
    for m, lam in zip(measures, coeffs):
        for a, w in enumerate(m.weights):
            weights[a] += lam * w
    return Measure(tuple(weights))


def verify_jacod_yor(model: FilteredModel) -> tuple[EquivalenceCheck, ...]:
    """Instance checks of the extremality/completeness equivalence, one per measure tried.

    Every enumerated vertex must be extreme and complete; every pairwise
    midpoint and the barycenter (when they are not vertices themselves) must
    be neither.  The model passes when every check has ``passed``.
    """
    cs = model.constraints
    vertex_set = enumerate_extreme_points(cs)
    if not vertex_set.vertices:
        raise EmptyMeasureSet("no calibrated martingale measure exists")
    checks: list[EquivalenceCheck] = []
    vertices = vertex_set.vertices
    for i, v in enumerate(vertices):
        extreme, _ = is_extreme(v, cs)
        complete = is_semistatically_complete(v, model).complete
        checks.append(EquivalenceCheck(f"vertex {i}", v.weights, True, extreme, complete))
    mixtures: list[tuple[str, Measure]] = []
    for i in range(len(vertices)):
        for j in range(i + 1, len(vertices)):
            mixtures.append((f"midpoint {i},{j}", _mix([vertices[i], vertices[j]], [Fraction(1, 2)] * 2)))
    if len(vertices) > 1:
        lam = Fraction(1, len(vertices))
        mixtures.append(("barycenter", _mix(list(vertices), [lam] * len(vertices))))
    vertex_weights = {v.weights for v in vertices}
    for name, mixture in mixtures:
        if mixture.weights in vertex_weights:
            continue
        extreme, _ = is_extreme(mixture, cs)
        complete = is_semistatically_complete(mixture, model).complete
        checks.append(EquivalenceCheck(name, mixture.weights, False, extreme, complete))
    return tuple(checks)


@dataclass(frozen=True)
class JumpBlock:
    """Orthogonal residual-span directions that jump at one time index.

    ``atom_cells`` indexes the cells of P_{time-1} (P_0 when time is 0) that
    carry the jump; they are pairwise disjoint by construction.
    """

    time: int
    vectors: tuple[Payoff, ...]
    atom_cells: tuple[int, ...]


@dataclass(frozen=True)
class UnhedgeableDecomposition:
    residual_terminals: tuple[Payoff, ...]
    blocks: tuple[JumpBlock, ...]


def _mask_to_support(vec: Sequence[Fraction], weights: Sequence[Fraction]) -> Payoff:
    return tuple(x if w > 0 else ZERO for x, w in zip(vec, weights))


def decompose_unhedgeable(measure: Measure, model: FilteredModel) -> UnhedgeableDecomposition:
    """Residual terminal values of the claims and their single-jump block basis.

    Each claim is projected off the elementary-gain span under the Q-weighted
    inner product.  Under completeness the residual span decomposes into
    orthogonal pieces, one per time index k, whose martingales vanish strictly
    before k and are constant from k on; each piece is carried by disjoint
    atoms of the previous partition.
    """
    if not is_semistatically_complete(measure, model).complete:
        raise NotComplete("unhedgeable decomposition requires semi-static completeness")
    weights = measure.weights
    support = measure.support
    gains = [vec for _, vec in model.gains]

    residuals: list[Payoff] = []
    for psi in model.claims:
        proj = linalg.project_onto_span(psi, gains, weights)
        residuals.append(_mask_to_support([x - p for x, p in zip(psi, proj)], weights))

    span_basis = [residuals[i] for i in linalg.independent_rows(residuals)]

    blocks: list[JumpBlock] = []
    previous_basis: list[Payoff] = []
    for k in range(model.horizon + 1):
        measurable = _measurable_combinations(span_basis, model, k, weights)
        fresh = []
        for v in measurable:
            proj = linalg.project_onto_span(v, previous_basis, weights)
            fresh.append(tuple(x - p for x, p in zip(v, proj)))
        block_vectors = linalg.gram_schmidt(fresh, weights)
        block_vectors = [_mask_to_support(v, weights) for v in block_vectors]
        if block_vectors:
            if k >= 1:
                for v in block_vectors:
                    prior = conditional_expectation(model, v, k - 1, measure)
                    if any(prior[a] != 0 for a in support):
                        raise InvariantViolation("block martingale must vanish before its jump")
            cell_of = model.coarse_cell_of[max(k - 1, 0)]
            carrying = sorted({cell_of[a] for v in block_vectors for a in support if v[a] != 0})
            blocks.append(JumpBlock(k, tuple(block_vectors), tuple(carrying)))
        previous_basis = measurable

    return UnhedgeableDecomposition(tuple(residuals), tuple(blocks))


def _measurable_combinations(
    span_basis: Sequence[Payoff], model: FilteredModel, k: int, weights: Sequence[Fraction]
) -> list[Payoff]:
    """Basis of the span elements constant on each charged P_k cell."""
    if not span_basis:
        return []
    constraints: list[list[Fraction]] = []
    for group in model.coarse_groups[k]:
        charged = [a for a in group if weights[a] > 0]
        for a, b in zip(charged, charged[1:]):
            constraints.append([vec[a] - vec[b] for vec in span_basis])
    if not constraints:
        coeff_basis = [tuple(ONE if i == j else ZERO for j in range(len(span_basis))) for i in range(len(span_basis))]
    else:
        coeff_basis = linalg.nullspace(constraints)
    combined = []
    for coeffs in coeff_basis:
        vec = [ZERO] * model.n_cells
        for coef, base in zip(coeffs, span_basis):
            for a, x in enumerate(base):
                vec[a] += coef * x
        combined.append(tuple(vec))
    return combined
