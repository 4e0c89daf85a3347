"""Quasi-sure superhedging, robust pricing, and exact duality certification.

The superhedging price is a linear program: minimize initial cash subject to
pointwise domination on every prior-allowed terminal cell.  Its dual is the
maximization of the expected payoff over calibrated martingale measures.  The
two sides are certified as a pair: a small checker recomputes the optimal
strategy's payoff, confirms domination, and collects the cells where it binds;
the measures charging only those cells form the face of maximizers, and only
that face's vertices are enumerated.  ``robust_price`` keeps the full scan of
the model's extreme points as an independent oracle.

An empty measure set is certified by a zero-cost strategy paying a positive
floor on every allowed cell.  ``_phase1_certificate`` alone produces it, from
phase 1 on {q >= 0 : gains q = 0, claims q = 0, sum q = 1} over the allowed
cells, each row the primitive int multiple p_i = r_i s_i / g_i of the
rational row r_i there.  ``simplex.phase1_dual`` gives t y_i = t - O[n+i],
t = O[n+last] - O[rhs], and row i holds -t y_i s_i / g_i, so the
certificate depends on the rational rows alone, not on the scales the int
tables chose; ``_checked_certificate`` alone judges it.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from math import gcd
from typing import NamedTuple, Sequence

from .errors import EmptyMeasureSet, InvariantViolation
from .hedging import SemiStaticStrategy, int_strategy_columns, strategy_payoff
from .model import FilteredModel, Measure, Payoff, _check_vector
from .polytope import enumerate_extreme_points
from .rationals import common_denominator, fmt
from .simplex import phase1_dual, solve_lp

ZERO = Fraction(0)
CERTIFICATE_MISSING = "certificate must be zero-cost and pay a positive floor on every allowed cell"


class SuperhedgeResult(NamedTuple):
    price: Fraction | None  # None signals an unbounded (arbitrage) problem
    strategy: SemiStaticStrategy
    tight: tuple[int, ...]  # allowed terminal cells where the hedge binds

    @property
    def unbounded(self) -> bool:
        return self.price is None

    def to_json(self, model: FilteredModel) -> dict:
        return {
            "price": "-inf" if self.unbounded else fmt(self.price),
            "strategy": self.strategy.to_json(model),
            "tight": [model.terminal_labels[a] for a in self.tight],
        }


class RobustPriceResult(NamedTuple):
    value: Fraction | None  # None encodes the empty measure set (-inf)
    argmax: tuple[Measure, ...]

    @property
    def empty(self) -> bool:
        return self.value is None

    def to_json(self, model: FilteredModel) -> dict:
        return {
            "value": "-inf" if self.empty else fmt(self.value),
            "argmax": [m.to_json(model) for m in self.argmax],
        }


def _unscaled(values: Sequence[Fraction], scales: Sequence[int], divisor: int) -> list[Fraction]:
    """The rational program's coordinates y_i * s_i / divisor, from the int program's y_i and column scales s_i."""
    pairs = zip(values, scales)  # the copies skip a Fraction: superhedge +2.4% without them
    return [y if not y or s == divisor else Fraction(y.numerator * s, y.denominator * divisor) for y, s in pairs]


def superhedge(payoff: Sequence[Fraction], model: FilteredModel) -> SuperhedgeResult:
    """Cheapest semi-static strategy dominating the payoff on allowed cells.

    Strategy coordinates are free variables of the program, one tableau
    column each; one surplus variable per allowed cell turns domination into
    equality.  The cash column is 1 on every cell, so the program meets
    ``solve_lp``'s contract: cash can always dominate a finite payoff, and
    phase 1 ends with no artificial basic.  The columns are the int rows of
    ``int_strategy_columns`` (s_i times the rational ones) and the payoff is
    scaled by its lcm D, so the int program's coordinate is x_i * D / s_i.
    Positive column and rhs scales change no sign and no ratio, so Bland's
    rule pivots as on the rational program, whose solution is read
    back through the scales.  An unbounded program means the statics admit
    model-free arbitrage, reported through the improving ray, scaled as the
    rational ray is: +-1 in its entering column.  The ray is checked without
    the LP: negative cash and a recomputed payoff >= 0 on every allowed
    cell, else InvariantViolation.  So is an optimum: its tight cells, read
    off the surplus variables, must be ``_tight_cells`` of the strategy,
    else InvariantViolation.
    """
    _check_vector("payoff entries", payoff, model.n_cells)
    columns = int_strategy_columns(model)
    allowed = sorted(model.allowed)
    n_free = len(columns)
    matrix = []  # per allowed cell: each int column there, then -1 in the cell's own surplus column
    for slot, a in enumerate(allowed):
        matrix.append([row[a] for row, _ in columns] + [0] * slot + [-1] + [0] * (len(allowed) - slot - 1))
    rhs, scale = common_denominator([payoff[a] for a in allowed])
    cost = [1] + [0] * (n_free - 1 + len(allowed))

    result = solve_lp(cost, matrix, rhs, free=n_free)
    scales = [s for _, s in columns]
    if result.status == "unbounded":
        unit = scales[result.column] if result.column < n_free else 1
        ray = SemiStaticStrategy.from_coordinates(_unscaled(result.ray, scales, unit), model)
        value = strategy_payoff(ray, model)
        if ray.cash >= 0 or any(value[a] < 0 for a in allowed):
            raise InvariantViolation("arbitrage ray must have negative cash and pay >= 0 on every allowed cell")
        return SuperhedgeResult(None, ray, ())
    strategy = SemiStaticStrategy.from_coordinates(_unscaled(result.solution, scales, scale), model)
    tight = tuple(a for slot, a in enumerate(allowed) if result.solution[n_free + slot] == 0)
    if _tight_cells(strategy, payoff, model) != tight:
        raise InvariantViolation("superhedge's tight cells must be where its recomputed payoff equals the claim's")
    return SuperhedgeResult(strategy.cash, strategy, tight)  # cash is the only cost, so the price


def robust_price(payoff: Sequence[Fraction], model: FilteredModel) -> RobustPriceResult:
    """Maximal expected payoff over the model's enumerated extreme measures."""
    _check_vector("payoff entries", payoff, model.n_cells)
    return _scan_vertices(payoff, enumerate_extreme_points(model.constraints).vertices)


def _scan_vertices(payoff: Sequence[Fraction], vertices: Sequence[Measure]) -> RobustPriceResult:
    """The best expectation over the measures and those attaining it; the payoff is scaled to ints once."""
    if not vertices:
        return RobustPriceResult(None, ())
    x, scale = common_denominator(payoff)
    values = [m.expectation(x, scale) for m in vertices]
    best = max(values)
    return RobustPriceResult(best, tuple(m for m, v in zip(vertices, values) if v == best))


def _tight_cells(strategy: SemiStaticStrategy, payoff: Sequence[Fraction], model: FilteredModel) -> tuple[int, ...]:
    """Allowed cells where the strategy's payoff equals the claim's; raises unless it dominates.

    The payoff is recomputed from the strategy itself, not read off the LP's
    surplus variables.
    """
    allowed = sorted(model.allowed)
    value = strategy_payoff(strategy, model)
    if any(value[a] < payoff[a] for a in allowed):
        raise InvariantViolation("superhedging strategy must dominate the payoff on every allowed cell")
    return tuple(a for a in allowed if value[a] == payoff[a])


def optimal_face(payoff: Sequence[Fraction], model: FilteredModel) -> tuple[SuperhedgeResult, RobustPriceResult]:
    """The superhedge and the extreme maximizers it certifies, without a full vertex scan.

    Under a calibrated martingale measure the strategy's payoff has
    expectation equal to its cash, so E_Q[X] <= cash, with equality exactly
    when Q charges only the tight cells.  The vertices of that face are
    therefore all the extreme maximizers, in the canonical vertex order; the
    face must be nonempty and its vertices must share one expectation.  An
    unbounded superhedge means an empty measure set, reported as -inf.
    """
    primal = superhedge(payoff, model)
    if primal.unbounded:
        return primal, RobustPriceResult(None, ())
    face = enumerate_extreme_points(replace(model.constraints, allowed=frozenset(primal.tight)))
    dual = _scan_vertices(payoff, face.vertices)
    if not face.vertices or dual.argmax != face.vertices:
        raise InvariantViolation("the tight face must be nonempty with one expectation on all its vertices")
    return primal, dual


class DualityReport(NamedTuple):
    primal: Fraction  # superhedging price
    dual: Fraction  # robust price
    strategy: SemiStaticStrategy
    argmax: tuple[Measure, ...]
    tight: tuple[int, ...]
    slackness_ok: bool

    @property
    def gap(self) -> Fraction:
        return self.primal - self.dual

    @property
    def ok(self) -> bool:
        return self.gap == 0 and self.slackness_ok

    def to_json(self, model: FilteredModel) -> dict:
        return {
            "primal": fmt(self.primal),
            "dual": fmt(self.dual),
            "gap": fmt(self.gap),
            "strategy": self.strategy.to_json(model),
            "argmax": [m.to_json(model) for m in self.argmax],
            "tight": [model.terminal_labels[a] for a in self.tight],
            "slackness_ok": self.slackness_ok,
            "ok": self.ok,
        }


def verify_duality(payoff: Sequence[Fraction], model: FilteredModel) -> DualityReport:
    """Certify primal = dual exactly and check complementary slackness.

    The dual side is the face of maximizers from ``optimal_face``, so only
    that face's vertices are enumerated; slackness is checked against the
    tight cells the LP reports.
    """
    primal, dual = optimal_face(payoff, model)
    if dual.empty:
        raise EmptyMeasureSet("empty calibrated measure set; run detect_arbitrage for a certificate")
    tight_set = set(primal.tight)
    slackness = all(a in tight_set for measure in dual.argmax for a in measure.support)
    return DualityReport(primal.price, dual.value, primal.strategy, dual.argmax, primal.tight, slackness)


class ArbitrageReport(NamedTuple):
    feasible: bool
    vertex_count: int
    certificate: SemiStaticStrategy | None = None
    certificate_payoff: Payoff | None = None

    def to_json(self, model: FilteredModel) -> dict:
        out: dict = {"feasible": self.feasible, "vertex_count": self.vertex_count}
        if self.certificate is not None:
            out["certificate"] = self.certificate.to_json(model)
            out["certificate_payoff"] = [fmt(x) for x in self.certificate_payoff]
        return out


def detect_arbitrage(model: FilteredModel) -> ArbitrageReport:
    """Feasibility of the calibrated measure set, counted in vertices, else ``_phase1_certificate``'s certificate."""
    count = len(enumerate_extreme_points(model.constraints).vertices)
    return ArbitrageReport(True, count) if count else _phase1_certificate(model)


def _phase1_certificate(model: FilteredModel) -> ArbitrageReport:
    """The checked certificate of an empty calibrated measure set from phase 1 on the primitive rows.

    A row that vanishes on the allowed cells has no primitive form and is held at 0.
    """
    allowed = sorted(model.allowed)
    rows, factors = [], []
    for row in model.constraints.rows:
        restricted = [row.normal[a] for a in allowed]
        g = gcd(*restricted)
        rows.append([x // g for x in restricted] if g else restricted)
        factors.append(Fraction(row.scale, g) if g else ZERO)
    y = phase1_dual(rows + [[1] * len(allowed)], [0] * len(rows) + [1])
    if y is None:
        raise InvariantViolation(CERTIFICATE_MISSING)
    holdings = [-x * f for x, f in zip(y, factors)]
    n_gains = len(model.int_gains)
    return _checked_certificate(SemiStaticStrategy(ZERO, tuple(holdings[n_gains:]), tuple(holdings[:n_gains])), model)


def _checked_certificate(strategy: SemiStaticStrategy, model: FilteredModel) -> ArbitrageReport:
    """The certificate if the strategy has zero cash and a recomputed payoff > 0 on every allowed cell, else raises."""
    value = strategy_payoff(strategy, model)
    if strategy.cash != 0 or not all(0 < value[a] for a in model.allowed):
        raise InvariantViolation(CERTIFICATE_MISSING)
    return ArbitrageReport(False, 0, strategy, value)
