"""The calibrated martingale-measure polytope and its extreme points.

The measure set is {q >= 0 : Aq = b} over terminal cells, with one martingale
row per (period, predecessor cell, asset), one calibration row per claim, a
single normalization row, and zero bounds outside the prior support.  Extreme
points are enumerated by the double description method run on the homogenized
cone.  Each row is scaled to integers, so the rays are primitive int tuples
and every sign test is exact; each ray's zero set is an int bitmask, so the
adjacency test is a few integer operations per ray.  Emptiness, vertex
identity, and certificates are thus all exact yes/no facts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from . import linalg
from .errors import ConstraintViolation, InvariantViolation
from .model import FilteredModel, Measure, Payoff
from .rationals import integer_row

ZERO = Fraction(0)
ONE = Fraction(1)

RowLabel = tuple


@dataclass(frozen=True)
class Row:
    label: RowLabel
    coeffs: Payoff
    rhs: Fraction


@dataclass(frozen=True)
class ConstraintSystem:
    rows: tuple[Row, ...]
    allowed: frozenset[int]
    n_cells: int

    def matrix(self) -> list[list[Fraction]]:
        return [list(r.coeffs) for r in self.rows]

    def rhs(self) -> list[Fraction]:
        return [r.rhs for r in self.rows]


@dataclass(frozen=True)
class ExtremalityCertificate:
    extreme: bool
    witness_rows: tuple[int, ...] | None = None
    direction: Payoff | None = None


@dataclass(frozen=True)
class VertexSet:
    vertices: tuple[Measure, ...]
    certificates: tuple[ExtremalityCertificate, ...]

    def __len__(self) -> int:
        return len(self.vertices)

    def to_json(self, model: FilteredModel) -> list[dict]:
        return [m.to_json(model) for m in self.vertices]


def build_constraints(model: FilteredModel) -> ConstraintSystem:
    """Equality description of the calibrated martingale-measure set."""
    rows = [Row(("martingale", *label[1:]), vec, ZERO) for label, vec in model.gains]
    for i in range(len(model.claims)):
        rows.append(Row(("calibration", i), model.claim_vector(i), ZERO))
    rows.append(Row(("normalization",), tuple([ONE] * model.n_cells), ONE))
    return ConstraintSystem(tuple(rows), frozenset(model.priors.allowed), model.n_cells)


def member(measure: Measure, cs: ConstraintSystem) -> bool:
    """Exact satisfaction of every row, the bounds, and the support mask."""
    if len(measure.weights) != cs.n_cells:
        return False
    if any(w < 0 for w in measure.weights):
        return False
    if any(w > 0 and a not in cs.allowed for a, w in enumerate(measure.weights)):
        return False
    support = measure.support
    weights = measure.weights
    return all(sum((row.coeffs[a] * weights[a] for a in support), ZERO) == row.rhs for row in cs.rows)


def is_extreme(measure: Measure, cs: ConstraintSystem) -> tuple[bool, ExtremalityCertificate]:
    """Vertex test: the equality columns on the support must be independent.

    On failure the certificate carries a nonzero direction d with Ad = 0 and
    support(d) inside support(Q), so Q +/- eps*d stays feasible.
    """
    if not member(measure, cs):
        raise ConstraintViolation("measure does not satisfy the constraint system")
    support = measure.support
    restricted = [[row.coeffs[a] for a in support] for row in cs.rows]
    witness = linalg.independent_rows(restricted)
    if len(witness) == len(support):
        return True, ExtremalityCertificate(True, witness_rows=tuple(witness))
    direction = [ZERO] * cs.n_cells
    for a, value in zip(support, linalg.nullspace(restricted)[0]):
        direction[a] = value
    return False, ExtremalityCertificate(False, direction=tuple(direction))


def _forced_zero_columns(rows: list[tuple[Payoff, Fraction]], cols: list[int]) -> set[int] | None:
    """Columns pinned to zero by the equalities plus nonnegativity.

    Runs Gaussian elimination and collects rows of one sign with zero right
    hand side; returns None when a row is outright infeasible over q >= 0.
    """
    forced: set[int] = set()
    active = list(cols)
    while True:
        key = {c: i for i, c in enumerate(active)}
        tableau = [[coeffs[c] for c in active] + [rhs] for coeffs, rhs in rows]
        reduced, _ = linalg.rref(tableau)
        new: set[int] = set()
        for row in reduced:
            body, rhs = row[:-1], row[-1]
            pos = [c for c in active if body[key[c]] > 0]
            neg = [c for c in active if body[key[c]] < 0]
            if not pos and not neg:
                if rhs != 0:
                    return None
                continue
            if rhs == 0 and not neg:
                new.update(pos)
            elif rhs == 0 and not pos:
                new.update(neg)
            elif rhs < 0 and not neg:
                return None
            elif rhs > 0 and not pos:
                return None
        new -= forced
        if not new:
            return forced
        forced |= new
        active = [c for c in active if c not in forced]
        if not active:
            return forced


def enumerate_extreme_points(cs: ConstraintSystem) -> VertexSet:
    """All vertices of {q >= 0 : Aq = b}, in canonical order, with certificates.

    Double description on the homogenized cone {(q, t) >= 0 : Aq = b t}: start
    from the coordinate rays and intersect with one equality hyperplane at a
    time, keeping only adjacent sign-crossing pairs.  Each hyperplane normal is
    scaled to integers, so rays stay primitive int tuples.  Rays are addressed
    by position and each one's zero set is an int bitmask over coordinates:
    two rays are adjacent when no third ray's zero set contains their common
    zeros.  The normalization row forces t > 0 on every surviving ray, so rays
    and vertices correspond one-to-one.
    """
    cols = sorted(cs.allowed)
    data = [(row.coeffs, row.rhs) for row in cs.rows]
    forced = _forced_zero_columns(data, cols)
    if forced is None:
        return VertexSet((), ())
    cols = [c for c in cols if c not in forced]
    if not cols:
        return VertexSet((), ())

    dim = len(cols) + 1  # trailing homogenization coordinate t
    full = (1 << dim) - 1
    rays = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    masks = [full ^ (1 << i) for i in range(dim)]

    for row in cs.rows:
        normal = integer_row([row.coeffs[c] for c in cols] + [-row.rhs])
        if not any(normal):
            continue
        values = [sum(a * x for a, x in zip(normal, r) if x) for r in rays]
        plus = [i for i, v in enumerate(values) if v > 0]
        minus = [i for i, v in enumerate(values) if v < 0]
        if not plus and not minus:
            continue
        survivors = {rays[i]: masks[i] for i, v in enumerate(values) if v == 0}
        for p in plus:
            rp, vp, zp = rays[p], values[p], masks[p]
            for m in minus:
                common = zp & masks[m]
                # rays p and m vanish on their common zeros; a third one that does blocks adjacency
                hits = 0
                for z in masks:
                    if common & ~z == 0:
                        hits += 1
                        if hits > 2:
                            break
                else:
                    vm = values[m]
                    combined = [vp * b - vm * a for a, b in zip(rp, rays[m])]
                    g = gcd(*combined)
                    # coordinates are nonnegative, so the new ray vanishes exactly on the common zeros
                    survivors[tuple(x // g for x in combined)] = common
        if not survivors:
            return VertexSet((), ())
        rays = list(survivors)
        masks = list(survivors.values())

    vertices: list[tuple[tuple[int, ...], Payoff]] = []
    for ray in rays:
        t = ray[-1]
        if t <= 0:
            raise InvariantViolation("normalization row must bound every surviving ray")
        weights = [ZERO] * cs.n_cells
        for c, x in zip(cols, ray[:-1]):
            weights[c] = Fraction(x, t)
        vec = tuple(weights)
        support = tuple(a for a, w in enumerate(vec) if w > 0)
        vertices.append((support, vec))
    vertices.sort()

    measures = tuple(Measure(weights) for _, weights in vertices)
    certificates = tuple(is_extreme(m, cs)[1] for m in measures)
    return VertexSet(measures, certificates)
