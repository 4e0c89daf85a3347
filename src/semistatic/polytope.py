"""The calibrated martingale-measure polytope and its extreme points.

Every static claim has zero initial price, so every row is homogeneous: the
measure set is {q >= 0 : Aq = 0, sum q = 1} over terminal cells, the section
of the cone {q >= 0 : Aq = 0} by the sum, with one martingale row per
(period, predecessor cell, asset), one calibration row per claim, and zero
bounds outside the prior support.  Each row is an int normal read off the
model's int tables, with its scale; a face shares its system's rows.  The
vertices are the cone's extreme rays q, each scaled to q / sum q; the rays
are enumerated by the double description method with the rows taken deepest
first.  The rays are primitive int tuples and every sign test is exact; a
row's sign values walk only its nonzeros, and each ray's zero set is an int
bitmask, so the adjacency test is a few integer operations per ray.  Every
surviving ray is checked in int arithmetic before it becomes a measure: the
signs, a nonzero ray, and, on the rows that touch its support S (found
through a column-to-rows index built once from the system), that each
vanishes on the ray and that ``linalg.echelon`` (the forward half of the one
fraction-free kernel in ``linalg``) finds rank |S| - 1, so that the support
columns with the all-ones row are independent.  A vertex keeps that int
form, with no Fraction; ``is_extreme`` builds a certificate on demand.
Emptiness, vertex identity, and certificates are thus all exact yes/no facts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import NamedTuple

from . import linalg
from .errors import InvariantViolation, NotCalibrated, ShapeError
from .model import FilteredModel, Measure, Payoff, _check_vector

ZERO = Fraction(0)

RowLabel = tuple


class Row(NamedTuple):
    """One homogeneous row ``a . q = 0`` as an int normal that is ``scale`` times the rational coefficients a."""

    label: RowLabel
    normal: tuple[int, ...]
    scale: int


@dataclass(frozen=True)
class ConstraintSystem:
    """The equality rows of the calibrated martingale-measure set, the allowed cells and the cell count."""

    rows: tuple[Row, ...]
    allowed: frozenset[int]
    n_cells: int

    def __post_init__(self) -> None:
        bad = [a for a in self.allowed if type(a) is not int or not 0 <= a < self.n_cells]
        if bad:
            raise ShapeError(f"allowed cells {sorted(bad, key=repr)} outside 0..{self.n_cells - 1}")


class ExtremalityCertificate(NamedTuple):
    extreme: bool
    witness_rows: tuple[int, ...] | None = None
    direction: Payoff | None = None


class VertexSet(NamedTuple):
    vertices: tuple[Measure, ...]

    def to_json(self, model: FilteredModel) -> list[dict]:
        return [m.to_json(model) for m in self.vertices]


def build_constraints(model: FilteredModel) -> ConstraintSystem:
    """The martingale rows, then the calibration rows, from the model's int tables; the sum to one is ``Measure``'s."""
    rows = [Row(("martingale", k, c, j), row, scale) for (_, k, c, j), row, scale in model.int_gains]
    for i, (row, scale) in enumerate(model.int_claims):
        rows.append(Row(("calibration", i), row, scale))
    return ConstraintSystem(tuple(rows), model.allowed, model.n_cells)


def member(measure: Measure, cs: ConstraintSystem) -> bool:
    """Exact satisfaction of every row and the support mask, in ints.

    The weights are nonnegative and sum to one (``Measure`` checks both);
    each normal must vanish on the measure's ``numerators`` over the support.
    A measure of another length raises ShapeError.
    """
    _check_vector("measure weights", measure.numerators, cs.n_cells)
    support = measure.support
    if not cs.allowed.issuperset(support):
        return False
    charged = [(a, measure.numerators[a]) for a in support]
    return not any(sum(row.normal[a] * x for a, x in charged) for row in cs.rows)


def is_extreme(measure: Measure, cs: ConstraintSystem) -> ExtremalityCertificate:
    """Vertex test: the rows and the all-ones row must have independent columns on the support.

    The certificate's ``extreme`` is the verdict.  A vertex's ``witness_rows`` index ``cs.rows``, the
    ones row being ``len(cs.rows)``; any other measure's carries a nonzero direction d with Ad = 0,
    sum d = 0 and support(d) inside support(Q), so Q +/- eps*d stays feasible.
    A measure outside the system raises NotCalibrated.
    """
    if not member(measure, cs):
        raise NotCalibrated("measure does not satisfy the constraint system")
    support = measure.support
    restricted = [[row.normal[a] for a in support] for row in cs.rows] + [[1] * len(support)]
    witness = linalg.independent_rows(restricted)
    if len(witness) == len(support):
        return ExtremalityCertificate(True, witness_rows=tuple(witness))
    direction = [ZERO] * cs.n_cells
    for a, value in zip(support, linalg.nullspace(restricted)[0]):
        direction[a] = value
    return ExtremalityCertificate(False, direction=tuple(direction))


def _double_description(normals: list[list[tuple[int, int]]], dim: int) -> list[tuple[int, ...]]:
    """Extreme rays of {x >= 0 : n.x = 0 for every normal n} as primitive int tuples.

    Each normal is given by its nonzeros, (column, value) pairs.  Start from
    the coordinate rays and intersect with one hyperplane at a time, keeping
    the rays on it and one combination of each adjacent sign-crossing pair.
    Rays are addressed by position and each one's zero set is an int bitmask
    over coordinates: two rays are adjacent when no third ray's zero set
    contains their common zeros.
    """
    full = (1 << dim) - 1
    zeros = (0,) * dim
    rays = [zeros[:i] + (1,) + zeros[i + 1 :] for i in range(dim)]
    masks = [full ^ (1 << i) for i in range(dim)]
    for normal in normals:
        values = [sum([a * r[j] for j, a in normal]) for r in rays]
        plus = [i for i, v in enumerate(values) if v > 0]
        minus = [i for i, v in enumerate(values) if v < 0]
        survivors = {rays[i]: masks[i] for i, v in enumerate(values) if v == 0}
        for p in plus:
            rp, vp, zp = rays[p], values[p], masks[p]
            for m in minus:
                common = zp & masks[m]
                # rays p and m vanish on their common zeros; a third one that does blocks adjacency
                if len([z for z in masks if common & ~z == 0]) == 2:
                    vm = values[m]
                    combined = [vp * b - vm * a for a, b in zip(rp, rays[m])]
                    g = gcd(*combined)
                    # coordinates are nonnegative, so the new ray vanishes exactly on the common zeros
                    survivors[tuple([x // g for x in combined])] = common
        rays = list(survivors)
        masks = list(survivors.values())
    return rays


def _check_vertex_ray(ray: tuple[int, ...], normals: list[list[int]], touching: list[list[int]]) -> None:
    """Exact int check that a ray q stands for a vertex q / sum q; raises InvariantViolation.

    It must be nonnegative and nonzero, and only the normals that touch its
    support S (``touching[j]`` lists those with a nonzero in column j) are
    read: the others vanish on q.  Those restricted to S must vanish on q_S,
    and ``linalg.echelon`` on them must find rank |S| - 1.  Given q >= 0,
    q != 0 and A_S q_S = 0, that is the independence of the columns of
    [A_S; 1]: they are independent exactly when null(A_S) = span(q_S), that
    is when rank(A_S) = |S| - 1.
    """
    if min(ray) < 0 or not any(ray):
        raise InvariantViolation("surviving ray must be nonnegative and nonzero")
    support = [j for j, x in enumerate(ray) if x]
    rows = sorted({k for j in support for k in touching[j]})
    restricted = [[normals[k][j] for j in support] for k in rows]
    weights = [ray[j] for j in support]
    if any(sum([a * x for a, x in zip(row, weights)]) for row in restricted):
        raise InvariantViolation("surviving ray must satisfy every constraint row")
    if len(linalg.echelon(restricted)) != len(support) - 1:
        raise InvariantViolation("surviving ray must have independent support columns")


def enumerate_extreme_points(cs: ConstraintSystem) -> VertexSet:
    """All vertices of {q >= 0 : Aq = 0, sum q = 1}, in canonical order.

    Double description on the cone {q >= 0 : Aq = 0} over the allowed cells,
    with each row's int normal restricted to those cells.  The rows are
    intersected deepest first: the martingale rows in reverse (k, c, j)
    order, then the calibration rows, which keeps far fewer intermediate
    rays than the given order.  ``cs.rows`` keeps its order, and the
    vertices are sorted afterwards, so the output does not depend on the row
    order.  The cone is pointed, so each extreme ray q meets the sum-one
    section in exactly one vertex q / sum q, and an infeasible system leaves
    no ray.  Each ray passes ``_check_vertex_ray`` in int arithmetic, and
    becomes a measure through ``Measure.from_ints``, with no Fraction.  The
    vertices are sorted by support alone: the columns of [A_S; 1] are
    independent, so a vertex is the only point with its support S.
    Extremality certificates are built on demand by ``is_extreme``.
    """
    cols = sorted(cs.allowed)
    martingale = [row.normal for row in cs.rows if row.label[0] == "martingale"]
    others = [row.normal for row in cs.rows if row.label[0] != "martingale"]
    # a positive multiple of the row re-scaled over these cells alone: the same primitive rays
    normals = [[normal[c] for c in cols] for normal in martingale[::-1] + others]
    normals = [normal for normal in normals if any(normal)]  # certify-corpus enumeration +11% without the filter
    nonzeros = [[(j, a) for j, a in enumerate(normal) if a] for normal in normals]
    touching: list[list[int]] = [[] for _ in cols]
    for k, normal in enumerate(nonzeros):
        for j, _ in normal:
            touching[j].append(k)
    vertices = []
    for ray in _double_description(nonzeros, len(cols)):
        _check_vertex_ray(ray, normals, touching)
        numerators = [0] * cs.n_cells
        for c, x in zip(cols, ray):
            numerators[c] = x
        vertices.append(Measure.from_ints(numerators, sum(ray)))
    vertices.sort(key=lambda m: m.support)
    return VertexSet(tuple(vertices))
