"""Seeded random corpus of small models, payoffs, jumps, and measures.

Everything is driven by an explicit random.Random, so suites are reproducible
bit for bit.  Models are built as refining partition trees with one asset;
per-node price increments always straddle zero, which guarantees a calibrated
martingale measure exists, and claims are centered under a reference measure
built along the tree so the calibrated set stays nonempty after adding them.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Sequence

from .model import FilteredModel, Measure, Partition, Payoff, SingleJump
from .polytope import VertexSet

ZERO = Fraction(0)
ONE = Fraction(1)


class _Node:
    def __init__(self, value: Fraction, mass: Fraction):
        self.value = value
        self.mass = mass
        self.children: list[_Node] = []
        self.lo = -1
        self.hi = -1

    def assign_spans(self, counter: list[int]) -> None:
        if not self.children:
            self.lo = counter[0]
            counter[0] += 1
            self.hi = counter[0]
            return
        for child in self.children:
            child.assign_spans(counter)
        self.lo = self.children[0].lo
        self.hi = self.children[-1].hi


def _increments(rng: random.Random, count: int) -> list[Fraction]:
    while True:
        inc = [Fraction(rng.choice([-2, -1, 0, 0, 1, 2])) for _ in range(count)]
        if min(inc) <= 0 <= max(inc):
            return inc


def _balancing_weights(increments: Sequence[Fraction]) -> list[Fraction]:
    """Conditional weights with zero mean: mass on min, max, and zero steps."""
    lo, hi = min(increments), max(increments)
    count = len(increments)
    if lo == hi == 0:
        return [ONE / count] * count
    i_lo = increments.index(lo)
    i_hi = increments.index(hi)
    zeros = [i for i, d in enumerate(increments) if d == 0 and i not in (i_lo, i_hi)]
    span = hi - lo
    scale = ONE / (2 * span) if zeros else ONE / span
    weights = [ZERO] * count
    weights[i_hi] += -lo * scale
    weights[i_lo] += hi * scale
    for i in zeros:
        weights[i] = Fraction(1, 2 * len(zeros))
    return weights


def random_model(
    rng: random.Random,
    max_atoms: int = 8,
    max_periods: int = 3,
    max_claims: int = 2,
    n_claims: int | None = None,
) -> tuple[FilteredModel, Measure]:
    """A valid random model plus a reference calibrated martingale measure."""
    horizon = rng.randint(1, max_periods)
    n_roots = 2 if rng.random() < 0.2 else 1
    roots = [_Node(ZERO, Fraction(1, n_roots)) for _ in range(n_roots)]
    levels: list[list[_Node]] = [list(roots)]
    total = n_roots
    for _ in range(horizon):
        frontier = []
        for node in levels[-1]:
            room = max_atoms - total
            c = min(rng.choice([1, 2, 2, 3]) if room > 0 else 1, room + 1)
            if c <= 1:
                node.children = [_Node(node.value, node.mass)]
            else:
                incs = _increments(rng, c)
                weights = _balancing_weights(incs)
                node.children = [_Node(node.value + d, node.mass * w) for d, w in zip(incs, weights)]
                total += c - 1
            frontier.extend(node.children)
        levels.append(frontier)

    counter = [0]
    for root in roots:
        root.assign_spans(counter)
    n_outcomes = counter[0]

    cells_by_level = [[list(range(n.lo, n.hi)) for n in level] for level in levels]
    partitions = tuple(Partition(cells) for cells in cells_by_level)
    price_rows = []
    for level in levels:
        row = [ZERO] * n_outcomes
        for node in level:
            for w in range(node.lo, node.hi):
                row[w] = node.value
        price_rows.append(tuple(row))

    reference = [ZERO] * n_outcomes
    for node in levels[-1]:
        reference[node.lo] = node.mass

    n = rng.randint(0, max_claims) if n_claims is None else n_claims
    claims = []
    for _ in range(n):
        raw = [Fraction(rng.randint(-3, 3)) for _ in range(n_outcomes)]
        mean = sum((q * x for q, x in zip(reference, raw)), ZERO)
        claims.append(tuple(x - mean for x in raw))

    allowed = set(range(n_outcomes))
    if rng.random() < 0.2:
        for a in range(n_outcomes):
            if reference[a] == 0 and rng.random() < 0.5:
                allowed.discard(a)

    model = FilteredModel.from_fractions(
        outcomes=tuple(f"w{i}" for i in range(n_outcomes)),
        times=tuple(Fraction(k) for k in range(horizon + 1)),
        partitions=partitions,
        prices=(tuple(price_rows),),
        claims=tuple(claims),
        allowed=frozenset(allowed),
    )
    return model, Measure(tuple(reference))


def random_payoff(rng: random.Random, model: FilteredModel) -> Payoff:
    return tuple(Fraction(rng.randint(-3, 3)) for _ in range(model.n_cells))


def random_jump(rng: random.Random, model: FilteredModel) -> SingleJump:
    tau: list[int | None] = []
    mark: list[Fraction] = []
    mark_pool = [Fraction(1), Fraction(1), Fraction(2), Fraction(1, 2)]
    for _ in range(model.n_outcomes):
        if rng.random() < 0.35:
            tau.append(None)
            mark.append(ZERO)
        else:
            tau.append(rng.randint(0, model.horizon))
            mark.append(rng.choice(mark_pool))
    return SingleJump(tuple(tau), tuple(mark))


def random_measure(rng: random.Random, model: FilteredModel) -> Measure:
    """Arbitrary probability measure on the allowed terminal cells."""
    allowed = sorted(model.allowed)
    while True:
        raw = [rng.randint(0, 4) for _ in allowed]
        if any(raw):
            break
    total = sum(raw)
    weights = [ZERO] * model.n_cells
    for a, r in zip(allowed, raw):
        weights[a] = Fraction(r, total)
    return Measure(tuple(weights))


def _mix(measures: Sequence[Measure], coeffs: Sequence[Fraction]) -> Measure:
    n = len(measures[0].weights)
    return Measure(tuple(sum((lam * m.weights[a] for m, lam in zip(measures, coeffs)), ZERO) for a in range(n)))


def random_mixture(rng: random.Random, vertex_set: VertexSet) -> Measure:
    """Random dyadic convex combination of the enumerated vertices."""
    vertices = vertex_set.vertices
    picks = [v for v in vertices if rng.random() < 0.7] or [vertices[0]]
    raw = [rng.randint(1, 4) for _ in picks]
    total = sum(raw)
    return _mix(picks, [Fraction(r, total) for r in raw])
