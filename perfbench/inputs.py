"""Seeded scenario generators for the benchmark workloads.

The generators are the benchmark's own: the random corpus follows the recipe
of ``semistatic.sampling.random_model`` (a refining partition tree with one
asset, increments that straddle zero, claims centred under a reference
measure) but never calls it, so a change to the program cannot change the
inputs.  Every scenario is kept in memory as a ``Market`` for the checkers
and written to disk as scenario JSON for the program.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

ZERO = Fraction(0)
ONE = Fraction(1)
MAX_ATOMS = 8
MAX_PERIODS = 3


def fmt(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


@dataclass
class Jump:
    tau: list  # per outcome: int time index, or None for "never"
    mark: list  # per outcome: Fraction, zero exactly where tau is None


@dataclass
class Market:
    """A scenario as the checkers see it; vectors are indexed by outcome."""

    name: str
    outcomes: list
    partitions: list  # per time index: list of sorted tuples of outcome indices
    prices: list  # [asset][k][outcome] -> Fraction
    claims: list = field(default_factory=list)  # per claim: Fraction per outcome
    allowed: set = None  # outcome indices priors may charge; None means all
    payoffs: dict = field(default_factory=dict)  # name -> Fraction per outcome
    jumps: list = field(default_factory=list)

    def __post_init__(self):
        self.partitions = [sorted(tuple(sorted(c)) for c in cells) for cells in self.partitions]
        if self.allowed is None:
            self.allowed = set(range(len(self.outcomes)))

    @property
    def horizon(self) -> int:
        return len(self.partitions) - 1

    @property
    def cells(self) -> list:
        """Terminal cells in the canonical order of measure and payoff vectors."""
        return self.partitions[-1]

    def label(self, cell) -> str:
        return "|".join(self.outcomes[w] for w in sorted(cell))

    def on_cells(self, per_outcome) -> list:
        return [per_outcome[cell[0]] for cell in self.cells]

    def allowed_cells(self) -> list:
        return [a for a, cell in enumerate(self.cells) if cell[0] in self.allowed]

    def to_json(self) -> dict:
        data = {
            "name": self.name,
            "outcomes": list(self.outcomes),
            "times": list(range(self.horizon + 1)),
            "filtration": [[[self.outcomes[w] for w in cell] for cell in cells] for cells in self.partitions],
            "prices": [[[fmt(x) for x in row] for row in asset] for asset in self.prices],
            "claims": [[fmt(x) for x in claim] for claim in self.claims],
            "prior_support": "all"
            if len(self.allowed) == len(self.outcomes)
            else [self.outcomes[w] for w in sorted(self.allowed)],
            "jumps": [
                {
                    "tau": {self.outcomes[w]: ("inf" if t is None else t) for w, t in enumerate(j.tau)},
                    "mark": {self.outcomes[w]: fmt(x) for w, x in enumerate(j.mark)},
                }
                for j in self.jumps
            ],
            "payoffs": {name: [fmt(x) for x in vec] for name, vec in self.payoffs.items()},
        }
        return data

    def write(self, directory: Path) -> Path:
        path = directory / f"{self.name}.json"
        path.write_text(json.dumps(self.to_json()))
        return path


# ---------------------------------------------------------------- ladder


def ladder_increments(b: int) -> list:
    return [Fraction(d) for d in range(-(b // 2), b - b // 2)]


def ladder_market(b: int, horizon: int) -> Market:
    """Claim-free one-asset b-nomial tree, natural filtration, payoff |S_K|."""
    increments = ladder_increments(b)
    paths = list(itertools.product(range(b), repeat=horizon))
    outcomes = ["p" + "".join(str(i) for i in path) for path in paths]
    rows = [[sum((increments[i] for i in path[:k]), ZERO) for path in paths] for k in range(horizon + 1)]
    partitions = []
    for k in range(horizon + 1):
        groups: dict = {}
        for w, path in enumerate(paths):
            groups.setdefault(path[:k], []).append(w)
        partitions.append(list(groups.values()))
    return Market(
        name=f"ladder_b{b}_K{horizon}",
        outcomes=outcomes,
        partitions=partitions,
        prices=[rows],
        payoffs={"abs": [abs(x) for x in rows[-1]]},
    )


# ---------------------------------------------------------------- random corpus


class _Node:
    def __init__(self, value: Fraction, mass: Fraction):
        self.value = value
        self.mass = mass
        self.children: list = []
        self.lo = self.hi = -1

    def number(self, counter: list) -> None:
        if not self.children:
            self.lo = counter[0]
            counter[0] += 1
            self.hi = counter[0]
            return
        for child in self.children:
            child.number(counter)
        self.lo, self.hi = self.children[0].lo, self.children[-1].hi


def _increments(rng: random.Random, count: int) -> list:
    while True:
        inc = [Fraction(rng.choice([-2, -1, 0, 0, 1, 2])) for _ in range(count)]
        if min(inc) <= 0 <= max(inc):
            return inc


def _balancing_weights(increments: list) -> list:
    """Zero-mean conditional weights on the min, max and zero steps."""
    lo, hi = min(increments), max(increments)
    count = len(increments)
    if lo == hi == 0:
        return [ONE / count] * count
    i_lo, i_hi = increments.index(lo), increments.index(hi)
    zeros = [i for i, d in enumerate(increments) if d == 0 and i not in (i_lo, i_hi)]
    span = hi - lo
    scale = ONE / (2 * span) if zeros else ONE / span
    weights = [ZERO] * count
    weights[i_hi] += -lo * scale
    weights[i_lo] += hi * scale
    for i in zeros:
        weights[i] = Fraction(1, 2 * len(zeros))
    return weights


def random_market(
    shape: random.Random,
    rng: random.Random,
    name: str,
    min_claims: int,
    max_claims: int,
    n_payoffs: int,
    n_jumps: int,
) -> Market:
    """A random one-asset tree model with a calibrated martingale measure.

    At most MAX_ATOMS outcomes and MAX_PERIODS periods.  The tree's shape
    comes from ``shape``; every value comes from ``rng``.
    """
    horizon = shape.randint(1, MAX_PERIODS)
    n_roots = 2 if shape.random() < 0.2 else 1
    roots = [_Node(ZERO, Fraction(1, n_roots)) for _ in range(n_roots)]
    levels = [list(roots)]
    total = n_roots
    for _ in range(horizon):
        frontier = []
        for node in levels[-1]:
            room = MAX_ATOMS - total
            c = min(shape.choice([1, 2, 2, 3]) if room > 0 else 1, room + 1)
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
        root.number(counter)
    n = counter[0]

    partitions = [[list(range(node.lo, node.hi)) for node in level] for level in levels]
    rows = []
    for level in levels:
        row = [ZERO] * n
        for node in level:
            for w in range(node.lo, node.hi):
                row[w] = node.value
        rows.append(row)
    reference = [ZERO] * n
    for node in levels[-1]:
        reference[node.lo] = node.mass

    claims = []
    for _ in range(shape.randint(min_claims, max_claims)):
        raw = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
        mean = sum((q * x for q, x in zip(reference, raw)), ZERO)
        claims.append([x - mean for x in raw])
    allowed = set(range(n))
    if rng.random() < 0.2:
        for w in range(n):
            if reference[w] == 0 and rng.random() < 0.5:
                allowed.discard(w)
    payoffs = {f"p{i}": [Fraction(rng.randint(-3, 3)) for _ in range(n)] for i in range(n_payoffs)}
    jumps = [_random_jump(rng, n, horizon) for _ in range(n_jumps)]
    return Market(
        name=name,
        outcomes=[f"w{i}" for i in range(n)],
        partitions=partitions,
        prices=[rows],
        claims=claims,
        allowed=allowed,
        payoffs=payoffs,
        jumps=jumps,
    )


def _random_jump(rng: random.Random, n: int, horizon: int) -> Jump:
    tau, mark = [], []
    pool = [Fraction(1), Fraction(1), Fraction(2), Fraction(1, 2)]
    for _ in range(n):
        if rng.random() < 0.35:
            tau.append(None)
            mark.append(ZERO)
        else:
            tau.append(rng.randint(0, horizon))
            mark.append(rng.choice(pool))
    return Jump(tau, mark)


# ---------------------------------------------------------------- bundled scenarios


def market_from_scenario(data: dict) -> Market:
    """Read one of the repository's bundled scenario files (integers and "p/q")."""
    outcomes = list(data["outcomes"])
    index = {w: i for i, w in enumerate(outcomes)}
    prices = [[[Fraction(x) for x in row] for row in asset] for asset in data["prices"]]
    spec = data.get("filtration", "natural")
    if spec == "natural":
        partitions = []
        for k in range(len(data["times"])):
            groups: dict = {}
            for w in range(len(outcomes)):
                key = tuple(asset[t][w] for t in range(k + 1) for asset in prices)
                groups.setdefault(key, []).append(w)
            partitions.append(list(groups.values()))
    else:
        partitions = [[[index[w] for w in cell] for cell in cells] for cells in spec]
    support = data.get("prior_support", "all")
    jumps = []
    for j in data.get("jumps", []):
        tau = [None if j["tau"][w] == "inf" else int(j["tau"][w]) for w in outcomes]
        mark = [Fraction(j["mark"][w]) for w in outcomes]
        jumps.append(Jump(tau, mark))
    return Market(
        name=str(data["name"]),
        outcomes=outcomes,
        partitions=partitions,
        prices=prices,
        claims=[[Fraction(x) for x in c] for c in data.get("claims", [])],
        allowed=None if support == "all" else {index[w] for w in support},
        payoffs={k: [Fraction(x) for x in v] for k, v in data.get("payoffs", {}).items()},
        jumps=jumps,
    )
