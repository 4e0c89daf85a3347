"""The benchmark's workloads: seeded inputs and the CLI commands run on them.

A workload makes its scenarios from the seed (``markets``; this is set-up
work and is timed as such) and then turns them into a fixed list of CLI
commands, each paired with an independent check (``plan``; untimed).  Every
run executes the whole list, so every run does the same work.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import checks
from inputs import Market, ladder_increments, ladder_market, market_from_scenario, random_market

BUNDLED = Path(__file__).resolve().parents[1] / "scenarios"


@dataclass
class Op:
    argv: list
    # (exit code, parsed report or None, run-wide context) -> None or a reason
    check: Callable


def inline(weights) -> str:
    """Inline measure; always "p/q" so that it is never read as a vertex index."""
    return ",".join(f"{w.numerator}/{w.denominator}" for w in weights)


class Ladder:
    """Claim-free b-nomial trees on the ROADMAP rungs, in a fixed cycle."""

    RUNGS = ((4, 2), (5, 2), (3, 3))

    def markets(self, seed: int) -> list:
        return [ladder_market(b, k) for b, k in self.RUNGS]

    def plan(self, markets: list, paths: list) -> list:
        ops = []
        for (b, k), m, path in zip(self.RUNGS, markets, paths):
            increments = ladder_increments(b)
            expected = checks.ladder_vertices(increments, k)
            value = checks.ladder_value(increments, k)
            ops.append(Op(["extremes", path], lambda rc, r, ctx, m=m, e=expected: checks.check_extremes(m, rc, r, e)))
            ops.append(
                Op(
                    ["duality", "--payoff", "abs", path],
                    lambda rc, r, ctx, m=m, v=value: checks.check_duality(m, rc, r, "abs", v)[0],
                )
            )
        return ops


class DualityCorpus:
    """Random one-asset models with static claims; superhedge and duality."""

    MODELS = 330
    PAYOFFS = 3

    def markets(self, seed: int) -> list:
        return [
            random_market(
                random.Random(f"duality-shape-{i}"),
                random.Random(f"duality-{seed}-{i}"),
                f"dual{i:04d}",
                min_claims=1,
                max_claims=2,
                n_payoffs=self.PAYOFFS,
                n_jumps=0,
            )
            for i in range(self.MODELS)
        ]

    def plan(self, markets: list, paths: list) -> list:
        ops = []
        for m, path in zip(markets, paths):
            for name in m.payoffs:
                key = (m.name, name)

                def dual(rc, r, ctx, m=m, name=name, key=key):
                    bad, price = checks.check_duality(m, rc, r, name)
                    ctx[key] = price
                    return bad

                ops.append(Op(["duality", "--payoff", name, path], dual))
                ops.append(
                    Op(
                        ["superhedge", "--payoff", name, path],
                        lambda rc, r, ctx, m=m, name=name, key=key: checks.check_superhedge(
                            m, rc, r, name, ctx.get(key)
                        ),
                    )
                )
        return ops


class CertifyCorpus:
    """Random models with single-jump information, plus the bundled scenarios."""

    MODELS = 300

    def markets(self, seed: int) -> list:
        corpus = [
            random_market(
                random.Random(f"certify-shape-{i}"),
                random.Random(f"certify-{seed}-{i}"),
                f"cert{i:04d}",
                min_claims=0,
                max_claims=2,
                n_payoffs=1,
                n_jumps=1,
            )
            for i in range(self.MODELS)
        ]
        return corpus + bundled_markets("")

    def plan(self, markets: list, paths: list) -> list:
        n = self.MODELS
        ops = []
        for m, path in zip(markets[:n], paths[:n]):
            ops.extend(self._random_model_ops(m, path))
        ops.extend(readme_ops(markets[n:], paths[n:]))
        for m, path in zip(markets[n:], paths[n:]):
            base = checks.vertices(m)
            ops.append(Op(["extremes", path], lambda rc, r, ctx, m=m, e=set(base): checks.check_extremes(m, rc, r, e)))
            for i, v in enumerate(base):
                ops.append(
                    Op(["complete", "--measure", str(i), path], lambda rc, r, ctx, m=m, v=v: checks.check_complete(m, rc, r, v, True))
                )
        return ops

    def _random_model_ops(self, m: Market, path: str) -> list:
        base = checks.vertices(m)
        fine_market = checks.enlarged_market(m)
        fine = checks.vertices(fine_market)
        v0 = base[0]
        if len(base) > 1:
            mix = tuple(Fraction(1, 3) * x + Fraction(2, 3) * y for x, y in zip(base[0], base[-1]))
        else:
            mix = v0
        strict = mix != v0
        ops = [
            Op(["complete", "--measure", "0", path], lambda rc, r, ctx: checks.check_complete(m, rc, r, v0, True)),
            Op(
                ["complete", "--measure", inline(mix), path],
                lambda rc, r, ctx: checks.check_complete(m, rc, r, mix, not strict),
            ),
            Op(
                ["replicate", "--payoff", "p0", "--measure", "0", path],
                lambda rc, r, ctx: checks.check_replicate(m, rc, r, v0, "p0", True),
            ),
            Op(
                ["replicate", "--payoff", "p0", "--measure", inline(mix), path],
                lambda rc, r, ctx: checks.check_replicate(m, rc, r, mix, "p0"),
            ),
            Op(["tree", "--measure", "0", path], lambda rc, r, ctx: checks.check_tree(m, rc, r, v0)),
        ]
        if fine:
            ops.append(
                Op(["enlarge", "--measure", "0", path], lambda rc, r, ctx: checks.check_enlarge(m, rc, r, fine[0]))
            )
        else:
            ops.append(Op(["enlarge", path], lambda rc, r, ctx: checks.check_enlarge(m, rc, r, None)))
        ops.append(
            Op(["informed-compare", path], lambda rc, r, ctx: checks.check_informed(m, rc, r, base, fine))
        )
        return ops


def bundled_markets(prefix: str) -> list:
    """The repository's bundled scenarios, plus the informed market of
    ``informed_arbitrage`` written as a plain model: its measure set is
    empty, so ``duality`` answers with an arbitrage certificate."""
    out = []
    for path in sorted(BUNDLED.glob("*.json")):
        m = market_from_scenario(json.loads(path.read_text()))
        m.name = prefix + m.name
        out.append(m)
    informed = checks.enlarged_market(next(m for m in out if m.name == prefix + "informed_arbitrage"))
    informed.name, informed.jumps = prefix + "informed_market", []
    return out + [informed]


def readme_ops(markets: list, paths: list) -> list:
    """The top-level README's commands, checked against the facts it states."""
    by_name = {m.name.split("_", 1)[1] if m.name.startswith("tour_") else m.name: (m, p) for m, p in zip(markets, paths)}
    quarter = (Fraction(1, 4), Fraction(1, 2), Fraction(1, 4))

    def op(name, argv, check):
        m, path = by_name[name]
        return Op(argv + [path], lambda rc, r, ctx: check(m, rc, r))

    def first(m):
        return checks.vertices(m)[0]

    return [
        op("trinomial", ["extremes"], lambda m, rc, r: checks.check_extremes(m, rc, r, set(checks.vertices(m)))),
        op("trinomial", ["duality", "--payoff", "abs_S1"], lambda m, rc, r: checks.check_duality(m, rc, r, "abs_S1")[0]),
        op("trinomial", ["superhedge", "--payoff", "abs_S1"], lambda m, rc, r: checks.check_superhedge(m, rc, r, "abs_S1", 1)),
        op("trinomial", ["complete", "--measure", "1/4,1/2,1/4"], lambda m, rc, r: checks.check_complete(m, rc, r, quarter, False)),
        op(
            "trinomial",
            ["replicate", "--payoff", "abs_S1", "--measure", "1/4,1/2,1/4"],
            lambda m, rc, r: checks.check_replicate(m, rc, r, quarter, "abs_S1", False),
        ),
        op("trinomial_calibrated", ["complete", "--measure", "0"], lambda m, rc, r: checks.check_complete(m, rc, r, first(m), True)),
        op(
            "trinomial_calibrated",
            ["replicate", "--payoff", "ind_m", "--measure", "0"],
            lambda m, rc, r: checks.check_replicate(m, rc, r, first(m), "ind_m", True),
        ),
        op("binomial", ["complete", "--measure", "0"], lambda m, rc, r: checks.check_complete(m, rc, r, first(m), True)),
        op("glued_two_vol", ["price", "--payoff", "abs_S2"], lambda m, rc, r: checks.check_price(m, rc, r, "abs_S2")),
        op("glued_two_vol", ["complete", "--measure", "0"], _glued_weight),
        op("glued_two_vol", ["tree", "--measure", "0"], _glued_tree),
        op("jump_counterexample", ["complete", "--measure", "0"], lambda m, rc, r: checks.check_complete(m, rc, r, first(m), True)),
        op(
            "jump_counterexample",
            ["tree", "--measure", "0"],
            lambda m, rc, r: checks.check_tree(m, rc, r, first(m), expect_tree=False),
        ),
        op(
            "initial_enlargement",
            ["enlarge", "--measure", "0,1,0"],
            lambda m, rc, r: checks.check_enlarge(m, rc, r, (Fraction(0), Fraction(1), Fraction(0))),
        ),
        op("initial_enlargement", ["informed-compare"], _informed_fact),
        op("informed_arbitrage", ["informed-compare"], _informed_fact),
        op("informed_market", ["duality", "--payoff", "call_at_1"], checks.check_arbitrage),
    ]


def _glued_weight(m, rc, r):
    vertices = checks.vertices(m)
    bad = checks.check_complete(m, rc, r, vertices[0], True)
    if bad is None:
        weights = checks.measure_weights(r["result"]["measure"], m)
        if len(vertices) != 1 or weights[0] + weights[1] != Fraction(1, 3):
            return "glued_two_vol: the unique measure should put weight 1/3 on the high-volatility branch"
    return bad


def _glued_tree(m, rc, r):
    bad = checks.check_tree(m, rc, r, checks.vertices(m)[0], expect_tree=True)
    if bad:
        return bad
    result = r["result"]
    leaves = {n["cell"] for n in result["nodes"] if n["birth"] == 1}
    if result["dim"] != 2 or leaves != {"h_up|h_dn", "l_up|l_dn"}:
        return "glued tree is not {Omega, A1, A2} of dimension 2"
    claim = m.claims[0]
    values = [{claim[w] for w in checks.cell_of_label(m, leaf)} for leaf in sorted(leaves)]
    if values != [{2}, {-1}]:
        return f"leaf claim values {values}, expected 2 and -1"
    return None


def _informed_fact(m, rc, r):
    bad = checks.check_informed(m, rc, r, checks.vertices(m), checks.vertices(checks.enlarged_market(m)))
    if bad:
        return bad
    result = r["result"]
    if m.name.endswith("informed_arbitrage"):
        if not (result["informed_arbitrage"] and not result["uninformed_arbitrage"]):
            return "informed_arbitrage: the informed set should be empty, the uninformed one not"
    elif [v["weights"] for v in result["ext_G"]] != [["0", "1", "0"]]:
        return "initial_enlargement should keep only (0, 1, 0)"
    return None


WORKLOADS = {"ladder": Ladder, "duality-corpus": DualityCorpus, "certify-corpus": CertifyCorpus}
