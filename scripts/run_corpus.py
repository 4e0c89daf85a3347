#!/usr/bin/env python3
"""Walk the bundled scenario corpus and print the headline results.

Runs vertex enumeration, completeness, tree extraction, pricing, and (where
jumps are declared) the informed comparison for every scenario file, so the
whole story is visible in one pass.
"""

from pathlib import Path

from semistatic.duality import ArbitrageReport, verify_duality
from semistatic.enlargement import informed_compare
from semistatic.hedging import is_semistatically_complete
from semistatic.polytope import enumerate_extreme_points
from semistatic.rationals import fmt
from semistatic.scenario import load_scenario
from semistatic.tree import AtomicTree, extract_tree

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def describe(path: Path) -> None:
    scenario = load_scenario(path)
    model = scenario.model
    print(f"== {scenario.name} ({model.n_cells} terminal cells, horizon {model.horizon})")
    vertex_set = enumerate_extreme_points(model.constraints)
    if not vertex_set.vertices:
        print("   calibrated measure set: EMPTY (arbitrage)")
    for i, vertex in enumerate(vertex_set.vertices):
        complete = is_semistatically_complete(vertex, model).complete
        line = f"   vertex {i}: ({', '.join(fmt(w) for w in vertex.weights)}) complete={complete}"
        if complete:
            outcome = extract_tree(vertex, model)
            if isinstance(outcome, AtomicTree):
                line += f" tree_dim={outcome.dim}"
            else:
                line += f" tree=NONE [{outcome.reason}]"
        print(line)
    for name, payoff in sorted(scenario.payoffs.items()):
        report = verify_duality(payoff, model)
        if isinstance(report, ArbitrageReport):
            print(f"   payoff {name}: no price, measure set empty")
        else:
            print(f"   payoff {name}: price {fmt(report.primal)} (gap {fmt(report.gap)})")
    if scenario.jumps:
        report, _ = informed_compare(model, scenario.jumps, scenario.payoffs)
        print(
            f"   informed: |ext F|={len(report.ext_base.vertices)}"
            f" |ext G|={len(report.ext_enlarged.vertices)}"
            f" arbitrage={not report.ext_enlarged.vertices}"
        )
        for name, (base_price, enlarged_price) in sorted(report.prices.items()):
            base_text = "-inf" if base_price is None else fmt(base_price)
            fine_text = "-inf" if enlarged_price is None else fmt(enlarged_price)
            print(f"   informed price {name}: {base_text} -> {fine_text}")


def main() -> int:
    for path in sorted(SCENARIOS.glob("*.json")):
        describe(path)
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
