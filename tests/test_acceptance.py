"""Acceptance gate: every criterion exact, one printed pass/fail line each.

Randomized criteria run the same seeded suites as the `verify` command, at
full scale.  All equalities are exact rational comparisons; there are no
tolerances anywhere.
"""

import time
from fractions import Fraction

from semistatic.bounds import multinomial_lhs, verify_multinomial_inequality
from semistatic.duality import detect_arbitrage, robust_price
from semistatic.enlargement import informed_compare
from semistatic.hedging import is_semistatically_complete, strategy_payoff
from semistatic.polytope import build_constraints, enumerate_extreme_points
from semistatic.scenario import canonical_json
from semistatic.tree import AtomicTree, NoTree, check_theorem_conditions, extract_tree, sigma_tree_expectation
from semistatic.verify import (
    suite_all,
    suite_corollary54,
    suite_duality,
    suite_jacod_yor,
    suite_jeulin_yor,
)

F = Fraction


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {name}: {status}{' ' + detail if detail else ''}")
    assert ok, f"acceptance criterion {number} ({name}) failed {detail}"


def test_criterion_1_jacod_yor_equivalence():
    start = time.monotonic()
    report = suite_jacod_yor(n_models=200)
    elapsed = time.monotonic() - start
    ok = report["ok"] and report["instances"] >= 200 and elapsed < 60
    _report(1, "extremality equals completeness on 200 random models", ok,
            f"({report['checks']} checks in {elapsed:.1f}s)")


def test_criterion_2_exact_duality():
    report = suite_duality(n_models=200, payoffs_each=5)
    ok = report["ok"] and report["instances"] >= 200
    _report(2, "superhedge price equals robust price with slackness", ok,
            f"({report['checks']} checks)")


def test_criterion_3_trinomial_regression(trinomial, trinomial_calibrated):
    model = trinomial.model
    vs = enumerate_extreme_points(build_constraints(model))
    ok = [v.weights for v in vs.vertices] == [
        (F(1, 2), F(0), F(1, 2)),
        (F(0), F(1), F(0)),
    ]
    ok = ok and robust_price(trinomial.payoffs["abs_S1"], model, vs).value == 1
    calibrated = trinomial_calibrated.model
    cvs = enumerate_extreme_points(build_constraints(calibrated))
    ok = ok and [v.weights for v in cvs.vertices] == [(F(1, 4), F(1, 2), F(1, 4))]
    ok = ok and is_semistatically_complete(cvs.vertices[0], calibrated).complete
    ok = ok and robust_price(trinomial_calibrated.payoffs["abs_S1"], calibrated, cvs).value == F(1, 2)
    _report(3, "trinomial regression values", ok)


def test_criterion_4_glued_two_volatility(glued_two_vol):
    model = glued_two_vol.model
    vs = enumerate_extreme_points(build_constraints(model))
    lam = F(1, 3)
    ok = [v.weights for v in vs.vertices] == [(lam / 2, lam / 2, (1 - lam) / 2, (1 - lam) / 2)]
    q = vs.vertices[0]
    tree = extract_tree(q, model)
    ok = ok and isinstance(tree, AtomicTree) and tree.dim == 2
    ok = ok and [n.cell for n in tree.nodes] == [(0, 1, 2, 3), (0, 1), (2, 3)]
    ok = ok and check_theorem_conditions(tree, q, model).ok
    leafwise = sigma_tree_expectation(model.claims[0], tree, q, model)
    ok = ok and leafwise == (F(2), F(2), F(-1), F(-1))
    _report(4, "glued two-volatility calibration and tree", ok)


def test_criterion_5_jump_counterexample(jump_counterexample):
    model = jump_counterexample.model
    vs = enumerate_extreme_points(build_constraints(model))
    q = vs.vertices[0]
    complete = is_semistatically_complete(q, model).complete
    outcome = extract_tree(q, model)
    ok = complete and isinstance(outcome, NoTree)
    _report(5, "complete jumpy model admits no atomic tree", ok,
            f"(reason: {outcome.reason})" if isinstance(outcome, NoTree) else "")


def test_criterion_6_jeulin_yor():
    report = suite_jeulin_yor(n_trials=200)
    ok = report["ok"] and report["instances"] >= 200
    _report(6, "compensated jump martingale over 200 random triples", ok,
            f"({report['checks']} checks)")


def test_criterion_7_corollary_set_equality():
    report = suite_corollary54(n_instances=100)
    ok = report["ok"] and report["instances"] >= 100
    _report(7, "claims-free informed extreme points match coinciding lifts", ok)


def test_criterion_8_informed_arbitrage(informed_arbitrage):
    scenario = informed_arbitrage
    report, enlarged = informed_compare(scenario.model, scenario.jumps)
    ok = not report.uninformed_arbitrage and report.informed_arbitrage
    certificate = detect_arbitrage(enlarged.model)
    ok = ok and not certificate.feasible and certificate.certificate is not None
    payoff = strategy_payoff(certificate.certificate, enlarged.model)
    ok = ok and certificate.certificate.cash == 0
    ok = ok and all(payoff[a] >= 1 for a in enlarged.model.allowed)
    _report(8, "informed investor faces arbitrage with a zero-cost certificate", ok)


def test_criterion_9_multinomial_inequality():
    reports = verify_multinomial_inequality(6, 6)
    strict_range = [r for r in reports if r.p < r.m]
    pairs = {(r.p, r.m) for r in strict_range}
    exhaustive = all((p, m) in pairs for p in range(1, 6) for m in range(p + 1, 7))
    ok = exhaustive and all(r.holds for r in reports)
    ok = ok and multinomial_lhs(2, 2) == 4
    ok = ok and all(multinomial_lhs(1, m) == 0 for m in range(1, 7))
    _report(9, "multinomial inequality exhaustive on 1 <= p < m <= 6", ok)


def test_criterion_10_deterministic_reports(capsys):
    from semistatic.cli import main

    assert main(["--format", "json", "verify", "--suite", "all"]) == 0
    first = capsys.readouterr().out
    assert main(["--format", "json", "verify", "--suite", "all"]) == 0
    second = capsys.readouterr().out
    ok = first == second and len(first) > 100 and canonical_json(suite_all()).strip() in first
    _report(10, "full verify suite reports are byte-identical across runs", ok)
