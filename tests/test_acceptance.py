"""Acceptance gate: every criterion exact, one printed pass/fail line each.

Randomized criteria run the same seeded suites as the `verify` command, at
full scale.  All equalities are exact rational comparisons; there are no
tolerances anywhere.
"""

import hashlib
import time
from fractions import Fraction

import pytest

from semistatic import hedging, verify
from semistatic.bounds import multinomial_lhs, verify_multinomial_inequality
from semistatic.duality import detect_arbitrage, robust_price
from semistatic.enlargement import informed_compare
from semistatic.hedging import is_semistatically_complete, strategy_payoff
from semistatic.polytope import build_constraints, enumerate_extreme_points
from semistatic.scenario import canonical_json
from semistatic.tree import AtomicTree, NoTree, check_theorem_conditions, extract_tree
from semistatic.verify import (
    suite_all,
    suite_corollary54,
    suite_duality,
    suite_jacod_yor,
    suite_jeulin_yor,
)
from tests.test_tree import leafwise

F = Fraction

# sha256 of canonical_json(suite_all()), the file scripts/verify_all.py writes
VERIFY_REPORT_SHA256 = "7e99d10a394dde71df1542997713ad8daa467307e4627d6eadc29ba2a96aec7b"


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
    ok = ok and robust_price(trinomial.payoffs["abs_S1"], model).value == 1
    calibrated = trinomial_calibrated.model
    cvs = enumerate_extreme_points(build_constraints(calibrated))
    ok = ok and [v.weights for v in cvs.vertices] == [(F(1, 4), F(1, 2), F(1, 4))]
    ok = ok and is_semistatically_complete(cvs.vertices[0], calibrated).complete
    ok = ok and robust_price(trinomial_calibrated.payoffs["abs_S1"], calibrated).value == F(1, 2)
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
    ok = ok and leafwise(model.claims[0], tree, q, model) == (F(2), F(2), F(-1), F(-1))
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
    report = canonical_json(suite_all())
    ok = first == second and len(first) > 100 and report.strip() in first
    ok = ok and hashlib.sha256(report.encode()).hexdigest() == VERIFY_REPORT_SHA256
    _report(10, "full verify suite reports are byte-identical across runs", ok)


def _flip_complete(monkeypatch):
    real = hedging.is_semistatically_complete

    def flipped(measure, model):
        report = real(measure, model)
        return report._replace(complete=not report.complete)

    monkeypatch.setattr(verify, "is_semistatically_complete", flipped)
    return verify.suite_jacod_yor(n_models=3)


def _widen_gap(monkeypatch):
    real = verify._scan_vertices

    def shifted(payoff, vertices):
        result = real(payoff, vertices)
        return result._replace(value=result.value + 1)

    monkeypatch.setattr(verify, "_scan_vertices", shifted)
    return verify.suite_duality(n_models=3)


def _drop_tight_cells(monkeypatch):
    real = verify.superhedge
    monkeypatch.setattr(verify, "superhedge", lambda payoff, model: real(payoff, model)._replace(tight=()))
    return verify.suite_duality(n_models=3)


def _break_martingales(monkeypatch):
    real = verify.jeulin_yor

    def broken(measure, jump, enlarged):
        jy = real(measure, jump, enlarged)
        compensator = jy.compensator._replace(predictable_ok=False, martingale_ok=False)
        return jy._replace(martingale_ok=False, compensator=compensator)

    monkeypatch.setattr(verify, "jeulin_yor", broken)
    return verify.suite_jeulin_yor(n_trials=3)


def _deny_corollary(monkeypatch):
    real = verify.informed_compare

    def denied(model, jumps):
        report, enlarged = real(model, jumps)
        return report._replace(corollary_equal=False), enlarged

    monkeypatch.setattr(verify, "informed_compare", denied)
    return verify.suite_corollary54(n_instances=3)


FAILURE_REPORTS = {
    _flip_complete: "74dca2ef8ddb3260aa464e18de96df4f5076bb51f77ef7d24d8a9f95a81e45e1",
    _widen_gap: "662ff131d3229e35657aa6258bd30fef07ec061c92be46322c0c0a33819f4bf2",
    _drop_tight_cells: "ff2122cfd79de6a90ad6b47d849be1ed9162370ddefab3509e6eace35bca8d0f",
    _break_martingales: "a1579e0dd46db47e4fec9f6ac571bb43c8767575979ad5982ea307c079f70b70",
    _deny_corollary: "b1b4accefa74f3a2da9726c8a88640c1b9b9e01a991c45c3110560b0681f1ed3",
}


@pytest.mark.parametrize("force", FAILURE_REPORTS, ids=lambda force: force.__name__.strip("_"))
def test_verify_failure_reports_are_pinned(monkeypatch, force):
    """Each randomized suite, its check forced to fail on every instance, keeps its failure entries."""
    report = force(monkeypatch)
    assert not report["ok"] and report["failures"] and report["instances"] == 3
    assert hashlib.sha256(canonical_json(report).encode()).hexdigest() == FAILURE_REPORTS[force]
