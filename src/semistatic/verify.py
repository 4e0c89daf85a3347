"""Randomized property suites behind the `verify` command.

Each suite runs a seeded corpus and returns a plain JSON-ready report; the
seeds are fixed so repeated runs are byte-identical.  The suites mirror the
acceptance gates: extremality/completeness equivalence, exact superhedging
duality with complementary slackness, the enlarged-filtration compensated
martingale, the claims-free extreme-point comparison, and the combinatorial
moment bound.
"""

from __future__ import annotations

import random

from . import bounds
from .duality import robust_price, superhedge
from .enlargement import enlarge, informed_compare, jeulin_yor
from .hedging import is_semistatically_complete, verify_jacod_yor
from .polytope import enumerate_extreme_points, is_extreme
from .rationals import fmt
from .sampling import random_jump, random_measure, random_mixture, random_model, random_payoff

JACOD_YOR_SEED = 70301
DUALITY_SEED = 70302
JEULIN_YOR_SEED = 70303
COROLLARY_SEED = 70304


def suite_jacod_yor(seed: int = JACOD_YOR_SEED, n_models: int = 200) -> dict:
    rng = random.Random(seed)
    checks = 0
    failures: list[dict] = []
    for idx in range(n_models):
        model, _ = random_model(rng)
        report = verify_jacod_yor(model)
        checks += len(report.checks)
        for check in report.checks:
            if not check.passed:
                failures.append(
                    {
                        "instance": idx,
                        "case": check.description,
                        "weights": [fmt(w) for w in check.weights],
                        "extreme": check.extreme,
                        "complete": check.complete,
                    }
                )
        vertex_set = enumerate_extreme_points(model.constraints)
        for _ in range(2):
            mixture = random_mixture(rng, vertex_set)
            extreme, _ = is_extreme(mixture, model.constraints)
            complete = is_semistatically_complete(mixture, model).complete
            checks += 1
            if extreme != complete:
                failures.append(
                    {
                        "instance": idx,
                        "case": "random mixture",
                        "weights": [fmt(w) for w in mixture.weights],
                        "extreme": extreme,
                        "complete": complete,
                    }
                )
    return {
        "suite": "jacod-yor",
        "seed": seed,
        "instances": n_models,
        "checks": checks,
        "failures": failures,
        "ok": not failures,
    }


def suite_duality(seed: int = DUALITY_SEED, n_models: int = 200, payoffs_each: int = 5) -> dict:
    rng = random.Random(seed)
    checks = 0
    failures: list[dict] = []
    for idx in range(n_models):
        model, _ = random_model(rng)
        vertex_set = enumerate_extreme_points(model.constraints)
        for _ in range(payoffs_each):
            payoff = random_payoff(rng, model)
            primal = superhedge(payoff, model)
            dual = robust_price(payoff, model, vertex_set)
            checks += 1
            if primal.price is None or dual.value is None or primal.price != dual.value:
                failures.append(
                    {
                        "instance": idx,
                        "kind": "gap",
                        "payoff": [fmt(x) for x in payoff],
                        "primal": "-inf" if primal.price is None else fmt(primal.price),
                        "dual": "-inf" if dual.value is None else fmt(dual.value),
                    }
                )
                continue
            tight = set(primal.tight)
            slack_ok = all(a in tight for m in dual.argmax for a in m.support)
            checks += 1
            if not slack_ok:
                failures.append(
                    {
                        "instance": idx,
                        "kind": "complementary slackness",
                        "payoff": [fmt(x) for x in payoff],
                    }
                )
    return {
        "suite": "duality",
        "seed": seed,
        "instances": n_models,
        "checks": checks,
        "failures": failures,
        "ok": not failures,
    }


def suite_jeulin_yor(seed: int = JEULIN_YOR_SEED, n_trials: int = 200) -> dict:
    rng = random.Random(seed)
    checks = 0
    failures: list[dict] = []
    for idx in range(n_trials):
        model, _ = random_model(rng)
        jump = random_jump(rng, model)
        enlarged = enlarge(model, [jump])
        measure = random_measure(rng, enlarged.model)
        jy = jeulin_yor(measure, jump, enlarged)
        comp = jy.compensator
        checks += 3
        if not comp.predictable_ok:
            failures.append({"instance": idx, "kind": "compensator not predictable"})
        if not comp.martingale_ok:
            failures.append({"instance": idx, "kind": "compensated jump not a base martingale"})
        if not jy.martingale_ok:
            failures.append({"instance": idx, "kind": "enlarged martingale property fails"})
    return {
        "suite": "jeulin-yor",
        "seed": seed,
        "instances": n_trials,
        "checks": checks,
        "failures": failures,
        "ok": not failures,
    }


def suite_corollary54(seed: int = COROLLARY_SEED, n_instances: int = 100) -> dict:
    rng = random.Random(seed)
    checks = 0
    failures: list[dict] = []
    for idx in range(n_instances):
        model, _ = random_model(rng, n_claims=0)
        jumps = [random_jump(rng, model) for _ in range(rng.randint(1, 2))]
        report, enlarged = informed_compare(model, jumps)
        checks += 1
        if report.corollary_equal is not True:
            failures.append(
                {
                    "instance": idx,
                    "ext_G": report.ext_enlarged.to_json(enlarged.model),
                    "expected": [m.to_json(enlarged.model) for m in report.expected_enlarged or ()],
                }
            )
    return {
        "suite": "corollary54",
        "seed": seed,
        "instances": n_instances,
        "checks": checks,
        "failures": failures,
        "ok": not failures,
    }


def suite_multinomial(p_max: int = 5, m_max: int = 6) -> dict:
    reports = bounds.verify_multinomial_inequality(p_max, m_max)
    failures = [r.to_json() for r in reports if not r.holds]
    anchors_ok = bounds.multinomial_lhs(2, 2) == 4 and all(
        bounds.multinomial_lhs(1, m) == 0 for m in range(1, m_max + 1)
    )
    if not anchors_ok:
        failures.append({"kind": "anchor values"})
    return {
        "suite": "multinomial",
        "p_max": p_max,
        "m_max": m_max,
        "checks": len(reports) + 2,
        "failures": failures,
        "reports": [r.to_json() for r in reports],
        "ok": not failures,
    }


SUITES = {
    "jacod-yor": suite_jacod_yor,
    "duality": suite_duality,
    "jeulin-yor": suite_jeulin_yor,
    "corollary54": suite_corollary54,
    "multinomial": suite_multinomial,
}


def suite_all() -> dict:
    results = {name: fn() for name, fn in SUITES.items()}
    return {"suite": "all", "results": results, "ok": all(r["ok"] for r in results.values())}
