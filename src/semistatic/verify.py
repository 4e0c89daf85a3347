"""Randomized property suites behind the `verify` command.

Each randomized suite is a per-instance trial run by one seeded runner,
``_suite``: the runner draws every instance from one ``random.Random(seed)``,
the trial yields one entry per check (``None`` if it passed, otherwise a
failure dict naming the instance), and the runner counts the checks and
returns a plain JSON-ready report.  The seeds are fixed, so repeated runs are
byte-identical.  The suites mirror the acceptance gates: extremality/
completeness equivalence, exact superhedging duality with complementary
slackness, the enlarged-filtration compensated martingale, the claims-free
extreme-point comparison, and the combinatorial moment bound.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from typing import Callable, Iterable, Iterator

from . import bounds
from .duality import _scan_vertices, superhedge
from .enlargement import enlarge, informed_compare, jeulin_yor
from .errors import InvariantViolation
from .hedging import is_semistatically_complete
from .model import FilteredModel
from .polytope import enumerate_extreme_points, is_extreme
from .rationals import fmt
from .sampling import _mix, random_jump, random_measure, random_mixture, random_model, random_payoff

JACOD_YOR_SEED = 70301
DUALITY_SEED = 70302
JEULIN_YOR_SEED = 70303
COROLLARY_SEED = 70304


def _suite(name: str, seed: int, instances: int, trial: Callable[[random.Random, int], Iterable[dict | None]]) -> dict:
    """Run ``trial`` on instances 0..instances-1 from one seeded generator and report every failed check."""
    rng = random.Random(seed)
    checks = 0
    failures: list[dict] = []
    for idx in range(instances):
        for failure in trial(rng, idx):
            checks += 1
            if failure is not None:
                failures.append(failure)
    return {
        "suite": name,
        "seed": seed,
        "instances": instances,
        "checks": checks,
        "failures": failures,
        "ok": not failures,
    }


def _jacod_yor_checks(model: FilteredModel, rng: random.Random, idx: int) -> Iterator[dict | None]:
    """Extremality against completeness on one model: ``None`` per measure where they agree as expected, else a failure.

    Every vertex must be both; every pairwise midpoint and the barycenter that
    is not a vertex, neither; two random mixtures, both or neither.  ``sampling`` builds
    each model with a calibrated measure, so an empty measure set raises InvariantViolation.
    """
    cs = model.constraints
    vertex_set = enumerate_extreme_points(cs)
    vertices = vertex_set.vertices
    if not vertices:
        raise InvariantViolation("no calibrated martingale measure exists")
    pairs = combinations(range(len(vertices)), 2)
    mixtures = [(f"midpoint {i},{j}", _mix([vertices[i], vertices[j]], [Fraction(1, 2)] * 2)) for i, j in pairs]
    if len(vertices) > 1:
        mixtures.append(("barycenter", _mix(vertices, [Fraction(1, len(vertices))] * len(vertices))))
    cases = [(f"vertex {i}", v, True) for i, v in enumerate(vertices)]
    cases += [(name, mixture, False) for name, mixture in mixtures if mixture not in vertices]
    cases += [("random mixture", random_mixture(rng, vertex_set), None) for _ in range(2)]
    for case, measure, expected in cases:
        extreme = is_extreme(measure, cs).extreme
        complete = is_semistatically_complete(measure, model).complete
        # a random mixture may be a vertex or not: only the agreement is expected
        agree = extreme == complete if expected is None else extreme == complete == expected
        yield None if agree else {
            "instance": idx,
            "case": case,
            "weights": [fmt(w) for w in measure.weights],
            "extreme": extreme,
            "complete": complete,
        }


def suite_jacod_yor(seed: int = JACOD_YOR_SEED, n_models: int = 200) -> dict:
    def trial(rng: random.Random, idx: int):
        model, _ = random_model(rng)
        yield from _jacod_yor_checks(model, rng, idx)

    return _suite("jacod-yor", seed, n_models, trial)


def suite_duality(seed: int = DUALITY_SEED, n_models: int = 200, payoffs_each: int = 5) -> dict:
    def trial(rng: random.Random, idx: int):
        model, _ = random_model(rng)
        vertex_set = enumerate_extreme_points(model.constraints)
        for _ in range(payoffs_each):
            payoff = random_payoff(rng, model)
            primal = superhedge(payoff, model)
            dual = _scan_vertices(payoff, vertex_set.vertices)
            if primal.price is None or dual.value is None or primal.price != dual.value:
                yield {
                    "instance": idx,
                    "kind": "gap",
                    "payoff": [fmt(x) for x in payoff],
                    "primal": "-inf" if primal.price is None else fmt(primal.price),
                    "dual": "-inf" if dual.value is None else fmt(dual.value),
                }
                continue
            yield None  # no gap
            tight = set(primal.tight)
            slack_ok = all(a in tight for m in dual.argmax for a in m.support)
            yield None if slack_ok else {
                "instance": idx,
                "kind": "complementary slackness",
                "payoff": [fmt(x) for x in payoff],
            }

    return _suite("duality", seed, n_models, trial)


def suite_jeulin_yor(seed: int = JEULIN_YOR_SEED, n_trials: int = 200) -> dict:
    def trial(rng: random.Random, idx: int):
        model, _ = random_model(rng)
        jump = random_jump(rng, model)
        enlarged = enlarge(model, [jump])
        measure = random_measure(rng, enlarged.model)
        jy = jeulin_yor(measure, jump, enlarged)
        comp = jy.compensator
        yield None if comp.predictable_ok else {"instance": idx, "kind": "compensator not predictable"}
        yield None if comp.martingale_ok else {"instance": idx, "kind": "compensated jump not a base martingale"}
        yield None if jy.martingale_ok else {"instance": idx, "kind": "enlarged martingale property fails"}

    return _suite("jeulin-yor", seed, n_trials, trial)


def suite_corollary54(seed: int = COROLLARY_SEED, n_instances: int = 100) -> dict:
    def trial(rng: random.Random, idx: int):
        model, _ = random_model(rng, n_claims=0)
        jumps = [random_jump(rng, model) for _ in range(rng.randint(1, 2))]
        report, enlarged = informed_compare(model, jumps)
        yield None if report.corollary_equal is True else {
            "instance": idx,
            "ext_G": report.ext_enlarged.to_json(enlarged.model),
            "expected": [m.to_json(enlarged.model) for m in report.expected_enlarged or ()],
        }

    return _suite("corollary54", seed, n_instances, trial)


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
