"""The checkers accept the program's real reports and reject corrupted ones.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import contextlib
import copy
import io
import json
import random
from fractions import Fraction

import pytest

import checks
import inputs
import workloads
from semistatic import cli

SEVENTH = Fraction(1, 7)


def report(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(["--format", "json"] + [str(a) for a in argv])
    return rc, json.loads(out.getvalue())


def bump(text: str) -> str:
    return inputs.fmt(Fraction(text) + SEVENTH)


def bundled(name):
    return inputs.market_from_scenario(json.loads((workloads.BUNDLED / f"{name}.json").read_text()))


def written(m, tmp_path):
    return str(m.write(tmp_path))


@pytest.fixture(scope="module")
def corpus():
    shape, rng = random.Random("test-shape"), random.Random("test-values")
    return [inputs.random_market(shape, rng, f"t{i}", 1, 2, 2, 1) for i in range(12)]


def test_ladder_oracles_match_the_roadmap_rungs():
    expected = {(4, 2): (21, Fraction(16, 9)), (5, 2): (105, Fraction(2)), (3, 3): (42, Fraction(3, 2))}
    for (b, k), (count, value) in expected.items():
        incs = inputs.ladder_increments(b)
        assert len(checks.ladder_vertices(incs, k)) == count
        assert checks.ladder_value(incs, k) == value


def test_brute_force_vertices_agree_with_kernel_products():
    m = inputs.ladder_market(3, 2)
    assert set(checks.vertices(m)) == checks.ladder_vertices(inputs.ladder_increments(3), 2)


def test_extremes_checker(tmp_path):
    m = inputs.ladder_market(4, 2)
    expected = checks.ladder_vertices(inputs.ladder_increments(4), 2)
    rc, rep = report(["extremes", written(m, tmp_path)])
    assert checks.check_extremes(m, rc, rep, expected) is None
    bad = copy.deepcopy(rep)
    del bad["result"]["vertices"][3]
    bad["result"]["count"] -= 1
    assert checks.check_extremes(m, rc, bad, expected)
    bad = copy.deepcopy(rep)
    weights = bad["result"]["vertices"][0]["weights"]
    i = next(i for i, w in enumerate(weights) if w != "0")
    weights[i] = bump(weights[i])
    assert checks.check_extremes(m, rc, bad, expected)


def test_ladder_duality_checker(tmp_path):
    m = inputs.ladder_market(4, 2)
    value = checks.ladder_value(inputs.ladder_increments(4), 2)
    rc, rep = report(["duality", "--payoff", "abs", written(m, tmp_path)])
    assert checks.check_duality(m, rc, rep, "abs", value) == (None, value)
    assert checks.check_duality(m, rc, rep, "abs", value + SEVENTH)[0]


def test_duality_and_superhedge_checkers(corpus, tmp_path):
    for m in corpus:
        path = written(m, tmp_path)
        rc, dual = report(["duality", "--payoff", "p0", path])
        bad_reason, price = checks.check_duality(m, rc, dual, "p0")
        assert bad_reason is None
        rc_s, sup = report(["superhedge", "--payoff", "p0", path])
        assert checks.check_superhedge(m, rc_s, sup, "p0", price) is None

        bad = copy.deepcopy(dual)
        for key in ("primal", "dual"):
            bad["result"][key] = bump(bad["result"][key])
        bad["result"]["strategy"]["cash"] = bump(bad["result"]["strategy"]["cash"])
        assert checks.check_duality(m, rc, bad, "p0")[0]

        bad = copy.deepcopy(dual)
        bad["result"]["strategy"]["cash"] = inputs.fmt(Fraction(bad["result"]["strategy"]["cash"]) - SEVENTH)
        assert checks.check_duality(m, rc, bad, "p0")[0]

        bad = copy.deepcopy(sup)
        bad["result"]["price"] = bump(bad["result"]["price"])
        assert checks.check_superhedge(m, rc_s, bad, "p0", price)
        assert checks.check_superhedge(m, rc_s, sup, "p0", price + SEVENTH)
        if sup["result"]["strategy"]["dynamic"]:
            bad = copy.deepcopy(sup)
            entry = bad["result"]["strategy"]["dynamic"][0]
            entry["value"] = bump(entry["value"])
            assert checks.check_superhedge(m, rc_s, bad, "p0", price)


def test_complete_and_replicate_checkers(corpus, tmp_path):
    seen_residual = False
    for m in corpus:
        path = written(m, tmp_path)
        base = checks.vertices(m)
        rc, rep = report(["complete", "--measure", "0", path])
        assert checks.check_complete(m, rc, rep, base[0], True) is None
        bad = copy.deepcopy(rep)
        bad["result"]["rank"] += 1
        assert checks.check_complete(m, rc, bad, base[0], True)
        assert checks.check_complete(m, rc, rep, base[0], False)

        rc, rep = report(["replicate", "--payoff", "p0", "--measure", workloads.inline(base[0]), path])
        assert checks.check_replicate(m, rc, rep, base[0], "p0", True) is None
        bad = copy.deepcopy(rep)
        bad["result"]["strategy"]["cash"] = bump(bad["result"]["strategy"]["cash"])
        assert checks.check_replicate(m, rc, bad, base[0], "p0", True)

        if len(base) > 1:
            mix = tuple((x + y) / 2 for x, y in zip(base[0], base[-1]))
            rc, rep = report(["replicate", "--payoff", "p0", "--measure", workloads.inline(mix), path])
            assert checks.check_replicate(m, rc, rep, mix, "p0") is None
            if not rep["result"]["replicable"]:
                seen_residual = True
                bad = copy.deepcopy(rep)
                a = next(i for i, w in enumerate(mix) if w > 0)
                bad["result"]["residual"][a] = bump(bad["result"]["residual"][a])
                assert checks.check_replicate(m, rc, bad, mix, "p0")
    assert seen_residual


def test_tree_checker(tmp_path):
    glued = bundled("glued_two_vol")
    v = checks.vertices(glued)[0]
    rc, rep = report(["tree", "--measure", "0", written(glued, tmp_path)])
    assert checks.check_tree(glued, rc, rep, v, expect_tree=True) is None
    assert workloads._glued_tree(glued, rc, rep) is None
    bad = copy.deepcopy(rep)
    bad["result"]["nodes"][1]["birth"] = 2
    assert checks.check_tree(glued, rc, bad, v)
    bad = copy.deepcopy(rep)
    bad["result"]["dim"] = 3
    assert checks.check_tree(glued, rc, bad, v)

    jumpy = bundled("jump_counterexample")
    v = checks.vertices(jumpy)[0]
    rc, rep = report(["tree", "--measure", "0", written(jumpy, tmp_path)])
    assert checks.check_tree(jumpy, rc, rep, v, expect_tree=False) is None
    assert checks.check_tree(jumpy, rc, rep, v, expect_tree=True)


def test_enlarge_and_informed_checkers(corpus, tmp_path):
    m = bundled("initial_enlargement")
    path = written(m, tmp_path)
    q = (Fraction(0), Fraction(1), Fraction(0))
    rc, rep = report(["enlarge", "--measure", "0,1,0", path])
    assert checks.check_enlarge(m, rc, rep, q) is None
    bad = copy.deepcopy(rep)
    bad["result"]["per_jump"][0]["azema"][1][1] = bump(bad["result"]["per_jump"][0]["azema"][1][1])
    assert checks.check_enlarge(m, rc, bad, q)

    for m in corpus:
        path = written(m, tmp_path)
        base, fine = checks.vertices(m), checks.vertices(checks.enlarged_market(m))
        rc, rep = report(["informed-compare", path])
        assert checks.check_informed(m, rc, rep, base, fine) is None
        bad = copy.deepcopy(rep)
        bad["result"]["ext_F"] = bad["result"]["ext_F"][1:]
        assert checks.check_informed(m, rc, bad, base, fine)
        bad = copy.deepcopy(rep)
        prices = bad["result"]["prices"]["p0"]
        prices["base"] = bump(prices["base"])
        assert checks.check_informed(m, rc, bad, base, fine)
        if fine:
            rc, rep = report(["enlarge", "--measure", "0", path])
            assert checks.check_enlarge(m, rc, rep, fine[0]) is None
            bad = copy.deepcopy(rep)
            jy = bad["result"]["per_jump"][0]["jeulin_yor"]
            g = next(g for g, w in enumerate(fine[0]) if w > 0)
            jy[-1][g] = bump(jy[-1][g])
            assert checks.check_enlarge(m, rc, bad, fine[0])


def test_price_and_arbitrage_checkers(tmp_path):
    glued = bundled("glued_two_vol")
    rc, rep = report(["price", "--payoff", "abs_S2", written(glued, tmp_path)])
    assert checks.check_price(glued, rc, rep, "abs_S2") is None
    bad = copy.deepcopy(rep)
    bad["result"]["value"] = bump(bad["result"]["value"])
    assert checks.check_price(glued, rc, bad, "abs_S2")

    informed = workloads.bundled_markets("")[-1]
    rc, rep = report(["duality", "--payoff", "call_at_1", written(informed, tmp_path)])
    assert checks.check_arbitrage(informed, rc, rep) is None
    bad = copy.deepcopy(rep)
    bad["result"]["certificate"]["certificate"]["cash"] = bump("0")
    assert checks.check_arbitrage(informed, rc, bad)


def test_every_planned_command_passes_its_check(tmp_path):
    """Small versions of each workload, and the README tour, through plan, CLI and check."""
    duality, certify = workloads.DualityCorpus(), workloads.CertifyCorpus()
    duality.MODELS, certify.MODELS = 5, 5
    tour = workloads.bundled_markets("tour_")
    for plan, markets in (
        (duality.plan, duality.markets(7)),
        (certify.plan, certify.markets(7)),
        (workloads.readme_ops, tour),
    ):
        paths = [written(m, tmp_path) for m in markets]
        ctx = {}
        ops = plan(markets, paths)
        assert ops
        for op in ops:
            rc, rep = report(op.argv)
            assert op.check(rc, rep, ctx) is None, op.argv


def test_generators_are_deterministic_by_seed():
    a = [m.to_json() for m in workloads.CertifyCorpus().markets(3)]
    b = [m.to_json() for m in workloads.CertifyCorpus().markets(3)]
    c = [m.to_json() for m in workloads.CertifyCorpus().markets(4)]
    assert a == b and a != c
