import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semistatic import linalg
from semistatic import polytope
from semistatic.errors import ConstraintViolation, InvariantViolation, ShapeError
from semistatic.enlargement import enlarge
from semistatic.model import Measure
from semistatic.polytope import build_constraints, enumerate_extreme_points, is_extreme, member
from semistatic.sampling import random_model
from semistatic.scenario import load_scenario, parse_scenario
from tests.conftest import SCENARIOS
from tests.reference import reference_solve, row_coeffs
from tests.test_linalg import dot

F = Fraction


def brute_force_vertices(cs):
    """Independent oracle: basic solutions of [A; 1]q = [0; 1] over every independent column set."""
    cols = sorted(cs.allowed)
    matrix = [row_coeffs(row) for row in cs.rows] + [(F(1),) * cs.n_cells]
    rhs = [F(0)] * len(cs.rows) + [F(1)]
    found = set()
    for size in range(1, len(cols) + 1):
        for subset in combinations(cols, size):
            sub = [[row[c] for c in subset] for row in matrix]
            if linalg.rank(list(zip(*sub))) < len(subset):
                continue  # dependent columns cannot support a vertex
            sol = reference_solve(sub, rhs)
            if sol is None or any(x < 0 for x in sol):
                continue
            full = [F(0)] * cs.n_cells
            for c, x in zip(subset, sol):
                full[c] = x
            candidate = tuple(full)
            if all(dot(row, candidate) == b for row, b in zip(matrix, rhs)):
                support = tuple(a for a, w in enumerate(candidate) if w > 0)
                sub_support = [[row[a] for a in support] for row in matrix]
                if not linalg.nullspace(sub_support):
                    found.add(candidate)
    return sorted(found, key=lambda w: (tuple(a for a, x in enumerate(w) if x > 0), w))


def test_trinomial_rows(trinomial):
    cs = build_constraints(trinomial.model)
    labels = [r.label for r in cs.rows]
    assert labels == [("martingale", 1, 0, 0)]
    assert row_coeffs(cs.rows[0]) == (F(1), F(0), F(-1))


def test_trinomial_vertices(trinomial):
    vs = enumerate_extreme_points(build_constraints(trinomial.model))
    assert [v.weights for v in vs.vertices] == [
        (F(1, 2), F(0), F(1, 2)),
        (F(0), F(1), F(0)),
    ]


def test_binomial_unique_vertex(binomial):
    vs = enumerate_extreme_points(build_constraints(binomial.model))
    assert [v.weights for v in vs.vertices] == [(F(1, 2), F(1, 2))]


def test_calibration_row_added(trinomial_calibrated):
    cs = build_constraints(trinomial_calibrated.model)
    calibration = [r for r in cs.rows if r.label == ("calibration", 0)]
    assert calibration and row_coeffs(calibration[0]) == (F(1, 2), F(-1, 2), F(1, 2))
    vs = enumerate_extreme_points(cs)
    assert [v.weights for v in vs.vertices] == [(F(1, 4), F(1, 2), F(1, 4))]


def test_member_and_extreme_examples(trinomial):
    cs = build_constraints(trinomial.model)
    q1 = Measure((F(1, 2), F(0), F(1, 2)))
    q2 = Measure((F(1, 4), F(1, 2), F(1, 4)))
    assert member(q1, cs) and member(q2, cs)
    ok, cert = is_extreme(q1, cs)
    assert ok and cert.witness_rows is not None
    ok, cert = is_extreme(q2, cs)
    assert not ok
    d = cert.direction
    assert dot(row_coeffs(cs.rows[0]), d) == 0 and sum(d) == 0 and any(x != 0 for x in d)
    assert all(w > 0 for w, x in zip(q2.weights, d) if x != 0)


def test_is_extreme_rejects_non_member(trinomial):
    cs = build_constraints(trinomial.model)
    with pytest.raises(ConstraintViolation):
        is_extreme(Measure((F(1), F(0), F(0))), cs)


def test_singleton_support_is_extreme(trinomial):
    cs = build_constraints(trinomial.model)
    ok, _ = is_extreme(Measure((F(0), F(1), F(0))), cs)
    assert ok


def test_empty_polytope_detected(informed_arbitrage):
    enlarged = enlarge(informed_arbitrage.model, informed_arbitrage.jumps)
    vs = enumerate_extreme_points(build_constraints(enlarged.model))
    assert len(vs.vertices) == 0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_vertices_pass_member_and_extreme(seed):
    rng = random.Random(seed)
    model, _ = random_model(rng)
    cs = build_constraints(model)
    vs = enumerate_extreme_points(cs)
    assert vs.vertices, "generator guarantees a nonempty measure set"
    for v in vs.vertices:
        assert member(v, cs)
        assert is_extreme(v, cs)[1].extreme
    for v1, v2 in zip(vs.vertices, vs.vertices[1:]):
        mid = Measure(tuple((a + b) / 2 for a, b in zip(v1.weights, v2.weights)))
        assert member(mid, cs)
        ok, _ = is_extreme(mid, cs)
        assert not ok


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_double_description_matches_brute_force(seed):
    rng = random.Random(seed)
    model, _ = random_model(rng, max_atoms=6)
    cs = build_constraints(model)
    vs = enumerate_extreme_points(cs)
    expected = brute_force_vertices(cs)
    assert [v.weights for v in vs.vertices] == expected


def test_determinism(glued_two_vol):
    cs = build_constraints(glued_two_vol.model)
    first = enumerate_extreme_points(cs)
    second = enumerate_extreme_points(cs)
    assert [v.weights for v in first.vertices] == [v.weights for v in second.vertices]


@pytest.mark.parametrize("seed", [11, 23, 47])
def test_brute_force_cross_check_at_twelve_atoms(seed):
    rng = random.Random(seed)
    model, _ = random_model(rng, max_atoms=12, max_periods=3)
    cs = build_constraints(model)
    vs = enumerate_extreme_points(cs)
    assert [v.weights for v in vs.vertices] == brute_force_vertices(cs)


def test_forced_zero_degeneracy(trinomial):
    # a nonnegative claim with zero price pins its support cells to zero mass
    model = replace(trinomial.model, claims=((F(1), F(0), F(1)),))
    vs = enumerate_extreme_points(build_constraints(model))
    assert [v.weights for v in vs.vertices] == [(F(0), F(1), F(0))]


@pytest.mark.parametrize("allowed", [{-1}, {0, 99}, {0, 3}, {True}, {"0"}])
def test_allowed_cells_outside_the_model_are_rejected(trinomial, allowed):
    cs = build_constraints(trinomial.model)
    assert len(enumerate_extreme_points(replace(cs, allowed=frozenset({0, 1, 2}))).vertices) == 2
    with pytest.raises(ShapeError, match=r"outside 0\.\.2"):
        replace(cs, allowed=frozenset(allowed))


def ladder_steps(b):
    return list(range(-(b // 2), b - b // 2))


def ladder_model(b, horizon):
    """Claim-free one-asset b-nomial tree over ``horizon`` periods, natural filtration."""
    steps = ladder_steps(b)
    paths = list(product(range(b), repeat=horizon))
    prices = [[sum(steps[i] for i in path[:k]) for path in paths] for k in range(horizon + 1)]
    return parse_scenario(
        {
            "outcomes": ["p" + "".join(map(str, path)) for path in paths],
            "times": list(range(horizon + 1)),
            "prices": [prices],
        }
    ).model


def one_step_extreme_kernels(steps):
    """Extreme points of {p >= 0 : sum p = 1, sum p * step = 0}.

    They are the point mass on a zero step and the two-point masses on a
    negative and a positive step.
    """
    kernels = [{i: F(1)} for i, d in enumerate(steps) if d == 0]
    for i, lo in enumerate(steps):
        for j, hi in enumerate(steps):
            if lo < 0 < hi:
                kernels.append({i: F(hi, hi - lo), j: F(-lo, hi - lo)})
    return kernels


def kernel_products(kernels, horizon):
    """Every choice of one kernel per charged node, as path -> mass."""
    if horizon == 0:
        return [{(): F(1)}]
    tails = kernel_products(kernels, horizon - 1)
    measures = []
    for kernel in kernels:
        partial = [{}]
        for i, p in kernel.items():
            partial = [
                {**acc, **{(i,) + path: p * q for path, q in tail.items()}}
                for acc in partial
                for tail in tails
            ]
        measures.extend(partial)
    return measures


@pytest.mark.parametrize(
    "b, horizon, count", [(4, 2, 21), (5, 2, 105), (3, 3, 42), (6, 2, 301), (4, 3, 903), (7, 2, 910)]
)
def test_claim_free_ladder_vertices_are_kernel_products(b, horizon, count):
    # without claims the extreme martingale measures factor over the tree nodes
    steps = ladder_steps(b)
    paths = list(product(range(b), repeat=horizon))
    model = ladder_model(b, horizon)
    cell = model.terminal_cell_of_outcome
    vs = enumerate_extreme_points(build_constraints(model))
    found = {tuple(v.weights[cell[w]] for w in range(len(paths))) for v in vs.vertices}
    expected = {
        tuple(measure.get(path, F(0)) for path in paths)
        for measure in kernel_products(one_step_extreme_kernels(steps), horizon)
    }
    assert len(vs.vertices) == len(found) == count
    assert found == expected


def test_vertex_certificates_witness_the_support(glued_two_vol):
    cs = build_constraints(glued_two_vol.model)
    for v in enumerate_extreme_points(cs).vertices:
        cert = is_extreme(v, cs)[1]
        assert cert.extreme and len(cert.witness_rows) == len(v.support)


@pytest.mark.parametrize("face", [False, True], ids=["allowed", "face"])
def test_double_description_runs_on_the_cone_over_the_allowed_cells(monkeypatch, face):
    # every row is homogeneous, so no homogenizing coordinate follows the allowed cells
    calls = []
    original = polytope._double_description

    def spy(normals, dim):
        calls.append((normals, dim))
        return original(normals, dim)

    monkeypatch.setattr(polytope, "_double_description", spy)
    scenarios = [load_scenario(path) for path in sorted(SCENARIOS.glob("*.json"))]
    models = [s.model for s in scenarios] + [enlarge(s.model, s.jumps).model for s in scenarios if s.jumps]
    models += [ladder_model(b, horizon) for b, horizon in [(4, 2), (5, 2), (3, 3)]]
    for model in models:
        cs = build_constraints(model)
        if face:
            cs = replace(cs, allowed=frozenset(sorted(cs.allowed)[::2]))
        del calls[:]
        enumerate_extreme_points(cs)
        [(normals, dim)] = calls
        assert dim == len(cs.allowed)
        assert all(0 <= j < dim for normal in normals for j, _ in normal)


def corrupt_last_ray(monkeypatch, corrupt):
    original = polytope._double_description

    def corrupted(normals, dim):
        rays = original(normals, dim)
        return rays[:-1] + [corrupt(rays[-1], rays)]

    monkeypatch.setattr(polytope, "_double_description", corrupted)


@pytest.mark.parametrize(
    "corrupt, reason",
    [
        pytest.param(lambda ray, rays: (0,) * len(ray), "nonzero", id="zero"),
        pytest.param(lambda ray, rays: tuple(-x for x in ray[:-1]) + ray[-1:], "nonnegative", id="negative"),
        pytest.param(lambda ray, rays: (ray[0] + 1,) + ray[1:], "constraint row", id="off-row"),
        pytest.param(lambda ray, rays: tuple(a + b for a, b in zip(ray, rays[0])), "independent", id="not-extreme"),
    ],
)
def test_corrupted_ray_raises_invariant_violation(monkeypatch, corrupt, reason):
    cs = build_constraints(ladder_model(3, 2))
    assert len(enumerate_extreme_points(cs).vertices) == 6
    corrupt_last_ray(monkeypatch, corrupt)
    with pytest.raises(InvariantViolation, match=reason):
        enumerate_extreme_points(cs)
