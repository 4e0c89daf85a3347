"""The layers above the polytope against the Fraction code they replaced, kept here.

``hedging``, ``tree`` and ``enlargement`` compute on the model's int tables
restricted to the measure's support, and ``duality`` scans vertices with one
int dot product each.  Each reference below is the engine's earlier Fraction
implementation, on the Fraction gains of ``tests.reference`` and the Fraction
oracles of ``tests.test_linalg``; every int path must return its exact
values.  The corpus is ``tests/test_int_tables.py``'s: ``tests/test_layout.py``'s
models, a fractional-price copy of each, the bundled scenarios and one-jump
enlargements of all of these.  Vertices, midpoints and random measures leave
cells uncharged, so the null-cell paths are exercised.
"""

import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

from semistatic import cli
from semistatic.duality import robust_price
from semistatic.enlargement import (
    _weighted_sums,
    azema,
    compensator,
    enlarge,
    informed_compare,
    jeulin_yor,
)
from semistatic.errors import InvariantViolation, NotComplete
from semistatic.hedging import (
    JumpBlock,
    NotReplicable,
    SemiStaticStrategy,
    UnhedgeableDecomposition,
    decompose_unhedgeable,
    hedging_span,
    is_semistatically_complete,
    replicate,
)
from semistatic.model import Measure, condexp_groups
from semistatic.polytope import enumerate_extreme_points
from semistatic.sampling import random_jump, random_measure
from semistatic.scenario import load_scenario
from semistatic.tree import (
    AtomicTree,
    LeafCheck,
    NoTree,
    TheoremConditionsReport,
    TreeNode,
    _cells_within,
    _price_moved,
    check_theorem_conditions,
    extract_tree,
    is_full,
    validate_atomic_tree,
)
from tests.conftest import SCENARIOS
from tests.reference import conditional_expectation, reference_rref, sigma_tree_expectation, strategy_columns
from tests.reference import gains as reference_gains, zeta as reference_zeta
from tests.test_int_tables import CORPUS, _fractional
from tests.test_layout import MODELS
from tests.test_linalg import reference_gram_schmidt, reference_min_norm_solution, reference_nullspace
from tests.test_linalg import reference_project_onto_span

F = Fraction
ZERO, ONE = F(0), F(1)


@pytest.fixture(params=[m for _, m in CORPUS], ids=[name for name, _ in CORPUS])
def model(request):
    return request.param


def _measures(model, rng):
    """The vertices, the midpoints of consecutive vertices (calibrated, usually not extreme) and two random measures."""
    vertices = list(enumerate_extreme_points(model.constraints).vertices)
    pairs = zip(vertices, vertices[1:])
    midpoints = [Measure(tuple((a + b) / 2 for a, b in zip(u.weights, v.weights))) for u, v in pairs]
    return vertices, midpoints, [random_measure(rng, model) for _ in range(2)]


def _rank(rows):
    return len(reference_rref(rows)[1]) if rows else 0


# -- hedging: the earlier Fraction code ---------------------------------------------------------


def _reference_replicate(payoff, measure, model):
    columns = strategy_columns(model)
    support = measure.support
    rows = [[vec[a] for _, vec in columns] for a in support]
    rhs = [payoff[a] for a in support]
    coeffs = reference_min_norm_solution(rows, rhs)
    if coeffs is None:
        vectors = [[vec[a] for a in support] for _, vec in columns]
        proj = reference_project_onto_span(rhs, vectors, [measure.weights[a] for a in support])
        residual = [ZERO] * model.n_cells
        for a, x, p in zip(support, rhs, proj):
            residual[a] = x - p
        return NotReplicable(tuple(residual))
    return SemiStaticStrategy.from_coordinates(coeffs, model)


def _mask_to_support(vec, weights):
    return tuple(x if w > 0 else ZERO for x, w in zip(vec, weights))


def _reference_measurable_combinations(span_basis, model, k, weights):
    if not span_basis:
        return []
    constraints = []
    for group in model.coarse_groups[k]:
        charged = [a for a in group if weights[a] > 0]
        for a, b in zip(charged, charged[1:]):
            constraints.append([vec[a] - vec[b] for vec in span_basis])
    if not constraints:
        coeff_basis = [tuple(ONE if i == j else ZERO for j in range(len(span_basis))) for i in range(len(span_basis))]
    else:
        coeff_basis = reference_nullspace(constraints)
    combined = []
    for coeffs in coeff_basis:
        vec = [ZERO] * model.n_cells
        for coef, base in zip(coeffs, span_basis):
            for a, x in enumerate(base):
                vec[a] += coef * x
        combined.append(tuple(vec))
    return combined


def _reference_decompose(measure, model):
    weights = measure.weights
    support = measure.support
    gains = [vec for _, vec in reference_gains(model)]
    residuals = []
    for psi in model.claims:
        proj = reference_project_onto_span(psi, gains, weights)
        residuals.append(_mask_to_support([x - p for x, p in zip(psi, proj)], weights))
    span_basis = [residuals[i] for i in reference_rref([list(col) for col in zip(*residuals)])[1]] if residuals else []
    blocks = []
    previous_basis = []
    for k in range(model.horizon + 1):
        measurable = _reference_measurable_combinations(span_basis, model, k, weights)
        fresh = []
        for v in measurable:
            proj = reference_project_onto_span(v, previous_basis, weights)
            fresh.append(tuple(x - p for x, p in zip(v, proj)))
        block_vectors = [_mask_to_support(v, weights) for v in reference_gram_schmidt(fresh, weights)]
        if block_vectors:
            if k >= 1:
                for v in block_vectors:
                    prior = conditional_expectation(model, v, k - 1, measure)
                    if any(prior[a] != 0 for a in support):
                        raise InvariantViolation("block martingale must vanish before its jump")
            cell_of = model.coarse_cell_of[max(k - 1, 0)]
            carrying = sorted({cell_of[a] for v in block_vectors for a in support if v[a] != 0})
            blocks.append(JumpBlock(k, tuple(block_vectors), tuple(carrying)))
        previous_basis = measurable
    return UnhedgeableDecomposition(tuple(residuals), tuple(blocks))


def test_hedging_span_rank_equals_the_fraction_rank(model):
    vertices, midpoints, others = _measures(model, random.Random(model.n_cells))
    for measure in vertices + midpoints + others:
        restricted = [[vec[a] for a in measure.support] for _, vec in strategy_columns(model)]
        assert hedging_span(model, measure) == _rank(restricted)


def _replicate_cases(model):
    """Two random fractional payoffs and the claims, under the first vertices and midpoints."""
    rng = random.Random(model.n_cells + 11)
    vertices, midpoints, _ = _measures(model, rng)
    payoffs = [tuple(F(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(model.n_cells)) for _ in range(2)]
    return [(payoff, measure) for measure in vertices[:4] + midpoints[:4] for payoff in payoffs + list(model.claims)]


def test_replicate_equals_the_fraction_solution(model):
    for payoff, measure in _replicate_cases(model):
        outcome = replicate(payoff, measure, model)
        assert outcome == _reference_replicate(payoff, measure, model)
        if isinstance(outcome, NotReplicable):
            assert all(type(x) is Fraction for x in outcome.residual)


def test_decompose_unhedgeable_equals_the_fraction_decomposition(model):
    for measure in enumerate_extreme_points(model.constraints).vertices[:6]:
        decomposition = decompose_unhedgeable(measure, model)
        assert decomposition == _reference_decompose(measure, model)
        vectors = [x for v in decomposition.residual_terminals for x in v]
        vectors += [x for block in decomposition.blocks for v in block.vectors for x in v]
        assert all(type(x) is Fraction for x in vectors)


def test_the_corpus_reaches_every_hedging_path():
    # the comparisons above meet both outcomes of replicate, residual claims and jump blocks
    counts = Counter()
    for _, model in CORPUS:
        for payoff, measure in _replicate_cases(model):
            counts[type(replicate(payoff, measure, model)).__name__] += 1
        for measure in enumerate_extreme_points(model.constraints).vertices[:6]:
            decomposition = decompose_unhedgeable(measure, model)
            counts["claims"] += len(decomposition.residual_terminals)
            counts["blocks"] += len(decomposition.blocks)
    assert min(counts["SemiStaticStrategy"], counts["NotReplicable"], counts["claims"], counts["blocks"]) >= 50


# -- tree: the earlier Fraction code ------------------------------------------------------------


def _reference_theorem_conditions(tree, measure, model):
    leaf_checks = []
    charged_leaves = 0
    for leaf in tree.leaves:
        atoms = [a for a in _cells_within(model, leaf.cell)[0] if measure.weights[a] > 0]
        if not atoms:
            continue
        charged_leaves += 1
        charged = set(atoms)
        vectors = [[ONE] * len(atoms)]
        for (_, k, c, _), vec in reference_gains(model):
            if k > leaf.birth and not charged.isdisjoint(model.coarse_groups[k - 1][c]):
                vectors.append([vec[a] for a in atoms])
        leaf_checks.append(LeafCheck(leaf.cell, leaf.birth, _rank(vectors), len(atoms)))
    projections = [sigma_tree_expectation(psi, tree, measure, model) for psi in model.claims]
    support = measure.support
    claims_rank = _rank([[v[a] for a in support] for v in projections]) if projections else 0
    zeta = reference_zeta(tree, model)
    price_constant = all(zeta[a] is not None and not _price_moved(model, (a,), zeta[a]) for a in support)
    return TheoremConditionsReport(tuple(leaf_checks), claims_rank, charged_leaves - 1, price_constant)


def _reference_extract_tree(measure, model):
    if not is_semistatically_complete(measure, model).complete:
        raise NotComplete("tree extraction requires semi-static completeness")
    decomposition = _reference_decompose(measure, model)
    weights = measure.weights

    def charged_of(cell):
        return frozenset(a for a in _cells_within(model, cell)[0] if weights[a] > 0)

    blocks = list(decomposition.blocks)
    nodes = []
    if blocks and blocks[0].time == 0:
        carried = set(blocks.pop(0).atom_cells)
        rest = {model.coarse_cell_of[0][a] for a in measure.support} - carried
        if len(rest) > 1:
            return NoTree("time-zero jump block leaves a remainder that is not an atom")
        for c in sorted(carried | rest):
            nodes.append(TreeNode(model.partitions[0].cells[c], 0))
    else:
        nodes.append(TreeNode(tuple(range(model.n_outcomes)), 0))
    leaves = list(nodes)
    for block in blocks:
        k = block.time
        for c in block.atom_cells:
            carrier = frozenset(a for a in model.coarse_groups[k - 1][c] if weights[a] > 0)
            hits = [leaf for leaf in leaves if charged_of(leaf.cell) & carrier]
            if len(hits) != 1:
                return NoTree(f"jump block at k={k} straddles the current leaves")
            leaf = hits[0]
            if charged_of(leaf.cell) != carrier:
                return NoTree(f"jump block at k={k} is carried by a proper sub-event of a leaf")
            if _price_moved(model, carrier, k):
                return NoTree(f"price moves on a leaf before its branch time k={k}")
            children = sorted({model.coarse_cell_of[k][a] for a in carrier})
            if len(children) < 2:
                return NoTree(f"jump block at k={k} does not split its carrying atom")
            new_nodes = [TreeNode(model.partitions[k].cells[cc], k) for cc in children]
            nodes.extend(new_nodes)
            leaves.remove(leaf)
            leaves.extend(new_nodes)
    tree = AtomicTree(nodes)
    report = validate_atomic_tree(tree, measure, model)
    if not report.ok:
        first = report.violations[0]
        return NoTree(f"constructed nodes violate the tree axioms: {first.code} at {first.where}")
    if not is_full(tree, measure, model):
        return NoTree("constructed tree is not full")
    support = measure.support
    rows = [[vec[a] for _, vec in reference_gains(model)] for a in support]
    for i, psi in enumerate(model.claims):
        target = sigma_tree_expectation(psi, tree, measure, model)
        rhs = [psi[a] - target[a] for a in support]
        reduced = reference_rref([row + [b] for row, b in zip(rows, rhs)])[1]
        if reduced and reduced[-1] == len(rows[0]):
            return NoTree(f"claim {i} residual is not dynamically replicable over the tree")
    if not _reference_theorem_conditions(tree, measure, model).ok:
        return NoTree("constructed tree fails the completeness characterization conditions")
    return tree


def _trees(model):
    """The one-node tree, the tree of P_1's cells under it, and the tree of every P_k cell."""
    root = TreeNode(tuple(range(model.n_outcomes)), 0)
    first = [TreeNode(cell, 1) for cell in model.partitions[1].cells if len(model.partitions[1].cells) > 1]
    every = [TreeNode(cell, k) for k, p in enumerate(model.partitions) for cell in p.cells]
    return [AtomicTree([root]), AtomicTree([root, *first]), AtomicTree(every)]


def test_extract_tree_and_theorem_conditions_equal_the_fraction_code(model):
    vertices, midpoints, others = _measures(model, random.Random(model.n_cells + 5))
    for measure in vertices[:6]:
        tree = extract_tree(measure, model)
        assert tree == _reference_extract_tree(measure, model)
        trees = _trees(model) + ([tree] if isinstance(tree, AtomicTree) else [])
        for candidate in trees:
            assert check_theorem_conditions(candidate, measure, model) == _reference_theorem_conditions(
                candidate, measure, model
            )
    for measure in midpoints[:2] + others:
        for candidate in _trees(model):
            assert check_theorem_conditions(candidate, measure, model) == _reference_theorem_conditions(
                candidate, measure, model
            )


def test_the_corpus_reaches_every_tree_path():
    trees = no_trees = failed = 0
    for _, model in CORPUS:
        for measure in enumerate_extreme_points(model.constraints).vertices[:3]:
            outcome = extract_tree(measure, model)
            trees += isinstance(outcome, AtomicTree)
            no_trees += isinstance(outcome, NoTree)
            failed += sum(not check_theorem_conditions(t, measure, model).ok for t in _trees(model))
    assert trees >= 100 and no_trees >= 10 and failed >= 100


# -- enlargement: the earlier Fraction code -----------------------------------------------------


def _charged_means(values, groups, weights):
    return [m for m, w in zip(condexp_groups(values, groups, weights), weights) if w > 0]


def _reference_azema(measure, jump, enlarged):
    taus, _ = enlarged.on_cells(jump)
    groups, weights = enlarged.base_groups, measure.weights
    values = tuple(
        condexp_groups(tuple(ONE if t is None or t > k else ZERO for t in taus), groups[k], weights)
        for k in range(enlarged.model.horizon + 1)
    )
    ok = all(
        m <= 0
        for k in range(enlarged.model.horizon)
        for m in _charged_means([b - a for a, b in zip(values[k], values[k + 1])], groups[k], weights)
    )
    return values, ok


def _reference_compensator(measure, jump, enlarged):
    taus, marks = enlarged.on_cells(jump)
    weights = measure.weights
    cell_of = enlarged.model.terminal_cell_of_outcome
    increments = []
    predictable = martingale = True
    for k in range(enlarged.model.horizon + 1):
        groups = enlarged.base_groups[max(k - 1, 0)]
        jump_now = tuple(x if t == k else ZERO for t, x in zip(taus, marks))
        inc = condexp_groups(jump_now, groups, weights)
        increments.append(inc)
        base_cells = enlarged.base.partitions[max(k - 1, 0)].cells
        predictable &= all(len({inc[cell_of[w]] for w in cell}) <= 1 for cell in base_cells)
        martingale &= not any(_charged_means([n - d for n, d in zip(jump_now, inc)], groups, weights))
    return tuple(increments), predictable, martingale


def _reference_jeulin_yor_ok(measure, enlarged, values):
    weights = measure.weights
    ok = not any(_charged_means(values[0], enlarged.base_groups[0], weights))
    for k in range(1, enlarged.model.horizon + 1):
        delta = [b - a for a, b in zip(values[k - 1], values[k])]
        ok &= not any(_charged_means(delta, enlarged.model.coarse_groups[k - 1], weights))
    return ok


def _enlargements():
    rng = random.Random(2022)
    named = [(name, model) for name, model in MODELS]
    named += [(f"{name}-fractional", _fractional(model, rng)) for name, model in MODELS]
    cases = [(name, model, [random_jump(rng, model)]) for name, model in named]
    for path in sorted(SCENARIOS.glob("*.json")):
        scenario = load_scenario(path)
        cases.append((path.stem, scenario.model, list(scenario.jumps) or [random_jump(rng, scenario.model)]))
    return [(name, (jumps, enlarge(model, jumps))) for name, model, jumps in cases]


ENLARGEMENTS = _enlargements()


@pytest.fixture(params=[e for _, e in ENLARGEMENTS], ids=[name for name, _ in ENLARGEMENTS])
def enlargement(request):
    """The jumps and the enlarged model they make."""
    return request.param


def test_azema_compensator_and_jeulin_yor_equal_the_fraction_checks(enlargement):
    jumps, enlarged = enlargement
    rng = random.Random(enlarged.model.n_cells)
    fine = enlarged.model
    measures = list(enumerate_extreme_points(fine.constraints).vertices[:3])
    measures += [random_measure(rng, fine) for _ in range(3)]
    measures.append(Measure((ONE,) + (ZERO,) * (fine.n_cells - 1)))  # every other cell null
    for measure in measures:
        for jump in jumps:
            z, comp = azema(measure, jump, enlarged), compensator(measure, jump, enlarged)
            jy = jeulin_yor(measure, jump, enlarged)
            assert (z.values, z.supermartingale_ok) == _reference_azema(measure, jump, enlarged)
            assert (comp.increments, comp.predictable_ok, comp.martingale_ok) == _reference_compensator(
                measure, jump, enlarged
            )
            assert jy.martingale_ok == _reference_jeulin_yor_ok(measure, enlarged, jy.values)
            assert (jy.azema, jy.compensator) == (z, comp)


def test_weighted_sums_have_the_signs_of_the_charged_means():
    rng = random.Random(22)
    values_pool = [ZERO, ONE, -ONE, F(1, 2), F(-5, 3), F(7, 4)]
    seen = set()
    for _ in range(400):
        n = rng.randint(1, 6)
        cut = sorted(rng.sample(range(1, n), rng.randint(0, n - 1))) if n > 1 else []
        groups = [tuple(range(a, b)) for a, b in zip([0, *cut], [*cut, n])]
        raw = [rng.choice([0, 0, 1, 2, 3]) for _ in range(n)]
        if not any(raw):
            raw[0] = 1
        weights = tuple(F(r, sum(raw)) for r in raw)
        values = tuple(rng.choice(values_pool) for _ in range(n))
        sums = _weighted_sums(values, groups, [r * 7 for r in raw])  # any positive multiple of the weights
        means = condexp_groups(values, groups, weights)
        for group, s in zip(groups, sums):
            if all(weights[a] == 0 for a in group):
                assert s == 0
                continue
            mean = means[group[0]]
            assert (s > 0, s < 0) == (mean > 0, mean < 0)
            seen.add((s > 0) - (s < 0))
    assert seen == {-1, 0, 1}


# -- duality: the earlier vertex scan -----------------------------------------------------------


def _reference_scan(payoff, vertices):
    if not vertices:
        return None
    return max(m.expectation(payoff) for m in vertices)


def test_robust_price_equals_the_fraction_scan(model):
    rng = random.Random(model.n_cells + 3)
    vertices = enumerate_extreme_points(model.constraints).vertices
    for _ in range(3):
        payoff = tuple(F(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(model.n_cells))
        result = robust_price(payoff, model)
        assert result.value == _reference_scan(payoff, vertices)
        assert result.argmax == tuple(m for m in vertices if m.expectation(payoff) == result.value)


def test_informed_compare_prices_equal_the_fraction_scan(enlargement):
    jumps, enlarged = enlargement
    rng = random.Random(enlarged.base.n_cells + 9)
    base = enlarged.base
    payoffs = {
        f"p{i}": tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(base.n_cells)) for i in range(2)
    }
    report, again = informed_compare(base, jumps, payoffs)
    assert again.model == enlarged.model
    for name, payoff in payoffs.items():
        expected = (
            _reference_scan(payoff, report.ext_base.vertices),
            _reference_scan(enlarged.expand(payoff), report.ext_enlarged.vertices),
        )
        assert report.prices[name] == expected


# -- the probe: no Fraction order comparison above the polytope ------------------------------------
# (that no kernel rescales a row is the static ``tests/test_layout.py`` check on ``linalg`` and ``simplex``)


def _upper_layer_probe(argv_list):
    """The Fraction order comparisons made from ``hedging``, ``tree`` and ``enlargement`` while ``cli.main`` runs.

    They are counted by (module, function).
    """
    layers = {"semistatic.hedging", "semistatic.tree", "semistatic.enlargement"}
    order = {getattr(Fraction, name).__code__ for name in ("__lt__", "__le__", "__gt__", "__ge__")}
    comparisons = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in order:
            caller = frame.f_back
            if caller.f_globals.get("__name__") in layers:
                comparisons[caller.f_globals["__name__"], caller.f_code.co_qualname] += 1

    sys.setprofile(profile)
    try:
        for argv in argv_list:
            cli.main(argv)
    finally:
        sys.setprofile(None)
    return comparisons


def test_upper_layers_never_order_fractions(capsys):
    # the gain and claim rows come from the model's int tables and the charged cells from the support
    argv_list = []
    for path in sorted(SCENARIOS.glob("*.json")):
        scenario = load_scenario(path)
        for measure in ("0", "1"):
            argv_list.append(["--format", "json", "complete", "--measure", measure, str(path)])
            argv_list.append(["--format", "json", "tree", "--measure", measure, str(path)])
            for payoff in sorted(scenario.payoffs) or [",".join(["1"] + ["0"] * (scenario.model.n_cells - 1))]:
                argv_list.append(["--format", "json", "replicate", "--payoff", payoff, "--measure", measure, str(path)])
        if scenario.jumps:
            argv_list.append(["--format", "json", "enlarge", "--measure", "0", str(path)])
            argv_list.append(["--format", "json", "informed-compare", str(path)])
    comparisons = _upper_layer_probe(argv_list)
    capsys.readouterr()
    assert set(comparisons) <= {("semistatic.enlargement", "SingleJump.__post_init__")}
