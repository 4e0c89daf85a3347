import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semistatic import cli, hedging, linalg, polytope
from semistatic import tree as tree_module
from semistatic.errors import NotComplete, ShapeError
from semistatic.hedging import decompose_unhedgeable, is_semistatically_complete
from semistatic.model import FilteredModel, Partition, condexp_groups, validate_model
from semistatic.polytope import build_constraints, enumerate_extreme_points
from semistatic.sampling import random_measure, random_model
from semistatic.tree import (
    AtomicTree,
    LeafCheck,
    NoTree,
    TreeNode,
    _birth,
    _cells_within,
    _is_atom,
    check_theorem_conditions,
    extract_tree,
    is_full,
    validate_atomic_tree,
)
from semistatic.scenario import load_scenario, parse_scenario
from tests.conftest import SCENARIOS, scenario_path
from tests.reference import conditional_expectation, fraction_claims, int_rows, reference_rref, reference_solve, sigma_tree_expectation
from tests.reference import gains as reference_gains, zeta as reference_zeta
from tests.test_layout import MODELS

F = Fraction


def test_birth_time_examples(trinomial, glued_two_vol):
    # each outcome of these models is its own terminal cell, so an event is its terminal cells
    model = trinomial.model
    assert _birth(model, (0, 1, 2)) == 0
    assert _birth(model, (0,)) == 1
    glued = glued_two_vol.model
    assert _birth(glued, (0, 1)) == 1  # the high-move branch cell


def test_validate_tree_examples(trinomial):
    model = trinomial.model
    q = model.measure(["1/4", "1/2", "1/4"])
    root = TreeNode((0, 1, 2), 0)
    assert validate_atomic_tree(AtomicTree([root]), q, model) == ()
    good = AtomicTree([root, TreeNode((0,), 1)])
    assert validate_atomic_tree(good, q, model) == ()
    null_node = AtomicTree([root, TreeNode((0,), 1)])
    q_null_u = model.measure(["0", "1/2", "1/2"])
    assert any(v.code == "non-null" for v in validate_atomic_tree(null_node, q_null_u, model))


@pytest.mark.parametrize("outside", [99, -1])
def test_cells_within_an_event_naming_an_outcome_outside_the_model(trinomial, outside):
    assert _cells_within(trinomial.model, (0, outside)) == ((0,), False)


@pytest.mark.parametrize("outside", [99, -1])
def test_validate_tree_rejects_a_node_naming_an_outcome_outside_the_model(trinomial, outside):
    model = trinomial.model
    q = model.measure(["1/4", "1/2", "1/4"])
    tree = AtomicTree([TreeNode((0, 1, 2), 0), TreeNode((0, outside), 1)])
    with pytest.raises(ShapeError, match=f"outcome {outside},"):
        validate_atomic_tree(tree, q, model)


@pytest.mark.parametrize("outside", [99, -1])
def test_tree_report_rejects_a_node_naming_an_outcome_outside_the_model(trinomial, outside):
    tree = AtomicTree([TreeNode((0, 1, 2), 0), TreeNode((0, outside), 1)])
    with pytest.raises(ShapeError, match=f"outcome index {outside} outside 0..2"):
        tree.to_json(trinomial.model)


COARSE = FilteredModel.from_fractions(  # a and b share one terminal cell, so the event {a} is not terminally measurable
    outcomes=("a", "b", "c"),
    times=(F(0), F(1)),
    partitions=(Partition([[0, 1, 2]]), Partition([[0, 1], [2]])),
    prices=(((F(0),) * 3, (F(1), F(1), F(-1))),),
    claims=(),
    allowed=frozenset({0, 1}),
)


@pytest.mark.parametrize(
    "model, weights, nodes, violation",
    [
        (COARSE, ["1/2", "1/2"], [((0, 1, 2), 0), ((0,), 1)], ("measurable", "a", "node is not terminally measurable")),
        # {h_up, h_dn} is an atom at 1 and {h_dn, l_up} one at 2, where l_up is null; they overlap
        (
            "glued_two_vol",
            ["1/4", "1/4", "0", "1/2"],
            [((0, 1), 1), ((1, 2), 2)],
            ("nesting", "h_up|h_dn / h_dn|l_up", "later-born node neither nested nor disjoint"),
        ),
        # every node is an atom, but m and d are null, so {u, m} carries all of the root's mass
        (
            "trinomial",
            ["1", "0", "0"],
            [((0, 1, 2), 0), ((0, 1), 1)],
            ("mass-drop", "u|m|d / u|m", "no strict mass drop between nested nodes"),
        ),
    ],
    ids=["measurable", "nesting", "mass-drop"],
)
def test_validate_tree_flags_each_structural_violation(request, model, weights, nodes, violation):
    if isinstance(model, str):
        model = request.getfixturevalue(model).model
    tree = AtomicTree([TreeNode(cell, birth) for cell, birth in nodes])
    violations = validate_atomic_tree(tree, model.measure(weights), model)
    assert [(v.code, v.where, v.message) for v in violations] == [violation]


def test_validate_tree_birth_mismatch(trinomial):
    model = trinomial.model
    q = model.measure(["1/4", "1/2", "1/4"])
    assert any(v.code == "birth" for v in validate_atomic_tree(AtomicTree([TreeNode((0, 1, 2), 1)]), q, model))


def test_is_full_examples(trinomial, glued_two_vol):
    model = trinomial.model
    q = model.measure(["1/4", "1/2", "1/4"])
    assert is_full(AtomicTree([TreeNode((0, 1, 2), 0)]), q, model)
    partial = AtomicTree([TreeNode((0, 1, 2), 0), TreeNode((0,), 1)])
    assert not is_full(partial, q, model)  # leaves do not cover m and d
    glued = glued_two_vol.model
    gq = glued.measure(["1/6", "1/6", "1/3", "1/3"])
    full = AtomicTree(
        [TreeNode(tuple(range(4)), 0), TreeNode((0, 1), 1), TreeNode((2, 3), 1)]
    )
    assert is_full(full, gq, glued)


def leafwise(payoff, tree, measure, model):
    """The payoff's leafwise means on the support: ``condexp_groups`` over the leaves' terminal cells."""
    leaves = [_cells_within(model, leaf.cell)[0] for leaf in tree.leaves]
    means = condexp_groups(payoff, leaves, measure.numerators)
    return tuple(means[a] for a in measure.support)


def test_sigma_tree_expectation_values(glued_two_vol):
    model = glued_two_vol.model
    q = model.measure(["1/6", "1/6", "1/3", "1/3"])
    tree = AtomicTree(
        [TreeNode(tuple(range(4)), 0), TreeNode((0, 1), 1), TreeNode((2, 3), 1)]
    )
    psi = fraction_claims(model)[0]
    assert leafwise(psi, tree, q, model) == (F(2), F(2), F(-1), F(-1))
    assert leafwise((F(5),) * 4, tree, q, model) == (F(5),) * 4
    root_only = AtomicTree([TreeNode(tuple(range(4)), 0)])
    assert leafwise(psi, root_only, q, model) == (F(0),) * 4


def test_sigma_tree_matches_stopped_conditioning(glued_two_vol):
    model = glued_two_vol.model
    q = model.measure(["1/6", "1/6", "1/3", "1/3"])
    tree = AtomicTree(
        [TreeNode(tuple(range(4)), 0), TreeNode((0, 1), 1), TreeNode((2, 3), 1)]
    )
    zeta = reference_zeta(tree, model)
    payoff = (F(3), F(-2), F(7), F(1))
    for a, value in zip(q.support, leafwise(payoff, tree, q, model)):
        assert value == conditional_expectation(model, payoff, zeta[a], q)[a]


def test_check_conditions_binomial(binomial):
    model = binomial.model
    q = model.measure(["1/2", "1/2"])
    report = check_theorem_conditions(AtomicTree([TreeNode((0, 1), 0)]), q, model)
    assert report.ok and report.claims_required == 0


def test_check_conditions_glued(glued_two_vol):
    model = glued_two_vol.model
    q = model.measure(["1/6", "1/6", "1/3", "1/3"])
    tree = AtomicTree(
        [TreeNode(tuple(range(4)), 0), TreeNode((0, 1), 1), TreeNode((2, 3), 1)]
    )
    report = check_theorem_conditions(tree, q, model)
    assert report.ok and report.claims_rank == 1 == report.claims_required


def test_check_conditions_interior_trinomial_fails(trinomial):
    model = trinomial.model
    q = model.measure(["1/4", "1/2", "1/4"])
    report = check_theorem_conditions(AtomicTree([TreeNode((0, 1, 2), 0)]), q, model)
    assert not report.leaves_ok and not report.ok


def test_a_leaf_trades_only_after_its_birth(trinomial):
    # condition (i) spans a leaf by the gains after its birth: a leaf born at the horizon keeps the constant
    # alone, though S_1 moves on it (such a leaf is no atom at its birth, which the tree axioms refuse)
    model = trinomial.model
    q = model.measure(["1/4", "1/2", "1/4"])
    report = check_theorem_conditions(AtomicTree([TreeNode((0, 1, 2), 1)]), q, model)
    assert report.leaf_checks == (LeafCheck((0, 1, 2), 1, 1, 3),)


def test_extract_tree_glued(glued_two_vol):
    model = glued_two_vol.model
    q = enumerate_extreme_points(build_constraints(model)).vertices[0]
    tree = extract_tree(q, model)
    assert isinstance(tree, AtomicTree)
    assert tree.dim == 2
    assert [n.cell for n in tree.nodes] == [(0, 1, 2, 3), (0, 1), (2, 3)]
    psi = fraction_claims(model)[0]
    projected = sigma_tree_expectation(psi, tree, q, model)
    gains = [vec for _, vec in reference_gains(model)]
    rows = [[g[a] for g in gains] for a in q.support]
    rhs = [psi[a] - projected[a] for a in q.support]
    assert reference_solve(rows, rhs) is not None


def test_extract_tree_dynamically_complete(binomial, trinomial):
    model = binomial.model
    q = model.measure(["1/2", "1/2"])
    tree = extract_tree(q, model)
    assert isinstance(tree, AtomicTree) and [n.cell for n in tree.nodes] == [(0, 1)]
    model = trinomial.model
    for weights in (["1/2", "0", "1/2"], ["0", "1", "0"]):
        tree = extract_tree(model.measure(weights), model)
        assert isinstance(tree, AtomicTree) and tree.dim == 1


def test_extract_tree_requires_completeness(trinomial):
    with pytest.raises(NotComplete):
        extract_tree(trinomial.model.measure(["1/4", "1/2", "1/4"]), trinomial.model)


def test_not_complete_messages_name_the_operation(trinomial):
    model = trinomial.model
    q = model.measure(["1/4", "1/2", "1/4"])
    with pytest.raises(NotComplete) as tree_error:
        extract_tree(q, model)
    assert str(tree_error.value) == "tree extraction requires semi-static completeness"
    with pytest.raises(NotComplete) as decompose_error:
        decompose_unhedgeable(q, model)
    assert str(decompose_error.value) == "unhedgeable decomposition requires semi-static completeness"


@pytest.mark.parametrize(
    "argv, printed, span_ranks",
    [
        (["tree"], "birth", 1),
        (["complete"], "complete", 1),
        (["replicate", "--payoff", "abs_S2"], "replicable", 0),
    ],
    ids=["tree", "complete", "replicate"],
)
def test_tree_command_checks_membership_and_span_rank_once(monkeypatch, capsys, argv, printed, span_ranks):
    calls = Counter()
    for module, name in ((hedging, "member"), (hedging, "hedging_span"), (polytope, "build_constraints")):
        original = getattr(module, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, counted)
    assert cli.main([*argv, "--measure", "0", str(scenario_path("glued_two_vol"))]) == 0
    assert printed in capsys.readouterr().out
    assert calls == Counter({"member": 1, "build_constraints": 1, "hedging_span": span_ranks})


def test_extract_tree_jump_counterexample(jump_counterexample):
    model = jump_counterexample.model
    for q in enumerate_extreme_points(build_constraints(model)).vertices:
        assert is_semistatically_complete(q, model).complete
        outcome = extract_tree(q, model)
        assert isinstance(outcome, NoTree)
        assert "proper sub-event" in outcome.reason


def test_extract_validates_and_checks_conditions(glued_two_vol):
    model = glued_two_vol.model
    q = enumerate_extreme_points(build_constraints(model)).vertices[0]
    tree = extract_tree(q, model)
    assert validate_atomic_tree(tree, q, model) == ()
    assert is_full(tree, q, model)
    assert check_theorem_conditions(tree, q, model).ok


def test_each_check_looks_each_node_up_once(monkeypatch):
    # the input check looks every node up once and the helpers read its lookups; extraction reads its
    # own nodes off the cell tables and looks them up only through the three checks it runs
    models = [load_scenario(path).model for path in sorted(SCENARIOS.glob("*.json"))] + [m for _, m in MODELS]
    calls = []
    lookup = tree_module._cells_within
    monkeypatch.setattr(tree_module, "_cells_within", lambda model, event: calls.append(event) or lookup(model, event))
    branched = 0
    for model in models:
        for q in enumerate_extreme_points(model.constraints).vertices:
            calls.clear()
            tree = extract_tree(q, model)
            if isinstance(tree, NoTree):
                continue
            assert len(calls) == 3 * len(tree.nodes)
            branched += len(tree.nodes) > len(tree.leaves) > 1
            for check in (validate_atomic_tree, is_full, check_theorem_conditions):
                calls.clear()
                check(tree, q, model)
                assert len(calls) == len(tree.nodes), check
    assert branched  # the corpus builds trees with inner nodes


# -- extraction's certificate: the tree axioms, fullness and the theorem's conditions -------------

# glued_two_vol with the regime known at time 0: P_0 has two cells, and the claim makes the time-zero jump
TWO_ROOTS = {
    "outcomes": ["h_up", "h_dn", "l_up", "l_dn"],
    "times": [0, 1],
    "filtration": [[["h_up", "h_dn"], ["l_up", "l_dn"]], [["h_up"], ["h_dn"], ["l_up"], ["l_dn"]]],
    "prices": [[[0, 0, 0, 0], [2, -2, 1, -1]]],
    "claims": [[2, 2, -1, -1]],
}


def extract_on_blocks(monkeypatch, measure, model, blocks):
    """``extract_tree`` with the decomposition's jump blocks replaced by ``blocks``."""
    decomposition = decompose_unhedgeable(measure, model)
    monkeypatch.setattr(tree_module, "decompose_unhedgeable", lambda *_: decomposition._replace(blocks=tuple(blocks)))
    return extract_tree(measure, model)


def test_extract_reports_constructed_nodes_that_break_the_tree_axioms(monkeypatch):
    # without the time-zero block the tree is the root alone, no atom at time 0: both P_0 cells carry mass
    model = parse_scenario(TWO_ROOTS).model
    (q,) = enumerate_extreme_points(model.constraints).vertices
    assert [(b.time, b.atom_cells) for b in decompose_unhedgeable(q, model).blocks] == [(0, (0, 1))]
    assert extract_tree(q, model) == AtomicTree([TreeNode((0, 1), 0), TreeNode((2, 3), 0)])
    outcome = extract_on_blocks(monkeypatch, q, model, [])
    assert outcome == NoTree("constructed nodes violate the tree axioms: atom at h_up|h_dn|l_up|l_dn")


def test_extract_reports_a_tree_that_is_not_full(monkeypatch, glued_two_vol):
    # a tree that jump blocks build and the axioms accept is full: each split's children lie in the leaf
    # they replace, an atom just before they are born.  No decomposition reaches the branch, so is_full is stubbed
    model = glued_two_vol.model
    (q,) = enumerate_extreme_points(model.constraints).vertices
    monkeypatch.setattr(tree_module, "is_full", lambda *_: False)
    assert extract_tree(q, model) == NoTree("constructed tree is not full")


def test_extract_reports_a_tree_that_fails_the_theorem_conditions(monkeypatch, glued_two_vol):
    # without its one jump block the tree is the root alone: trading from time 0 does not span the claim
    model = glued_two_vol.model
    (q,) = enumerate_extreme_points(model.constraints).vertices
    blocks = decompose_unhedgeable(q, model).blocks
    assert len(blocks) == 1
    outcome = extract_on_blocks(monkeypatch, q, model, blocks[:-1])
    assert outcome == NoTree("constructed tree fails the completeness characterization conditions")
    report = check_theorem_conditions(AtomicTree([TreeNode((0, 1, 2, 3), 0)]), q, model)
    assert (report.leaves_ok, report.claims_ok, report.price_constant_ok) == (False, True, True)


def candidate_trees(model):
    """The root alone, then the root with every P_j cell first measurable at j, for j = 1..k, for each k."""
    root = TreeNode(tuple(range(model.n_outcomes)), 0)
    new = [
        [TreeNode(cell, j) for cell in model.partitions[j].cells if cell not in model.partitions[j - 1].cells]
        for j in range(1, model.horizon + 1)
    ]
    return [AtomicTree([root, *(node for level in new[:k] for node in level)]) for k in range(model.horizon + 1)]


def residual_replicable(tree, measure, model):
    """Whether each claim less its leafwise mean is a sum of gains on the support, by Fraction elimination."""
    support = measure.support
    rows = [[vec[a] for _, vec in reference_gains(model)] for a in support]
    for claim in fraction_claims(model):
        means = sigma_tree_expectation(claim, tree, measure, model)
        augmented = [row + [claim[a] - means[a]] for row, a in zip(rows, support)]
        if reference_rref(augmented)[1][-1:] == [len(rows[0])]:  # a pivot in the residual column
            return False
    return True


def test_condition_i_fails_wherever_the_claim_residual_is_not_replicable():
    # on a full tree under a calibrated measure condition (i) implies the residual check that extraction
    # no longer runs, so every full, valid tree with a non-replicable residual fails (i)
    rng = random.Random(5)
    failing = 0
    for _ in range(300):
        model = random_model(rng, n_claims=rng.randint(1, 2))[0]
        for q in enumerate_extreme_points(model.constraints).vertices:
            for tree in candidate_trees(model):
                if not validate_atomic_tree(tree, q, model) and is_full(tree, q, model):
                    if not residual_replicable(tree, q, model):
                        failing += 1
                        assert not check_theorem_conditions(tree, q, model).leaves_ok
    assert failing >= 100


def intersection_dimension(span_a, span_b):
    """dim(span A ∩ span B) by rank inclusion-exclusion."""
    a, b = int_rows(span_a), int_rows(span_b)
    return linalg.rank(a) + linalg.rank(b) - linalg.rank(a + b)


def test_rank_identity_glued(glued_two_vol):
    # span of leaf indicators plus gains fills the support, meeting only in constants
    model = glued_two_vol.model
    q = enumerate_extreme_points(build_constraints(model)).vertices[0]
    tree = extract_tree(q, model)
    support = q.support
    leaf_vecs = [
        [F(1) if set(model.terminal_cells[s]) <= set(leaf.cell) else F(0) for s in support]
        for leaf in tree.leaves
    ]
    gain_vecs = [[vec[s] for s in support] for _, vec in reference_gains(model)]
    assert linalg.rank(int_rows(leaf_vecs + gain_vecs)) == len(support)
    assert intersection_dimension(leaf_vecs, gain_vecs) == 0
    with_const = gain_vecs + [[F(1)] * len(support)]
    assert intersection_dimension(leaf_vecs, with_const) == 1


def test_zeta_bounded_and_leafwise(glued_two_vol):
    # the reference zeta that the int theorem conditions are checked against
    model = glued_two_vol.model
    q = model.measure(["1/6", "1/6", "1/3", "1/3"])
    tree = extract_tree(q, model)
    zeta = reference_zeta(tree, model)
    for a in q.support:
        assert zeta[a] is not None and 0 <= zeta[a] <= model.horizon
        leaf = next(l for l in tree.leaves if set(model.terminal_cells[a]) <= set(l.cell))
        assert zeta[a] == leaf.birth


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_root_tree_conditions_imply_completeness(seed):
    # sufficiency on the trivial tree: if dynamic trading spans everything
    # from time zero, the measure is complete regardless of the claims
    from semistatic.sampling import random_mixture

    rng = random.Random(seed)
    model, _ = random_model(rng)
    cs = build_constraints(model)
    vs = enumerate_extreme_points(cs)
    q = random_mixture(rng, vs)
    tree = AtomicTree([TreeNode(tuple(range(model.n_outcomes)), 0)])
    report = check_theorem_conditions(tree, q, model)
    if report.ok:
        assert is_semistatically_complete(q, model).complete


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_conditions_imply_completeness(seed):
    # sufficiency: whenever extraction succeeds and conditions pass, the
    # measure is complete (and extraction only runs on complete measures,
    # so check the converse consistency on random vertices)
    rng = random.Random(seed)
    model, _ = random_model(rng, n_claims=1)
    cs = build_constraints(model)
    vs = enumerate_extreme_points(cs)
    q = vs.vertices[rng.randrange(len(vs.vertices))]
    outcome = extract_tree(q, model)
    if isinstance(outcome, NoTree):
        return
    report = check_theorem_conditions(outcome, q, model)
    assert report.ok
    assert is_semistatically_complete(q, model).complete
    # residual jumps live on tree nodes at their birth times
    decomposition = decompose_unhedgeable(q, model)
    for residual in decomposition.residual_terminals:
        marts = [conditional_expectation(model, residual, k, q) for k in range(model.horizon + 1)]
        for k in range(model.horizon + 1):
            prev = marts[k - 1] if k else tuple([F(0)] * model.n_cells)
            for a in q.support:
                if marts[k][a] != prev[a]:
                    assert any(
                        node.birth == k and set(model.terminal_cells[a]) <= set(node.cell)
                        for node in outcome.nodes
                    )


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_extraction_deterministic_and_unique(seed):
    rng = random.Random(seed)
    model, _ = random_model(rng, n_claims=1)
    cs = build_constraints(model)
    vs = enumerate_extreme_points(cs)
    q = vs.vertices[rng.randrange(len(vs.vertices))]
    first = extract_tree(q, model)
    second = extract_tree(q, model)
    assert type(first) is type(second)
    if isinstance(first, AtomicTree):
        assert first.nodes == second.nodes


# The set-based helpers that the cell-table lookups replaced, kept as references.


def reference_terminal_cells_within(model, cell):
    covered = set(cell)
    return [a for a, tc in enumerate(model.terminal_cells) if set(tc) <= covered]


def reference_is_terminal_measurable(model, cell):
    covered = set(cell)
    hit = [tc for tc in model.terminal_cells if covered.intersection(tc)]
    return all(set(tc) <= covered for tc in hit) and bool(covered)


def reference_birth_time(cell, model):
    """The first k at which the event, a nonempty union of terminal cells, is a union of P_k cells."""
    covered = set(cell)
    for k, partition in enumerate(model.partitions):
        hit = [c for c in partition.cells if covered.intersection(c)]
        if all(set(c) <= covered for c in hit):
            return k


def reference_is_atom(model, measure, k, cell):
    covered = set(cell)
    hits = []
    leak = F(0)
    for c, group in enumerate(model.coarse_groups[k]):
        q_in = sum((measure.weights[a] for a in group if set(model.terminal_cells[a]) <= covered), F(0))
        q_total = sum((measure.weights[a] for a in group), F(0))
        if q_in > 0:
            hits.append(c)
            leak = q_total - q_in
    return len(hits) == 1 and leak == 0


def reference_parent_index(tree, i):
    cell = set(tree.nodes[i].cell)
    best = None
    for j, other in enumerate(tree.nodes):
        if j == i:
            continue
        candidate = set(other.cell)
        if cell < candidate:
            if best is None or candidate < set(tree.nodes[best].cell):
                best = j
    return best


def reference_leaf_indices(tree):
    out = []
    for i, node in enumerate(tree.nodes):
        cell = set(node.cell)
        if not any(j != i and set(other.cell) < cell for j, other in enumerate(tree.nodes)):
            out.append(i)
    return tuple(out)


def doubled(model):
    """The same market with every outcome split in two, so each terminal cell holds two outcomes."""

    def split(cells):
        return [[2 * w + s for w in cell for s in (0, 1)] for cell in cells]

    return replace(
        model,
        outcomes=tuple(f"{name}{s}" for name in model.outcomes for s in "ab"),
        partitions=tuple(Partition(split(p.cells)) for p in model.partitions),
        int_prices=tuple((tuple(tuple(x for x in row for _ in (0, 1)) for row in rows), s) for rows, s in model.int_prices),
    )


def drawn_events(rng, model):
    """The empty event, one outcome of the first terminal cell, unions of P_k cells, those unions
    less one outcome, and random outcome sets."""
    events = [(), model.terminal_cells[0][:1]]
    for partition in model.partitions:
        for _ in range(3):
            union = [w for cell in partition.cells if rng.random() < 0.5 for w in cell]
            events.append(tuple(union))
            if union:
                events.append(tuple(w for w in union if w != rng.choice(union)))
    for _ in range(6):
        events.append(tuple(w for w in range(model.n_outcomes) if rng.random() < 0.5))
    return events


def drawn_model(seed, split):
    rng = random.Random(seed)
    model = random_model(rng)[0]
    return rng, doubled(model) if split else model


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.booleans())
def test_event_lookup_matches_the_set_based_reference(seed, split):
    rng, model = drawn_model(seed, split)
    assert validate_model(model) == ()
    measures = [random_measure(rng, model) for _ in range(2)]
    splits_a_cell = False
    for event in drawn_events(rng, model):
        cells, exact = _cells_within(model, event)
        assert list(cells) == reference_terminal_cells_within(model, event)
        assert (bool(cells) and exact) == reference_is_terminal_measurable(model, event)
        splits_a_cell |= bool(event) and not exact
        if cells and exact:
            assert _birth(model, cells) == reference_birth_time(event, model)
        for measure in measures:
            for k in range(model.horizon + 1):
                assert _is_atom(model, measure, k, cells) == reference_is_atom(model, measure, k, event)
    assert splits_a_cell == split  # one outcome of a two-outcome terminal cell splits it


def test_parents_and_leaves_where_supersets_do_not_nest():
    # {0} lies in both {0, 1} and {0, 2}, neither inside the other: the first one found is its
    # parent, and {0, 2} is nobody's parent yet no leaf, since {0} lies strictly inside it
    tree = AtomicTree([TreeNode((0,), 1), TreeNode((0, 1), 0), TreeNode((0, 2), 0), TreeNode((1, 2), 0)])
    assert [n.cell for n in tree.nodes] == [(0, 1), (0, 2), (1, 2), (0,)]
    assert tree.parents == tuple(reference_parent_index(tree, i) for i in range(4)) == (None, None, None, 0)
    assert tree.leaf_indices == reference_leaf_indices(tree) == (2, 3)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.booleans())
def test_parents_and_leaves_match_the_set_based_reference(seed, split):
    rng, model = drawn_model(seed, split)
    events = drawn_events(rng, model)
    nodes = [TreeNode(rng.choice(events), rng.randint(0, model.horizon)) for _ in range(rng.randint(1, 8))]
    tree = AtomicTree(nodes)
    assert tree.parents == tuple(reference_parent_index(tree, i) for i in range(len(tree.nodes)))
    assert tree.leaf_indices == reference_leaf_indices(tree)
