"""Value records are NamedTuples: what a frozen dataclass promised still holds.

Each record below comes from a real call on a bundled scenario.  A field
cannot be set, ``_replace()`` with no change gives an equal record, and a
record whose fields all hash hashes as its deep copy does.
"""

import copy
import inspect
from dataclasses import replace
from fractions import Fraction

import pytest

import semistatic
from semistatic import (
    AtomicTree,
    TreeNode,
    check_theorem_conditions,
    decompose_unhedgeable,
    detect_arbitrage,
    enlarge,
    enumerate_extreme_points,
    extract_tree,
    informed_compare,
    is_extreme,
    is_semistatically_complete,
    jeulin_yor,
    load_scenario,
    replicate,
    robust_price,
    superhedge,
    validate_model,
    verify_duality,
    verify_multinomial_inequality,
)
from semistatic.simplex import solve_lp
from tests.conftest import scenario_path

F = Fraction


def _records() -> dict:
    """One record of each NamedTuple class of the package, by class name, each returned by a library call."""
    trinomial, glued, counter, informed = (
        load_scenario(scenario_path(name))
        for name in ("trinomial", "glued_two_vol", "jump_counterexample", "initial_enlargement")
    )
    model = trinomial.model
    vertex = enumerate_extreme_points(model.constraints).vertices[0]
    payoff = trinomial.payoffs["abs_S1"]
    tree = extract_tree(vertex, model)
    conditions = check_theorem_conditions(tree, vertex, model)
    enlarged = enlarge(informed.model, informed.jumps)
    jy = jeulin_yor(enumerate_extreme_points(enlarged.model.constraints).vertices[0], informed.jumps[0], enlarged)
    glued_vertex = enumerate_extreme_points(glued.model.constraints).vertices[0]
    decomposition = decompose_unhedgeable(glued_vertex, glued.model)
    counter_vertex = enumerate_extreme_points(counter.model.constraints).vertices[0]
    validation = validate_model(replace(model, allowed=frozenset({0, 7})))
    superhedged = superhedge(payoff, model)
    records = [
        verify_multinomial_inequality(2, 2)[0],
        superhedged,
        superhedged.strategy,
        robust_price(payoff, model),
        verify_duality(payoff, model),
        detect_arbitrage(model),
        jy,
        jy.azema,
        jy.compensator,
        informed_compare(informed.model, informed.jumps, informed.payoffs)[0],
        is_semistatically_complete(vertex, model),
        replicate((F(0), F(1), F(0)), model.measure(["1/4", "1/2", "1/4"]), model),
        decomposition,
        decomposition.blocks[0],
        validation,
        validation.violations[0],
        model.constraints.rows[0],
        is_extreme(vertex, model.constraints)[1],
        enumerate_extreme_points(model.constraints),
        trinomial,
        solve_lp([1, 1], [[1, 1]], [1]),
        tree.nodes[0],
        extract_tree(counter_vertex, counter.model),
        conditions,
        conditions.leaf_checks[0],
    ]
    return {type(r).__name__: r for r in records}


RECORDS = _records()


def _hashable(value) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


def test_every_named_tuple_of_the_package_is_covered():
    found = {
        name
        for module in vars(semistatic).values()
        if inspect.ismodule(module) and module.__name__.startswith("semistatic.")
        for name, cls in vars(module).items()
        if inspect.isclass(cls) and issubclass(cls, tuple) and cls.__module__ == module.__name__
    }
    assert len(RECORDS) == 25
    assert set(RECORDS) == found


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_is_an_immutable_value(name):
    record = RECORDS[name]
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    assert record._replace() == record
    twin = copy.deepcopy(record)
    assert twin == record and twin is not record
    if all(map(_hashable, record)):
        assert hash(twin) == hash(record)
    else:
        assert name in {"InformedCompareReport", "Scenario"}  # each holds a dict
        with pytest.raises(TypeError):
            hash(record)


def test_tree_nodes_key_extract_trees_dict():
    # extract_tree keys its cells by TreeNode and drops a split leaf by equality
    glued = load_scenario(scenario_path("glued_two_vol"))
    vertex = enumerate_extreme_points(glued.model.constraints).vertices[0]
    tree = extract_tree(vertex, glued.model)
    assert isinstance(tree, AtomicTree)
    assert tree.nodes == (TreeNode((0, 1, 2, 3), 0), TreeNode((0, 1), 1), TreeNode((2, 3), 1))
    assert tree.parents == (None, 0, 0) and tree.leaf_indices == (1, 2)
    within = {node: i for i, node in enumerate(tree.nodes)}
    assert [within[TreeNode(tuple(node.cell), node.birth)] for node in tree.nodes] == [0, 1, 2]
    assert TreeNode((0, 1), 0) not in within
