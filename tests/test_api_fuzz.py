"""Input-contract fuzzing of the library.

``CALLS`` holds every public callable that takes a model-shaped argument: a
valid call on a seeded random model, and the slots of that call that can be
corrupted.  A slot is an argument vector: a payoff, a measure's weights,
holdings, a jump's times or marks, an event, a set of allowed cells.
Hypothesis draws a model, an entry, a slot and a corruption: drop one entry,
add one, put 0.5 or True in an entry, or, where the entries are indices, put
-1 or the bound n in one.  The valid call must return; the corrupted one
must raise a ``SemistaticError``, or the ``TypeError`` of the model's vector
check ("... must be int or Fraction").  A returned result, or any other
exception, fails.  ``tests/test_cli_fuzz.py`` does the same for the command
line.
"""

import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semistatic
from semistatic import (
    AtomicTree,
    Measure,
    SemiStaticStrategy,
    SingleJump,
    TreeNode,
    azema,
    check_theorem_conditions,
    compensator,
    decompose_unhedgeable,
    enlarge,
    enumerate_extreme_points,
    extract_tree,
    filtrations_coincide,
    hedging_span,
    informed_compare,
    is_extreme,
    is_full,
    is_semistatically_complete,
    jeulin_yor,
    member,
    replicate,
    robust_price,
    strategy_payoff,
    superhedge,
    validate_atomic_tree,
    verify_duality,
)
from semistatic.errors import SemistaticError
from semistatic.hedging import int_strategy_columns
from semistatic.sampling import random_model, random_payoff

F = Fraction

ENTRIES = ("drop", "add", 0.5, True)  # an exact vector of a fixed length
LENGTH = ("drop", "add")
EXACT = (0.5, True)
INDEX = (-1, "n", True, 0.5)
EVENT = (-1, "n", 0.5)  # True == 1 names an outcome by value, so it is no corruption of an event
SLOTS = {
    "payoff": ENTRIES,
    "weights": ENTRIES,
    "fine_weights": ENTRIES,
    "static": ENTRIES,
    "holdings": ENTRIES,
    "coordinates": ENTRIES,
    "mark": ENTRIES,
    "cash": EXACT,
    "tau": LENGTH + INDEX,
    "allowed": INDEX,
    "event": EVENT,
}
MEASURES = {"weights", "fine_weights"}  # dropping an entry folds its weight into the first, so they stay measures


def context(seed: int) -> dict:
    """Valid arguments on one random model with at least two cells and one claim, and each index's bound n."""
    rng = random.Random(seed)
    while True:
        model, _ = random_model(rng, n_claims=rng.randint(1, 2))
        if model.n_cells >= 2:  # a one-cell measure cannot lose a weight and stay a measure
            break
    vertex = enumerate_extreme_points(model.constraints).vertices[0]
    tau = [rng.randint(0, model.horizon) for _ in range(model.n_outcomes)]  # every time finite, so each can move
    mark = [F(rng.randint(1, 2)) for _ in range(model.n_outcomes)]
    enlarged = enlarge(model, [SingleJump(tuple(tau), tuple(mark))])
    n_fine = enlarged.model.n_cells
    return {
        "model": model,
        "enlarged": enlarged,
        "payoff": list(random_payoff(rng, model)),
        "weights": list(vertex.weights),  # a vertex: calibrated, extreme and so complete
        "fine_weights": [F(1, n_fine)] * n_fine,
        "static": [F(1)] * len(model.int_claims),
        "holdings": [F(1)] * len(model.int_gains),
        "coordinates": [F(1)] * len(int_strategy_columns(model)),
        "mark": mark,
        "cash": F(1),
        "tau": tau,
        "allowed": sorted(model.allowed),
        "event": list(range(model.n_outcomes)),
        "bounds": {
            "tau": model.horizon + 1,
            "allowed": model.n_cells,
            "event": model.n_outcomes,
        },
    }


CONTEXTS = [context(seed) for seed in range(6)]


def corrupt(args: dict, slot: str, how) -> dict:
    value = args[slot]
    bad = args["bounds"][slot] if how == "n" else how
    if not isinstance(value, list):
        corrupted = bad
    elif how == "drop":
        corrupted = [value[0] + value[-1], *value[1:-1]] if slot in MEASURES else value[:-1]
    elif how == "add":
        corrupted = value + [F(0)]
    else:
        corrupted = [bad, *value[1:]]
    return {**args, slot: corrupted}


def jump(a):
    return SingleJump(tuple(a["tau"]), tuple(a["mark"]))


def tree(a):
    return AtomicTree([TreeNode(tuple(a["event"]), 0)])


def strategy(a):
    return SemiStaticStrategy(a["cash"], tuple(a["static"]), tuple(a["holdings"]))


# name -> (valid call on the arguments, its slots); a slot is a SLOTS key, or (key, corruptions) to narrow them
CALLS = {
    # a Measure has no model to fix its length; FilteredModel.measure parses weights with rat, as from "p/q" text
    "Measure": (lambda a: Measure(a["weights"]), [("weights", EXACT)]),
    "Measure.expectation": (lambda a: Measure(a["weights"]).expectation(a["payoff"]), ["payoff"]),
    "FilteredModel.measure": (lambda a: a["model"].measure(a["weights"]), [("weights", LENGTH)]),
    "FilteredModel.cell_label": (lambda a: a["model"].cell_label(a["event"]), ["event"]),
    "ConstraintSystem": (lambda a: replace(a["model"].constraints, allowed=frozenset(a["allowed"])), ["allowed"]),
    "member": (lambda a: member(Measure(a["weights"]), a["model"].constraints), ["weights"]),
    "is_extreme": (lambda a: is_extreme(Measure(a["weights"]), a["model"].constraints), ["weights"]),
    "enumerate_extreme_points": (
        lambda a: enumerate_extreme_points(replace(a["model"].constraints, allowed=frozenset(a["allowed"]))),
        ["allowed"],
    ),
    "hedging_span": (lambda a: hedging_span(a["model"], Measure(a["weights"])), ["weights"]),
    "is_semistatically_complete": (
        lambda a: is_semistatically_complete(Measure(a["weights"]), a["model"]),
        ["weights"],
    ),
    "replicate": (lambda a: replicate(a["payoff"], Measure(a["weights"]), a["model"]), ["payoff", "weights"]),
    "decompose_unhedgeable": (lambda a: decompose_unhedgeable(Measure(a["weights"]), a["model"]), ["weights"]),
    "SemiStaticStrategy.from_coordinates": (
        lambda a: SemiStaticStrategy.from_coordinates(a["coordinates"], a["model"]),
        ["coordinates"],
    ),
    "strategy_payoff": (lambda a: strategy_payoff(strategy(a), a["model"]), ["cash", "static", "holdings"]),
    "superhedge": (lambda a: superhedge(a["payoff"], a["model"]), ["payoff"]),
    "robust_price": (lambda a: robust_price(a["payoff"], a["model"]), ["payoff"]),
    "verify_duality": (lambda a: verify_duality(a["payoff"], a["model"]), ["payoff"]),
    # a jump's times are checked against the model it is used with, not by the record itself
    "SingleJump": (jump, [("tau", LENGTH), "mark"]),
    "enlarge": (lambda a: enlarge(a["model"], [jump(a)]), ["tau", "mark"]),
    "EnlargedModel.on_cells": (lambda a: a["enlarged"].on_cells(jump(a)), ["tau", "mark"]),
    "EnlargedModel.expand": (lambda a: a["enlarged"].expand(a["payoff"]), ["payoff"]),
    "azema": (lambda a: azema(Measure(a["fine_weights"]), jump(a), a["enlarged"]), ["fine_weights", "tau", "mark"]),
    "compensator": (
        lambda a: compensator(Measure(a["fine_weights"]), jump(a), a["enlarged"]),
        ["fine_weights", "tau", "mark"],
    ),
    "jeulin_yor": (
        lambda a: jeulin_yor(Measure(a["fine_weights"]), jump(a), a["enlarged"]),
        ["fine_weights", "tau", "mark"],
    ),
    "filtrations_coincide": (
        lambda a: filtrations_coincide(Measure(a["fine_weights"]), a["enlarged"]),
        ["fine_weights"],
    ),
    "informed_compare": (
        lambda a: informed_compare(a["model"], [jump(a)], {"x": a["payoff"]}),
        ["tau", "mark", "payoff"],
    ),
    "validate_atomic_tree": (
        lambda a: validate_atomic_tree(tree(a), Measure(a["weights"]), a["model"]),
        ["event", "weights"],
    ),
    "is_full": (lambda a: is_full(tree(a), Measure(a["weights"]), a["model"]), ["event", "weights"]),
    "check_theorem_conditions": (
        lambda a: check_theorem_conditions(tree(a), Measure(a["weights"]), a["model"]),
        ["event", "weights"],
    ),
    "extract_tree": (lambda a: extract_tree(Measure(a["weights"]), a["model"]), ["weights"]),
}

# public callables with no model-shaped argument: plain numbers, file input, a partition's own cells, the model alone
NO_MODEL_ARGUMENT = (
    "build_constraints",
    "detect_arbitrage",
    "natural_filtration",
    "validate_model",
    "double_factorial",
    "multinomial_lhs",
    "verify_multinomial_inequality",
    "load_scenario",
    "parse_scenario",
    "Scenario",
    "ScenarioError",
    "Partition",
)
# records the engine returns, and the tree records, which the functions above check where they take them
RECORDS = (
    "ArbitrageReport",
    "AtomicTree",
    "AzemaResult",
    "CompensatorResult",
    "CompletenessReport",
    "DualityReport",
    "InformedCompareReport",
    "JeulinYorResult",
    "JumpBlock",
    "NoTree",
    "NotReplicable",
    "RobustPriceResult",
    "SuperhedgeResult",
    "TreeNode",
    "UnhedgeableDecomposition",
    "VertexSet",
)
CASES = [
    (name, slot, how)
    for name, (_, slots) in CALLS.items()
    for slot, hows in ((s, SLOTS[s]) if isinstance(s, str) else s for s in slots)
    for how in hows
]


@settings(max_examples=500, deadline=None)
@given(index=st.integers(0, len(CONTEXTS) - 1), case=st.sampled_from(CASES))
def test_a_corrupted_argument_raises_a_package_error(index, case):
    name, slot, how = case
    call, _ = CALLS[name]
    call(CONTEXTS[index])
    with pytest.raises((SemistaticError, TypeError)) as caught:
        call(corrupt(CONTEXTS[index], slot, how))
    assert isinstance(caught.value, SemistaticError) or "must be int or Fraction" in str(caught.value)


def test_every_public_callable_is_fuzzed_or_listed():
    public = {
        name
        for name, obj in vars(semistatic).items()
        if callable(obj) and getattr(obj, "__module__", "").startswith("semistatic")
    }
    listed = {name.split(".")[0] for name in CALLS} | set(NO_MODEL_ARGUMENT) | set(RECORDS)
    assert sorted(public - listed) == []
    assert sorted(listed - public) == []
