"""The one-outcome-per-terminal-cell paths against the general ones, on the benchmark's own models.

Every model the benchmark runs (the bundled scenarios and the seed-7
``certify-corpus`` and ``duality-corpus`` files) has one outcome per terminal
cell, so the cell-table code it times is the short path for that case; the
general path runs only on test models with coarse cells.  Here both run on
each benchmark model and must agree.
"""

import json
from fractions import Fraction

import pytest

import floor
from semistatic.model import groups_of
from semistatic.rationals import rat
from semistatic.scenario import _quotient, load_scenario
from tests import reference
from tests.conftest import SCENARIOS


@pytest.fixture(scope="module")
def benchmark_scenarios(tmp_path_factory):
    paths = sorted(str(path) for path in SCENARIOS.glob("*.json"))
    for workload in floor.CORPORA:
        paths += floor.corpus_files(workload, 7, tmp_path_factory.mktemp(workload))
    with_data = []
    for path in paths:
        with open(path, encoding="utf-8") as stream:
            with_data.append((json.load(stream), load_scenario(path)))
    return with_data


def test_every_benchmark_model_has_one_outcome_per_terminal_cell(benchmark_scenarios):
    assert len(benchmark_scenarios) == 7 + 308 + 330
    for _, scenario in benchmark_scenarios:
        model = scenario.model
        assert model.terminal_cells == tuple((w,) for w in range(model.n_outcomes))


def test_coarse_groups_equal_the_groups_of_the_coarse_cells(benchmark_scenarios):
    for _, scenario in benchmark_scenarios:
        model = scenario.model
        assert model.coarse_groups == groups_of(model.coarse_cell_of, model.partitions)


def test_terminal_labels_equal_the_cell_labels(benchmark_scenarios):
    for _, scenario in benchmark_scenarios:
        model = scenario.model
        assert model.terminal_labels == tuple(map(model.cell_label, model.terminal_cells))


def test_int_gains_equal_the_gains_on_each_cells_representative(benchmark_scenarios):
    for _, scenario in benchmark_scenarios:
        model = scenario.model
        int_gains = [(label, tuple(Fraction(x, scale) for x in row)) for label, row, scale in model.int_gains]
        assert int_gains == list(reference.gains(model))


def test_the_quotient_on_the_singleton_cells_equals_the_quotient_on_the_outcomes(benchmark_scenarios):
    vectors = 0
    for data, scenario in benchmark_scenarios:
        cells, n = scenario.model.terminal_cells, scenario.model.n_outcomes
        named = [("claim", i, claim) for i, claim in enumerate(data.get("claims", []))]
        named += [("payoff", name, vec) for name, vec in data.get("payoffs", {}).items()]
        for kind, key, tokens in named:
            values = tuple(map(rat, tokens))
            assert _quotient(values, n, cells, kind, key) == _quotient(values, n, None, kind, key)
            vectors += 1
    assert vectors > 1000
