"""JSON decoders for reports, the inverses of the engine's ``to_json`` methods.

The engine only writes these reports; the tests read them back to check that
a report carries everything needed to rebuild the object it describes.
"""

from semistatic.hedging import SemiStaticStrategy, dynamic_holdings
from semistatic.model import FilteredModel, Measure
from semistatic.rationals import rat
from semistatic.scenario import ScenarioError
from semistatic.tree import AtomicTree, TreeNode


def measure_from_json(data: dict, model: FilteredModel) -> Measure:
    return model.measure([rat(w) for w in data["weights"]])


def strategy_from_json(data: dict, model: FilteredModel) -> SemiStaticStrategy:
    holdings = {}
    for entry in data.get("dynamic", []):
        k, j, label = int(entry["k"]), int(entry["asset"]), entry["cell"]
        if not (1 <= k <= model.horizon and 0 <= j < model.prices.assets):
            raise ScenarioError(f"no dynamic holding at k={k}, asset {j}")
        cells = model.filtration.partitions[k - 1].cells
        c = next((i for i, cell in enumerate(cells) if model.cell_label(cell) == label), None)
        if c is None:
            raise ScenarioError(f"unknown cell label {label!r} at k={k}")
        holdings[k, c, j] = rat(entry["value"])
    return SemiStaticStrategy(
        cash=rat(data["cash"]),
        static=tuple(rat(a) for a in data.get("static", [])),
        dynamic=dynamic_holdings(holdings, model),
    )


def tree_from_json(data: dict, model: FilteredModel) -> AtomicTree:
    label_index = {w: i for i, w in enumerate(model.outcomes)}
    nodes = []
    for node in data["nodes"]:
        cell = tuple(sorted(label_index[w] for w in node["cell"].split("|")))
        nodes.append(TreeNode(cell, int(node["birth"])))
    return AtomicTree(nodes)
