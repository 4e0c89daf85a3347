"""JSON decoders for reports, the inverses of the engine's ``to_json`` methods.

The engine only writes these reports; the tests read them back to check that
a report carries everything needed to rebuild the object it describes.
"""

from semistatic.hedging import SemiStaticStrategy
from semistatic.model import FilteredModel, Measure
from semistatic.rationals import rat
from semistatic.scenario import ScenarioError
from semistatic.tree import AtomicTree, TreeNode


def measure_from_json(data: dict, model: FilteredModel) -> Measure:
    return model.measure([rat(w) for w in data["weights"]])


def strategy_from_json(data: dict, model: FilteredModel) -> SemiStaticStrategy:
    column = {
        (k, model.cell_label(model.partitions[k - 1].cells[c]), j): i
        for i, ((_, k, c, j), _, _) in enumerate(model.int_gains)
    }
    dynamic = [rat(0)] * len(model.int_gains)
    for entry in data.get("dynamic", []):
        key = (int(entry["k"]), entry["cell"], int(entry["asset"]))
        if key not in column:
            raise ScenarioError("no dynamic holding at k={}, cell {!r}, asset {}".format(*key))
        dynamic[column[key]] = rat(entry["value"])
    return SemiStaticStrategy(
        cash=rat(data["cash"]),
        static=tuple(rat(a) for a in data.get("static", [])),
        dynamic=tuple(dynamic),
    )


def tree_from_json(data: dict, model: FilteredModel) -> AtomicTree:
    label_index = {w: i for i, w in enumerate(model.outcomes)}
    nodes = []
    for node in data["nodes"]:
        cell = tuple(sorted(label_index[w] for w in node["cell"].split("|")))
        nodes.append(TreeNode(cell, int(node["birth"])))
    return AtomicTree(nodes)
