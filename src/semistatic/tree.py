"""Atomic trees: nested families of filtration atoms with birth times.

A node is an event together with the first time it becomes measurable.  A
tree is full when its leaves partition the space up to null sets and each
parent is still an atom one step before its children are born.  Extraction
rebuilds the tree from the single-jump blocks of the unhedgeable
decomposition, splitting one leaf per carried atom, and refuses (returning a
diagnostic instead of guessing) whenever the block structure cannot be aligned
with leaves or the price has already moved, which is exactly what happens in
jumpy models where completeness holds without any tree.  Its tree is certified
by the axioms, fullness and the theorem's three conditions alone.  Extraction
checks that the measure is calibrated through the decomposition, against
``model.constraints``; the validators and the theorem conditions take the
measure as given.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from . import linalg
from .errors import NotComplete, ShapeError
from .hedging import decompose_unhedgeable
from .model import (
    FilteredModel, Measure, ValidationReport, Violation, _check_vector, cached_property, condexp_groups
)
from .rationals import common_denominator


class TreeNode(NamedTuple):
    cell: tuple[int, ...]  # outcome indices
    birth: int


@dataclass(frozen=True)
class AtomicTree:
    """Nodes (cell, birth) ordered by birth, then cell, with parents and leaves derived by inclusion."""

    nodes: tuple[TreeNode, ...]

    def __init__(self, nodes: Iterable[TreeNode]):
        ordered = sorted(
            (TreeNode(tuple(sorted(n.cell)), n.birth) for n in nodes),
            key=lambda n: (n.birth, n.cell),
        )
        object.__setattr__(self, "nodes", tuple(ordered))

    @cached_property
    def parents(self) -> tuple[int | None, ...]:
        """Per node, its smallest strict superset (the first found where supersets do not nest), or None."""
        cells = [set(node.cell) for node in self.nodes]
        out: list[int | None] = []
        for cell in cells:
            best: int | None = None
            for j, other in enumerate(cells):
                if cell < other and (best is None or other < cells[best]):
                    best = j
            out.append(best)
        return tuple(out)

    @cached_property
    def leaf_indices(self) -> tuple[int, ...]:
        """Nodes with no other node strictly inside them."""
        cells = [set(node.cell) for node in self.nodes]
        return tuple(i for i, cell in enumerate(cells) if not any(other < cell for other in cells))

    @property
    def leaves(self) -> tuple[TreeNode, ...]:
        return tuple(self.nodes[i] for i in self.leaf_indices)

    @property
    def dim(self) -> int:
        return len(self.leaf_indices)

    def to_json(self, model: FilteredModel) -> dict:
        nodes = [
            {"cell": model.cell_label(node.cell), "birth": node.birth, "parent": parent}
            for node, parent in zip(self.nodes, self.parents)
        ]
        return {"nodes": nodes, "dim": self.dim}


class NoTree(NamedTuple):
    reason: str

    def to_json(self, model: FilteredModel) -> dict:
        return {"tree": None, "reason": self.reason}


def _cells_within(model: FilteredModel, event: Iterable[int]) -> tuple[tuple[int, ...], bool]:
    """The terminal cells inside the event, in index order, and whether the event is their union.

    An outcome outside the model lies in no cell, so an event naming one is not their union.
    """
    covered = set(event)
    cell_of = model.terminal_cell_of_outcome
    hit = sorted({cell_of[w] for w in covered if w in cell_of})
    inside = tuple(a for a in hit if covered.issuperset(model.terminal_cells[a]))
    return inside, sum(len(model.terminal_cells[a]) for a in inside) == len(covered)


def _check_tree(tree: AtomicTree, measure: Measure, model: FilteredModel) -> list[tuple[tuple[int, ...], bool]]:
    """Each node's ``_cells_within``; ShapeError on a node naming an unknown outcome or on weights of wrong size."""
    for node in tree.nodes:
        unknown = [w for w in node.cell if w not in model.terminal_cell_of_outcome]
        if unknown:
            raise ShapeError(f"tree node names outcome {unknown[0]}, which is not in the model")
    _check_vector("measure weights", measure.numerators, model.n_cells)
    return [_cells_within(model, node.cell) for node in tree.nodes]


def _birth(model: FilteredModel, cells: Sequence[int]) -> int:
    """Birth time of a union of terminal cells: the first P_k whose cells meeting it hold it exactly (P_K does)."""
    return next(
        k
        for k, cell_of in enumerate(model.coarse_cell_of)
        if sum(len(model.coarse_groups[k][c]) for c in {cell_of[a] for a in cells}) == len(cells)
    )


def _is_atom(model: FilteredModel, measure: Measure, k: int, cells: Sequence[int]) -> bool:
    """Non-null atom of the time-k algebra under Q, read modulo null sets; the event is a union of terminal cells.

    The event must carry mass, meet exactly one charged P_k cell, and agree
    with that cell up to a null set; partial overlap with a charged cell would
    leave the event non-measurable at k even almost surely.
    """
    numerators = measure.numerators
    hits = {model.coarse_cell_of[k][a] for a in cells if numerators[a]}
    if len(hits) != 1:
        return False
    group = model.coarse_groups[k][hits.pop()]
    return sum([numerators[a] for a in group]) == sum([numerators[a] for a in cells])


def _price_moved(model: FilteredModel, cells: Iterable[int], k: int) -> bool:
    """Some price is nonzero on one of these terminal cells at a time up to k."""
    return any(
        path[l][model.terminal_cells[a][0]] != 0 for a in cells for l in range(k + 1) for path in model.prices
    )


def validate_atomic_tree(tree: AtomicTree, measure: Measure, model: FilteredModel) -> ValidationReport:
    """Check the three defining properties of an atomic tree under Q.

    Raises ShapeError when a node names an outcome outside the model.
    """
    lookups = _check_tree(tree, measure, model)
    bad: list[Violation] = []
    cells = [set(node.cell) for node in tree.nodes]
    masses = [sum([measure.numerators[a] for a in within]) for within, _ in lookups]
    for i, node in enumerate(tree.nodes):
        label = model.cell_label(node.cell)
        within, exact = lookups[i]
        if not (within and exact):
            bad.append(Violation("measurable", label, "node is not terminally measurable"))
            continue
        actual_birth = _birth(model, within)
        if actual_birth != node.birth:
            bad.append(Violation("birth", label, f"stored birth {node.birth}, first measurable at {actual_birth}"))
        if masses[i] == 0:
            bad.append(Violation("non-null", label, "node has zero mass"))
        elif not _is_atom(model, measure, node.birth, within):
            bad.append(Violation("atom", label, f"node is not an atom at time {node.birth}"))
        for j, other in enumerate(tree.nodes):
            if node.birth < other.birth and not (cells[j] <= cells[i] or cells[i].isdisjoint(cells[j])):
                pair = f"{label} / {model.cell_label(other.cell)}"
                bad.append(Violation("nesting", pair, "later-born node neither nested nor disjoint"))
            if cells[j] < cells[i] and masses[i] == masses[j]:  # a sub-node's mass is at most its node's
                pair = f"{label} / {model.cell_label(other.cell)}"
                bad.append(Violation("mass-drop", pair, "no strict mass drop between nested nodes"))
    return ValidationReport(tuple(bad))


def is_full(tree: AtomicTree, measure: Measure, model: FilteredModel) -> bool:
    """Leaves partition the space mod null and parents are atoms just before births."""
    lookups = _check_tree(tree, measure, model)
    counts = [0] * model.n_cells
    for i in tree.leaf_indices:
        for a in lookups[i][0]:
            counts[a] += 1
    if any(counts[a] != 1 for a in measure.support):
        return False
    return all(
        _is_atom(model, measure, max(child.birth - 1, 0), lookups[parent][0])
        for child, parent in zip(tree.nodes, tree.parents)
        if parent is not None
    )


class LeafCheck(NamedTuple):
    cell: tuple[int, ...]
    birth: int
    rank: int
    required: int

    @property
    def ok(self) -> bool:
        return self.rank == self.required


class TheoremConditionsReport(NamedTuple):
    leaf_checks: tuple[LeafCheck, ...]
    claims_rank: int
    claims_required: int
    price_constant_ok: bool

    @property
    def leaves_ok(self) -> bool:
        return all(c.ok for c in self.leaf_checks)

    @property
    def claims_ok(self) -> bool:
        return self.claims_rank == self.claims_required

    @property
    def ok(self) -> bool:
        return self.leaves_ok and self.claims_ok and self.price_constant_ok


def check_theorem_conditions(tree: AtomicTree, measure: Measure, model: FilteredModel) -> TheoremConditionsReport:
    """The three finite conditions tying a full tree to completeness.

    (i) dynamic trading from each leaf's birth spans everything on the leaf;
    (ii) the leafwise claim expectations contribute exactly (number of charged
    leaves - 1) independent directions; (iii) the price is still at its start
    value through each leaf's birth time on the support.

    On a full tree under a calibrated measure, (i) makes each claim's residual
    (claim minus its leafwise mean) a sum of gains, so extraction has no residual
    check.  On a charged leaf, (i) puts it in the span of 1 and the gain rows on
    P_{k-1} cells with k past the leaf's birth.  Those cells lie inside the leaf,
    which is measurable at its birth, so under the calibrated measure each row
    has mean 0 on the leaf, as the residual has, and 1 drops out.  Summed over
    the leaves, which cover the support, that is the residual.
    """
    lookups = _check_tree(tree, measure, model)
    leaves = [lookups[i][0] for i in tree.leaf_indices]
    numerators = measure.numerators
    zeta: dict[int, int] = {}  # per terminal cell of a leaf, the leaf's birth
    leaf_checks: list[LeafCheck] = []
    for leaf, within in zip(tree.leaves, leaves):
        zeta.update(dict.fromkeys(within, leaf.birth))
        atoms = [a for a in within if numerators[a]]
        if not atoms:
            continue
        on_leaf = set(atoms)
        vectors = [[1] * len(atoms)]
        for (_, k, c, _), row, _ in model.int_gains:
            if k > leaf.birth and not on_leaf.isdisjoint(model.coarse_groups[k - 1][c]):
                vectors.append([row[a] for a in atoms])
        leaf_checks.append(LeafCheck(leaf.cell, leaf.birth, linalg.rank(vectors), len(atoms)))

    means = [condexp_groups(row, leaves, numerators) for row, _ in model.int_claims]  # leafwise, per claim
    claims_rank = linalg.rank([common_denominator([mean[a] for a in measure.support])[0] for mean in means])
    price_constant = all(a in zeta and not _price_moved(model, (a,), zeta[a]) for a in measure.support)
    return TheoremConditionsReport(tuple(leaf_checks), claims_rank, len(leaf_checks) - 1, price_constant)


def extract_tree(measure: Measure, model: FilteredModel) -> AtomicTree | NoTree:
    """Rebuild the full atomic tree from the unhedgeable jump blocks.

    Each block must be carried by exactly one current leaf (up to null sets)
    on which the price has not yet moved; the leaf then splits into the
    charged next-period cells.  Any misalignment is reported as NoTree rather
    than repaired, since with a jumping price no tree needs to exist.  The
    tree built must pass ``validate_atomic_tree``, ``is_full`` and
    ``check_theorem_conditions``.
    """
    try:
        decomposition = decompose_unhedgeable(measure, model)
    except NotComplete:
        raise NotComplete("tree extraction requires semi-static completeness") from None
    support = measure.support
    charged = set(support)
    blocks = list(decomposition.blocks)
    # every node built is a partition cell: ``within`` maps it to that cell's group of terminal cells
    if blocks and blocks[0].time == 0:
        carried = set(blocks.pop(0).atom_cells)
        rest = {model.coarse_cell_of[0][a] for a in support} - carried
        if len(rest) > 1:
            return NoTree("time-zero jump block leaves a remainder that is not an atom")
        within = {TreeNode(model.partitions[0].cells[c], 0): model.coarse_groups[0][c] for c in sorted(carried | rest)}
    else:
        within = {TreeNode(tuple(range(model.n_outcomes)), 0): tuple(range(model.n_cells))}

    leaves: list[TreeNode] = list(within)
    for block in blocks:
        k = block.time
        for c in block.atom_cells:
            carrier = charged.intersection(model.coarse_groups[k - 1][c])
            hits = [leaf for leaf in leaves if carrier.intersection(within[leaf])]
            if len(hits) != 1:
                return NoTree(f"jump block at k={k} straddles the current leaves")
            leaf = hits[0]
            if charged.intersection(within[leaf]) != carrier:
                return NoTree(
                    f"jump block at k={k} is carried by a proper sub-event of a leaf"
                )
            if _price_moved(model, carrier, k):
                return NoTree(f"price moves on a leaf before its branch time k={k}")
            children = sorted({model.coarse_cell_of[k][a] for a in carrier})
            if len(children) < 2:
                return NoTree(f"jump block at k={k} does not split its carrying atom")
            new_nodes = [TreeNode(model.partitions[k].cells[cc], k) for cc in children]
            within.update(zip(new_nodes, [model.coarse_groups[k][cc] for cc in children]))
            leaves.remove(leaf)
            leaves.extend(new_nodes)

    tree = AtomicTree(within)
    report = validate_atomic_tree(tree, measure, model)
    if not report.ok:
        first = report.violations[0]
        return NoTree(f"constructed nodes violate the tree axioms: {first.code} at {first.where}")
    if not is_full(tree, measure, model):
        return NoTree("constructed tree is not full")
    if not check_theorem_conditions(tree, measure, model).ok:
        return NoTree("constructed tree fails the completeness characterization conditions")
    return tree
