"""Atomic trees: nested families of filtration atoms with birth times.

A node is an event together with the first time it becomes measurable.  A
tree is full when its leaves partition the space up to null sets and each
parent is still an atom one step before its children are born.  Extraction
rebuilds the tree from the single-jump blocks of the unhedgeable
decomposition, splitting one leaf per carried atom, and refuses (returning a
diagnostic instead of guessing) whenever the block structure cannot be aligned
with leaves or the price has already moved, which is exactly what happens in
jumpy models where completeness holds without any tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from . import linalg
from .errors import NotComplete, NotMeasurable
from .hedging import decompose_unhedgeable
from .model import FilteredModel, Measure, Payoff, condexp_groups
from .polytope import ConstraintSystem

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class TreeNode:
    cell: tuple[int, ...]  # outcome indices
    birth: int


@dataclass(frozen=True)
class AtomicTree:
    nodes: tuple[TreeNode, ...]

    def __init__(self, nodes: Iterable[TreeNode]):
        ordered = sorted(
            (TreeNode(tuple(sorted(n.cell)), n.birth) for n in nodes),
            key=lambda n: (n.birth, n.cell),
        )
        object.__setattr__(self, "nodes", tuple(ordered))

    def parent_index(self, i: int) -> int | None:
        cell = set(self.nodes[i].cell)
        best: int | None = None
        for j, other in enumerate(self.nodes):
            if j == i:
                continue
            candidate = set(other.cell)
            if cell < candidate:
                if best is None or candidate < set(self.nodes[best].cell):
                    best = j
        return best

    @property
    def leaf_indices(self) -> tuple[int, ...]:
        out = []
        for i, node in enumerate(self.nodes):
            cell = set(node.cell)
            if not any(j != i and set(other.cell) < cell for j, other in enumerate(self.nodes)):
                out.append(i)
        return tuple(out)

    @property
    def leaves(self) -> tuple[TreeNode, ...]:
        return tuple(self.nodes[i] for i in self.leaf_indices)

    @property
    def dim(self) -> int:
        return len(self.leaf_indices)

    def zeta(self, model: FilteredModel) -> tuple[int | None, ...]:
        """Per terminal cell, the birth time of the covering leaf."""
        out: list[int | None] = [None] * model.n_cells
        for leaf in self.leaves:
            covered = set(leaf.cell)
            for a, cell in enumerate(model.terminal_cells):
                if set(cell) <= covered:
                    out[a] = leaf.birth
        return tuple(out)

    def to_json(self, model: FilteredModel) -> dict:
        return {
            "nodes": [
                {
                    "cell": model.cell_label(node.cell),
                    "birth": node.birth,
                    "parent": self.parent_index(i),
                }
                for i, node in enumerate(self.nodes)
            ],
            "dim": self.dim,
        }


@dataclass(frozen=True)
class NoTree:
    reason: str

    def to_json(self, model: FilteredModel) -> dict:
        return {"tree": None, "reason": self.reason}


def _terminal_cells_within(model: FilteredModel, cell: Iterable[int]) -> list[int]:
    covered = set(cell)
    return [a for a, tc in enumerate(model.terminal_cells) if set(tc) <= covered]


def _mass(model: FilteredModel, measure: Measure, cell: Iterable[int]) -> Fraction:
    return sum((measure.weights[a] for a in _terminal_cells_within(model, cell)), ZERO)


def _is_terminal_measurable(model: FilteredModel, cell: Iterable[int]) -> bool:
    covered = set(cell)
    hit = [tc for tc in model.terminal_cells if covered.intersection(tc)]
    return all(set(tc) <= covered for tc in hit) and bool(covered)


def birth_time(cell: Iterable[int], model: FilteredModel) -> int:
    """First time index at which the event is a union of partition cells."""
    covered = set(cell)
    if not _is_terminal_measurable(model, covered):
        raise NotMeasurable("event is not measurable at the terminal date")
    for k, partition in enumerate(model.filtration.partitions):
        hit = [c for c in partition.cells if covered.intersection(c)]
        if all(set(c) <= covered for c in hit):
            return k
    raise AssertionError("terminal measurability guarantees a birth time")


def _is_atom(model: FilteredModel, measure: Measure, k: int, cell: Iterable[int]) -> bool:
    """Non-null atom of the time-k algebra under Q, read modulo null sets.

    The event must carry mass, meet exactly one charged P_k cell, and agree
    with that cell up to a null set; partial overlap with a charged cell would
    leave the event non-measurable at k even almost surely.
    """
    covered = set(cell)
    hits: list[int] = []
    leak = ZERO
    for c, group in enumerate(model.coarse_groups[k]):
        q_in = sum(
            (measure.weights[a] for a in group if set(model.terminal_cells[a]) <= covered), ZERO
        )
        q_total = sum((measure.weights[a] for a in group), ZERO)
        if q_in > 0:
            hits.append(c)
            leak = q_total - q_in
    return len(hits) == 1 and leak == 0


@dataclass(frozen=True)
class TreeViolation:
    code: str
    where: str
    message: str


@dataclass(frozen=True)
class TreeReport:
    violations: tuple[TreeViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "violations": [
                {"code": v.code, "where": v.where, "message": v.message} for v in self.violations
            ],
        }


def validate_atomic_tree(tree: AtomicTree, measure: Measure, model: FilteredModel) -> TreeReport:
    """Check the three defining properties of an atomic tree under Q."""
    bad: list[TreeViolation] = []
    for i, node in enumerate(tree.nodes):
        label = model.cell_label(node.cell)
        if not _is_terminal_measurable(model, node.cell):
            bad.append(TreeViolation("measurable", label, "node is not terminally measurable"))
            continue
        actual_birth = birth_time(node.cell, model)
        if actual_birth != node.birth:
            bad.append(
                TreeViolation("birth", label, f"stored birth {node.birth}, first measurable at {actual_birth}")
            )
        if _mass(model, measure, node.cell) == 0:
            bad.append(TreeViolation("non-null", label, "node has zero mass"))
        elif not _is_atom(model, measure, node.birth, node.cell):
            bad.append(TreeViolation("atom", label, f"node is not an atom at time {node.birth}"))
        for j, other in enumerate(tree.nodes):
            if node.birth < other.birth:
                a, b = set(node.cell), set(other.cell)
                if not (b <= a or not a.intersection(b)):
                    bad.append(
                        TreeViolation(
                            "nesting",
                            f"{label} / {model.cell_label(other.cell)}",
                            "later-born node neither nested nor disjoint",
                        )
                    )
            if i != j and set(other.cell) < set(node.cell):
                if _mass(model, measure, node.cell) - _mass(model, measure, other.cell) <= 0:
                    bad.append(
                        TreeViolation(
                            "mass-drop",
                            f"{label} / {model.cell_label(other.cell)}",
                            "no strict mass drop between nested nodes",
                        )
                    )
    return TreeReport(tuple(bad))


def is_full(tree: AtomicTree, measure: Measure, model: FilteredModel) -> bool:
    """Leaves partition the space mod null and parents are atoms just before births."""
    counts = [0] * model.n_cells
    for leaf in tree.leaves:
        for a in _terminal_cells_within(model, leaf.cell):
            counts[a] += 1
    for a, weight in enumerate(measure.weights):
        if weight > 0 and counts[a] != 1:
            return False
    for i in range(len(tree.nodes)):
        parent = tree.parent_index(i)
        if parent is None:
            continue
        child = tree.nodes[i]
        before = max(child.birth - 1, 0)
        if not _is_atom(model, measure, before, tree.nodes[parent].cell):
            return False
    return True


def sigma_tree_expectation(
    payoff: Sequence[Fraction], tree: AtomicTree, measure: Measure, model: FilteredModel
) -> Payoff:
    """Leafwise conditional expectation: on each charged leaf, the Q-average; null leaves give 0."""
    leaves = [_terminal_cells_within(model, leaf.cell) for leaf in tree.leaves]
    return condexp_groups(payoff, leaves, measure.weights)


@dataclass(frozen=True)
class LeafCheck:
    cell: tuple[int, ...]
    birth: int
    rank: int
    required: int

    @property
    def ok(self) -> bool:
        return self.rank == self.required


@dataclass(frozen=True)
class TheoremConditionsReport:
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

    def to_json(self, model: FilteredModel) -> dict:
        return {
            "leaves": [
                {
                    "cell": model.cell_label(c.cell),
                    "birth": c.birth,
                    "rank": c.rank,
                    "required": c.required,
                    "ok": c.ok,
                }
                for c in self.leaf_checks
            ],
            "claims_rank": self.claims_rank,
            "claims_required": self.claims_required,
            "claims_ok": self.claims_ok,
            "price_constant_ok": self.price_constant_ok,
            "ok": self.ok,
        }


def check_theorem_conditions(
    tree: AtomicTree, measure: Measure, model: FilteredModel
) -> TheoremConditionsReport:
    """The three finite conditions tying a full tree to completeness.

    (i) dynamic trading from each leaf's birth spans everything on the leaf;
    (ii) the leafwise claim expectations contribute exactly (number of charged
    leaves - 1) independent directions; (iii) the price is still at its start
    value through each leaf's birth time on the support.
    """
    leaf_checks: list[LeafCheck] = []
    charged_leaves = 0
    for leaf in tree.leaves:
        atoms = [a for a in _terminal_cells_within(model, leaf.cell) if measure.weights[a] > 0]
        if not atoms:
            continue
        charged_leaves += 1
        charged = set(atoms)
        vectors: list[list[Fraction]] = [[ONE] * len(atoms)]
        for (_, k, c, _), vec in model.gains:
            if k > leaf.birth and not charged.isdisjoint(model.coarse_groups[k - 1][c]):
                vectors.append([vec[a] for a in atoms])
        leaf_checks.append(LeafCheck(leaf.cell, leaf.birth, linalg.rank(vectors), len(atoms)))

    projections = [
        sigma_tree_expectation(model.claim_vector(i), tree, measure, model)
        for i in range(len(model.claims))
    ]
    support = measure.support
    claims_rank = linalg.rank([[v[a] for a in support] for v in projections]) if projections else 0

    zeta = tree.zeta(model)

    def price_constant() -> bool:
        for a in support:
            if zeta[a] is None:
                return False
            for l in range(zeta[a] + 1):
                if any(model.price(j, l, a) != 0 for j in range(model.prices.assets)):
                    return False
        return True

    return TheoremConditionsReport(tuple(leaf_checks), claims_rank, charged_leaves - 1, price_constant())


def extract_tree(
    measure: Measure, model: FilteredModel, cs: ConstraintSystem | None = None
) -> AtomicTree | NoTree:
    """Rebuild the full atomic tree from the unhedgeable jump blocks.

    Each block must be carried by exactly one current leaf (up to null sets)
    on which the price has not yet moved; the leaf then splits into the
    charged next-period cells.  Any misalignment is reported as NoTree rather
    than repaired, since with a jumping price no tree needs to exist.
    """
    try:
        decomposition = decompose_unhedgeable(measure, model, cs)
    except NotComplete:
        raise NotComplete("tree extraction requires semi-static completeness") from None
    weights = measure.weights

    def charged_of(cell: Iterable[int]) -> frozenset[int]:
        return frozenset(a for a in _terminal_cells_within(model, cell) if weights[a] > 0)

    blocks = list(decomposition.blocks)
    nodes: list[TreeNode] = []
    if blocks and blocks[0].time == 0:
        block0 = blocks.pop(0)
        charged_p0 = [c for c, grp in enumerate(model.coarse_groups[0]) if any(weights[a] > 0 for a in grp)]
        rest = [c for c in charged_p0 if c not in set(block0.atom_cells)]
        if len(rest) > 1:
            return NoTree("time-zero jump block leaves a remainder that is not an atom")
        for c in sorted(set(block0.atom_cells) | set(rest)):
            nodes.append(TreeNode(model.filtration.partitions[0].cells[c], 0))
    else:
        nodes.append(TreeNode(tuple(range(model.n_outcomes)), 0))

    leaves: list[TreeNode] = list(nodes)
    for block in blocks:
        k = block.time
        prev_cells = model.filtration.partitions[k - 1].cells
        for c in block.atom_cells:
            carrier = charged_of(prev_cells[c])
            hits = [leaf for leaf in leaves if charged_of(leaf.cell) & carrier]
            if len(hits) != 1:
                return NoTree(f"jump block at k={k} straddles the current leaves")
            leaf = hits[0]
            if charged_of(leaf.cell) != carrier:
                return NoTree(
                    f"jump block at k={k} is carried by a proper sub-event of a leaf"
                )
            moved = any(
                model.price(j, l, a) != 0
                for a in charged_of(leaf.cell)
                for l in range(k + 1)
                for j in range(model.prices.assets)
            )
            if moved:
                return NoTree(f"price moves on a leaf before its branch time k={k}")
            children = [
                cc
                for cc, group in enumerate(model.coarse_groups[k])
                if any(weights[a] > 0 for a in group)
                and set(model.filtration.partitions[k].cells[cc]) <= set(prev_cells[c])
            ]
            if len(children) < 2:
                return NoTree(f"jump block at k={k} does not split its carrying atom")
            new_nodes = [TreeNode(model.filtration.partitions[k].cells[cc], k) for cc in children]
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

    gains = [vec for _, vec in model.gains]
    support = measure.support
    for i in range(len(model.claims)):
        psi = model.claim_vector(i)
        target = sigma_tree_expectation(psi, tree, measure, model)
        rows = [[g[a] for g in gains] for a in support]
        rhs = [psi[a] - target[a] for a in support]
        if linalg.solve(rows, rhs) is None:
            return NoTree(f"claim {i} residual is not dynamically replicable over the tree")

    conditions = check_theorem_conditions(tree, measure, model)
    if not conditions.ok:
        return NoTree("constructed tree fails the completeness characterization conditions")
    return tree
