"""Progressive enlargement with single-jump processes.

The informed filtration G is the natural filtration of the base cells and the
jump processes ``mark * 1_{tau <= k}`` (``enlarge`` gives the induction);
initial enlargement with a random variable is the special case tau = 0 on
{mark > 0}.  Measures for the enlarged market live on the cells of G_K, and
each of those lies in one base P_k cell at every time k: the cached tables
``base_cell_of`` and ``base_groups`` of an ``EnlargedModel`` carry every
comparison with the base market.  The Azema supermartingale, the compensator
and the Jeulin-Yor martingale are checked by the sign of one int sum of
w * x per cell over one common denominator, the sign of its exact mean.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import product
from typing import Iterable, NamedTuple, Sequence

from .errors import InputError, InvariantViolation, ShapeError
from .model import (
    FilteredModel, Measure, Payoff, _cells_of, _check_index, _check_vector, cached_property, condexp_groups, groups_of,
    natural_filtration,
)
from .polytope import VertexSet, enumerate_extreme_points
from .duality import _phase1_certificate, _scan_vertices
from .rationals import common_denominator, fmt

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class SingleJump:
    """A random time and a nonnegative mark, with tau = never exactly on {mark = 0}."""

    tau: tuple[int | None, ...]  # per outcome; None means the jump never occurs
    mark: tuple[Fraction, ...]  # per outcome

    def __post_init__(self) -> None:
        _check_vector("jump marks", self.mark, len(self.tau))
        for t, x in zip(self.tau, self.mark):  # each x is an int or a Fraction: its sign is its numerator's
            if x.numerator < 0:
                raise InputError("marks must be nonnegative")
            if (t is None) != (not x):
                raise InputError("tau must be infinite exactly where the mark vanishes")

    def to_json(self, model: FilteredModel) -> dict:
        return {
            "tau": {model.outcomes[w]: ("inf" if t is None else t) for w, t in enumerate(self.tau)},
            "mark": {model.outcomes[w]: fmt(x) for w, x in enumerate(self.mark)},
        }


def _check_jump(jump: SingleJump, model: FilteredModel) -> None:
    """Raise ShapeError unless the jump has one entry per outcome of the model and its times lie on the grid."""
    _check_vector("jump marks", jump.mark, model.n_outcomes)
    for t in jump.tau:
        if t is not None:
            _check_index("jump time", t, model.horizon + 1)


@dataclass(frozen=True)
class EnlargedModel:
    """A base model and its market under the enlarged filtration, with the maps between their cells."""

    base: FilteredModel
    model: FilteredModel  # the same market carried by the enlarged filtration

    @cached_property
    def base_cell_of(self) -> tuple[tuple[int, ...], ...]:
        """For each time k, map enlarged terminal cell index -> index of its base P_k cell."""
        return _cells_of(self.model.terminal_cells, self.base.partitions)

    @cached_property
    def base_groups(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """For each time k, the base P_k cells as groups of enlarged terminal cell indices."""
        return groups_of(self.base_cell_of, self.base.partitions)

    def on_cells(self, jump: SingleJump) -> tuple[tuple[int | None, ...], Payoff]:
        """The jump's tau and mark on each enlarged terminal cell; both must be constant there."""
        _check_jump(jump, self.base)
        cells = self.model.terminal_cells
        if any((jump.tau[w], jump.mark[w]) != (jump.tau[c[0]], jump.mark[c[0]]) for c in cells for w in c):
            raise ShapeError("jump time or mark is not measurable on the enlarged terminal cells")
        return tuple(jump.tau[c[0]] for c in cells), tuple(jump.mark[c[0]] for c in cells)

    def expand(self, payoff: Sequence[Fraction]) -> Payoff:
        """Lift a base terminal payoff to the enlarged terminal cells."""
        _check_vector("payoff entries", payoff, self.base.n_cells)
        return tuple(payoff[c] for c in self.base_cell_of[-1])


def enlarge(model: FilteredModel, jumps: Iterable[SingleJump]) -> EnlargedModel:
    """Coarsest refining filtration carrying the base and every jump process.

    G is the natural filtration of the processes "base P_k cell" and each jump's
    X_k = mark * 1_{tau <= k}.  By induction G_k is P_k split by the (tau, mark)
    of each jump with tau <= k: marks are positive exactly where tau is finite,
    so X_k != 0 iff tau <= k, and with the G_{k-1} cell X_k reveals (tau, mark).
    """
    jumps = tuple(jumps)
    for jump in jumps:
        _check_jump(jump, model)
    base = [list(map(partition.cell_of.__getitem__, range(model.n_outcomes))) for partition in model.partitions]
    times = range(model.horizon + 1)
    processes = [[[x if t is not None and t <= k else 0 for t, x in zip(j.tau, j.mark)] for k in times] for j in jumps]
    partitions = natural_filtration([base, *processes])

    base_of = [model.terminal_cell_of_outcome[cell[0]] for cell in partitions[-1].cells]
    # every base terminal cell holds an enlarged one, so each claim keeps its entries and its scale
    claims = tuple((tuple(map(row.__getitem__, base_of)), scale) for row, scale in model.int_claims)
    allowed = frozenset(g for g, b in enumerate(base_of) if b in model.allowed)
    enlarged = replace(model, partitions=partitions, int_claims=claims, allowed=allowed)
    return EnlargedModel(model, enlarged)


def _weighted_sums(
    values: Sequence[Fraction], groups: Sequence[Sequence[int]], weights: Sequence[int], before: Sequence[Fraction] = ()
) -> list[int]:
    """Per group, a positive multiple of the weighted sum of x - before: the sign of its mean, 0 if null.

    ``values`` and ``before`` are brought to one denominator, and each group's
    sum is the int sum of w * (x - before) over those numerators.
    """
    numerators, _ = common_denominator([*values, *before])
    if before:
        numerators = [x - b for x, b in zip(numerators, numerators[len(values) :])]
    return [sum([weights[a] * numerators[a] for a in group]) for group in groups]


class AzemaResult(NamedTuple):
    """Survival process Z_k = Q(tau > k | F_k) over enlarged terminal cells."""

    values: tuple[Payoff, ...]  # index k = 0..K
    supermartingale_ok: bool


def azema(measure: Measure, jump: SingleJump, enlarged: EnlargedModel) -> AzemaResult:
    _check_vector("measure weights", measure.numerators, enlarged.model.n_cells)
    taus, _ = enlarged.on_cells(jump)
    groups = enlarged.base_groups
    values = tuple(
        condexp_groups(tuple(1 if t is None or t > k else 0 for t in taus), groups[k], measure.numerators)
        for k in range(enlarged.model.horizon + 1)
    )
    ok = all(
        s <= 0
        for k in range(enlarged.model.horizon)
        for s in _weighted_sums(values[k + 1], groups[k], measure.numerators, values[k])
    )
    return AzemaResult(values, ok)


class CompensatorResult(NamedTuple):
    """Dual predictable projection of mark * 1_{tau <= k} along the base filtration."""

    increments: tuple[Payoff, ...]  # Delta A_k, k = 0..K; Delta A_0 is the F_0 term
    predictable_ok: bool
    martingale_ok: bool


def compensator(measure: Measure, jump: SingleJump, enlarged: EnlargedModel) -> CompensatorResult:
    """Delta A_k = E[Delta(mark 1_{tau <= k}) | F_{k-1}] on the cells of ``base_groups``.

    ``predictable_ok`` tests each increment for constancy on the base P_{k-1}
    cells rebuilt from the outcomes, not on the groups it was averaged over.
    """
    _check_vector("measure weights", measure.numerators, enlarged.model.n_cells)
    taus, marks = enlarged.on_cells(jump)
    cell_of = enlarged.model.terminal_cell_of_outcome
    increments = []
    predictable = martingale = True
    for k in range(enlarged.model.horizon + 1):
        groups = enlarged.base_groups[max(k - 1, 0)]
        jump_now = tuple(x if t == k else ZERO for t, x in zip(taus, marks))  # Delta(mark 1_{tau <= k})
        inc = condexp_groups(jump_now, groups, measure.numerators)
        increments.append(inc)
        base_cells = enlarged.base.partitions[max(k - 1, 0)].cells
        predictable &= all(len({inc[cell_of[w]] for w in cell}) <= 1 for cell in base_cells)
        martingale &= not any(_weighted_sums(jump_now, groups, measure.numerators, inc))
    return CompensatorResult(tuple(increments), predictable, martingale)


class JeulinYorResult(NamedTuple):
    """Compensated jump martingale in the enlarged filtration, with the Z and A it was built from."""

    values: tuple[Payoff, ...]  # M_k over enlarged terminal cells, k = 0..K
    martingale_ok: bool
    azema: AzemaResult
    compensator: CompensatorResult


def jeulin_yor(measure: Measure, jump: SingleJump, enlarged: EnlargedModel) -> JeulinYorResult:
    """M_k = mark 1_{tau <= k} - sum_{l <= k and tau} Delta A_l / Z_{l-1}, Z_{-1} = 1.

    The division is taken cellwise and never meets Z_{l-1} = 0 under a
    nonzero Delta A_l: for l >= 1 both are means over the same base P_{l-1}
    cell, a null cell gives 0 to both, and Z_{l-1} = 0 on a charged one puts
    every charged cell in it at tau <= l - 1, so none jumps at l.  M is a
    martingale when its mean is zero on every charged cell: M_0 given the
    base P_0, and each increment M_k - M_{k-1} given the enlarged G_{k-1}.
    """
    model = enlarged.model
    taus, marks = enlarged.on_cells(jump)
    z = azema(measure, jump, enlarged)
    comp = compensator(measure, jump, enlarged)

    values: list[Payoff] = []
    drift = [ZERO] * model.n_cells  # sum of Delta A_l / Z_{l-1} over l <= min(k, tau)
    for k, inc in enumerate(comp.increments):
        z_prev = z.values[k - 1] if k else (ONE,) * model.n_cells
        if any(d and not s for d, s in zip(inc, z_prev)):
            raise InvariantViolation(
                f"compensator increment at k={k} where the survival process vanishes, "
                "although both are means over one base cell"
            )
        for g, t in enumerate(taus):
            if inc[g] and (t is None or k <= t):
                drift[g] += inc[g] / z_prev[g]
        jumped = (x if t is not None and t <= k else ZERO for t, x in zip(taus, marks))
        values.append(tuple(x - a for x, a in zip(jumped, drift)))

    ok = not any(_weighted_sums(values[0], enlarged.base_groups[0], measure.numerators))
    for k in range(1, model.horizon + 1):
        ok &= not any(_weighted_sums(values[k], model.coarse_groups[k - 1], measure.numerators, values[k - 1]))
    return JeulinYorResult(tuple(values), ok, z, comp)


def filtrations_coincide(measure: Measure, enlarged: EnlargedModel) -> bool:
    """True iff charged cells of G_k and F_k agree, timewise, up to null sets.

    That is, at each k the relation between the base cell and the enlarged
    cell of each charged terminal cell is a bijection.
    """
    _check_vector("measure weights", measure.numerators, enlarged.model.n_cells)
    for base_k, fine_k in zip(enlarged.base_cell_of, enlarged.model.coarse_cell_of):
        pairs = {(base_k[g], fine_k[g]) for g in measure.support}
        if not len(pairs) == len({b for b, _ in pairs}) == len({f for _, f in pairs}):
            return False
    return True


class InformedCompareReport(NamedTuple):
    claims_empty: bool
    ext_base: VertexSet
    ext_enlarged: VertexSet
    coincide_flags: tuple[bool, ...]
    expected_enlarged: tuple[Measure, ...] | None  # lifts of base vertices, claims-empty case
    corollary_equal: bool | None
    prices: dict[str, tuple[Fraction | None, Fraction | None]]
    uninformed_arbitrage: bool
    informed_arbitrage: bool

    def to_json(self, enlarged: EnlargedModel) -> dict:
        base, fine = enlarged.base, enlarged.model
        prices = {
            name: {
                "base": "-inf" if pf is None else fmt(pf),
                "enlarged": "-inf" if pg is None else fmt(pg),
            }
            for name, (pf, pg) in sorted(self.prices.items())
        }
        return {
            "claims_empty": self.claims_empty,
            "ext_F": self.ext_base.to_json(base),
            "ext_G": self.ext_enlarged.to_json(fine),
            "coincide_flags": list(self.coincide_flags),
            "expected_from_F": None
            if self.expected_enlarged is None
            else [m.to_json(fine) for m in self.expected_enlarged],
            "corollary_equal": self.corollary_equal,
            "prices": prices,
            "uninformed_arbitrage": self.uninformed_arbitrage,
            "informed_arbitrage": self.informed_arbitrage,
        }


def _coinciding_lifts(vertex: Measure, enlarged: EnlargedModel) -> list[Measure]:
    """Enlarged measures restricting to the vertex under which F and G coincide.

    Coincidence at the terminal date forces each charged base cell to push its
    whole mass onto a single enlarged subcell, so the finitely many subcell
    assignments exhaust the candidates.  All are allowed: so are the vertex's
    charged base cells and every enlarged subcell of an allowed base cell.
    """
    model = enlarged.model
    subcells = enlarged.base_groups[-1]
    charged = vertex.support
    out: list[Measure] = []
    for choice in product(*[subcells[c] for c in charged]):  # the charged subcells, one per charged base cell
        numerators = [0] * model.n_cells
        for c, g in zip(charged, choice):
            numerators[g] = vertex.numerators[c]
        candidate = Measure.from_ints(numerators, vertex.scale)
        if filtrations_coincide(candidate, enlarged):
            out.append(candidate)
    return out


def informed_compare(
    model: FilteredModel, jumps: Iterable[SingleJump], payoffs: dict[str, Sequence[Fraction]] | None = None
) -> tuple[InformedCompareReport, EnlargedModel]:
    """Enumerate both extreme-point sets and compare informed pricing.

    With no statically traded claims the enlarged extreme points must be
    exactly the coinciding lifts of the base extreme points; that set equality
    is asserted.  With claims present both sides are reported without an
    assertion.  An empty enlarged measure set is informed arbitrage.  Each
    empty side must have ``_phase1_certificate``'s checked certificate, else
    InvariantViolation.
    """
    enlarged = enlarge(model, jumps)
    ext_base = enumerate_extreme_points(model.constraints)
    ext_fine = enumerate_extreme_points(enlarged.model.constraints)
    coincide_flags = tuple(filtrations_coincide(v, enlarged) for v in ext_fine.vertices)

    claims_empty = len(model.int_claims) == 0
    expected: tuple[Measure, ...] | None = None
    corollary_equal: bool | None = None
    if claims_empty:
        lifted = {m for vertex in ext_base.vertices for m in _coinciding_lifts(vertex, enlarged)}
        # coinciding lifts with one support restrict to one base vertex, the only point with its support
        expected = tuple(sorted(lifted, key=lambda m: m.support))
        corollary_equal = expected == ext_fine.vertices

    prices: dict[str, tuple[Fraction | None, Fraction | None]] = {}
    for name, payoff in sorted((payoffs or {}).items()):
        fine_payoff = enlarged.expand(payoff)  # checks the payoff against the base model
        base_price = _scan_vertices(payoff, ext_base.vertices)
        prices[name] = (base_price.value, _scan_vertices(fine_payoff, ext_fine.vertices).value)

    for side, vertex_set in ((model, ext_base), (enlarged.model, ext_fine)):
        if not vertex_set.vertices:  # an arbitrage flag holds only with its checked certificate
            _phase1_certificate(side)
    report = InformedCompareReport(
        claims_empty=claims_empty,
        ext_base=ext_base,
        ext_enlarged=ext_fine,
        coincide_flags=coincide_flags,
        expected_enlarged=expected,
        corollary_equal=corollary_equal,
        prices=prices,
        uninformed_arbitrage=not ext_base.vertices,
        informed_arbitrage=not ext_fine.vertices,
    )
    return report, enlarged
