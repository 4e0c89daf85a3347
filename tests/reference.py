"""Fraction references for the int tables, leaf births, conditional expectations and the eliminations.

The engine keeps the elementary gains and the strategy columns only as int
rows with scales (``FilteredModel.int_gains``, ``hedging.int_strategy_columns``).
The tests compare against these Fraction vectors, built from the prices the
way the engine built them before the int tables, and ``linalg.eliminate``
against the step as it was before it cancelled gcd(p, f).  ``reference_rref``
is the Fraction Gauss-Jordan elimination ``linalg.rref`` ran before its rows
became ints, and ``reference_solve`` the particular solution built on it,
with which the tests solve small systems.  ``int_rows`` poses a rational
program as the int one the exact kernels take.  The conditional
expectations given P_k and given a tree's leaves average a measure's
Fraction weights over sets of outcomes, not over the engine's cell tables.
``load_scenario`` reads a file through ``pathlib`` in text mode, as the engine
did before it read bytes.
"""

import json
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

from semistatic.scenario import ScenarioError, parse_scenario

ZERO, ONE = Fraction(0), Fraction(1)


def row_coeffs(row):
    """A constraint row's rational coefficients: its int normal over its scale."""
    return tuple(Fraction(x, row.scale) for x in row.normal)


def gains(model):
    """The elementary gains 1_A (S^j_k - S^j_{k-1}), A cell c of P_{k-1}, as (("gain", k, c, j), vector).

    The order is (k, c, j), as in ``FilteredModel.int_gains``.
    """
    columns = []
    for k in range(1, model.horizon + 1):
        for c, cell in enumerate(model.partitions[k - 1].cells):
            for j, path in enumerate(model.prices):
                vec = [ZERO] * model.n_cells
                for a, terminal in enumerate(model.terminal_cells):
                    w = terminal[0]
                    if w in cell:
                        vec[a] = path[k][w] - path[k - 1][w]
                columns.append((("gain", k, c, j), tuple(vec)))
    return tuple(columns)


def zeta(tree, model):
    """Per terminal cell, the birth time of the tree leaf that holds it, or None where no leaf does."""
    out = [None] * model.n_cells
    for leaf in tree.leaves:
        for a, cell in enumerate(model.terminal_cells):
            if set(cell) <= set(leaf.cell):
                out[a] = leaf.birth
    return tuple(out)


def _expectation_on_events(payoff, events, measure, model):
    """On the terminal cells inside each event, the measure's average of the payoff; 0 where the event is null."""
    out = [ZERO] * model.n_cells
    for event in events:
        inside = [a for a, cell in enumerate(model.terminal_cells) if set(cell) <= set(event)]
        mass = sum((measure.weights[a] for a in inside), ZERO)
        if mass:
            mean = sum((measure.weights[a] * payoff[a] for a in inside), ZERO) / mass
            for a in inside:
                out[a] = mean
    return tuple(out)


def conditional_expectation(model, payoff, k, measure):
    """E[payoff | P_k] under the measure, over terminal cells; 0 on a null cell of P_k."""
    return _expectation_on_events(payoff, model.partitions[k].cells, measure, model)


def sigma_tree_expectation(payoff, tree, measure, model):
    """The leafwise conditional expectation: on each leaf of the tree, the measure's average; 0 on a null leaf."""
    return _expectation_on_events(payoff, [leaf.cell for leaf in tree.leaves], measure, model)


def strategy_columns(model):
    """Strategy coordinates in column order, cash, claims, gains, each (label, Fraction vector)."""
    claims = tuple((("claim", i), tuple(claim)) for i, claim in enumerate(model.claims))
    return ((("const",), (ONE,) * model.n_cells), *claims, *gains(model))


def int_rows(rows):
    """Each rational row times the lcm of its denominators: the positive int multiple the exact kernels take.

    Scaling a row [a_i | b_i] of a program by a positive factor changes no
    solution, rank, kernel or span, so the kernels' answer on these rows is
    the answer on the rational ones.
    """
    out = []
    for row in rows:
        scale = lcm(*(Fraction(x).denominator for x in row))
        out.append([int(x * scale) for x in row])
    return out


def eliminate(target, pivot_row, col):
    """p*target - f*pivot_row over the gcd of its entries, p and f uncancelled; an all-zero row stays zero."""
    p, f = pivot_row[col], target[col]
    row = [p * x - f * y for x, y in zip(target, pivot_row)]
    g = gcd(*row) or 1
    return [x // g for x in row]


def reference_rref(matrix):
    """Fraction Gauss-Jordan elimination: the reduced rows (zero rows kept at the bottom) and the pivot columns."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    if not rows:
        return [], []
    pivots = []
    r = 0
    for c in range(len(rows[0])):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def reference_solve(matrix, rhs):
    """One solution of ``matrix @ x = rhs`` with the free variables 0, by ``reference_rref``; None when inconsistent."""
    rows = [list(row) + [b] for row, b in zip(matrix, rhs)]
    if not rows:
        return ()
    ncols = len(matrix[0])
    reduced, pivots = reference_rref(rows)
    for row in reduced:
        if all(x == 0 for x in row[:ncols]) and row[ncols] != 0:
            return None
    solution = [ZERO] * ncols
    for r, c in enumerate(pivots):
        if c == ncols:
            return None
        solution[c] = reduced[r][ncols]
    return tuple(solution)


def load_scenario(path):
    """The scenario at ``path`` read as UTF-8 text with universal newlines, named after the path's stem."""
    file = Path(path)
    try:
        data = json.loads(file.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
    return parse_scenario(data, name_hint=file.stem)
