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
did before it read bytes.  ``enlarged_partitions`` splits each base cell by
what the jumps have revealed, as ``enlargement.enlarge`` did before it built
the enlarged filtration with ``natural_filtration``.  ``strategy_value``
sums a strategy's coordinates times these Fraction columns, not through
``hedging.strategy_payoff``'s int columns.
"""

import json
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

from semistatic.scenario import ScenarioError, parse_scenario

ZERO, ONE = Fraction(0), Fraction(1)


def fraction_prices(model):
    """``prices[j][k][w]``, asset j at time k on outcome w, as Fractions of the model's ``int_prices``."""
    return tuple(tuple(tuple(Fraction(x, scale) for x in row) for row in rows) for rows, scale in model.int_prices)


def fraction_claims(model):
    """``claims[i][a]``, claim i on terminal cell a, as Fractions of the model's ``int_claims``."""
    return tuple(tuple(Fraction(x, scale) for x in row) for row, scale in model.int_claims)


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
            for j, path in enumerate(fraction_prices(model)):
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
    claims = tuple((("claim", i), tuple(claim)) for i, claim in enumerate(fraction_claims(model)))
    return ((("const",), (ONE,) * model.n_cells), *claims, *gains(model))


def strategy_value(strategy, model):
    """The strategy's payoff on every terminal cell: its coordinates times the Fraction ``strategy_columns``."""
    coordinates = (strategy.cash, *strategy.static, *strategy.dynamic)
    columns = [vec for _, vec in strategy_columns(model)]
    return tuple(sum((h * vec[a] for h, vec in zip(coordinates, columns)), ZERO) for a in range(model.n_cells))


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


# -- the Fraction oracle of the one-pass read: the parse, the validator and the table builds as they were --


def oracle_parse(data, name_hint="scenario"):
    """(name, model, jumps, payoffs, prices, claims) as the parse read them before it read ints: every token a Fraction.

    The model is built from Fractions through ``FilteredModel``'s constructor,
    its filtration by ``oracle_natural_filtration`` or from the listed cells;
    errors are raised as ``ScenarioError`` with the same messages, and an
    invalid model is reported from ``oracle_validate``.
    """
    from semistatic.enlargement import SingleJump
    from semistatic.model import FilteredModel, Partition, is_constant_on
    from semistatic.rationals import rat

    numbers = {}

    def number(token):
        if type(token) is str or type(token) is int:
            if token not in numbers:
                numbers[token] = rat(token)
            return numbers[token]
        return rat(token)

    def vector(tokens):
        return tuple([number(t) for t in tokens])

    def quotient(values, n, cells, kind, key):
        if len(values) != n:
            raise ScenarioError(f"{kind} {key} has {len(values)} entries, expected {n}, one per outcome")
        out = []
        for cell in cells:
            if len(cell) > 1 and not is_constant_on(values, cell):
                raise ScenarioError(f"{kind} {key} is not constant on the terminal cell {sorted(cell)}")
            out.append(values[cell[0]])
        return tuple(out)

    try:
        outcomes = tuple(map(str, data["outcomes"]))
        if len(set(outcomes)) != len(outcomes):
            raise ScenarioError("outcome labels must be unique")
        index = {w: i for i, w in enumerate(outcomes)}
        times = vector(data["times"])
        prices = tuple(tuple(map(vector, asset)) for asset in data["prices"])
        spec = data.get("filtration", "natural")
        if spec == "natural":
            partitions = oracle_natural_filtration(prices)
        else:
            partitions = tuple(Partition([[index[w] for w in cell] for cell in cells]) for cells in spec)
        terminal = partitions[-1].cells
        claims = tuple(
            quotient(vector(payoff), len(outcomes), terminal, "claim", i)
            for i, payoff in enumerate(data.get("claims", []))
        )
        support_spec = data.get("prior_support", "all")
        if support_spec == "all":
            allowed = frozenset(range(len(terminal)))
        else:
            listed = {index[w] for w in support_spec}
            allowed = set()
            for c, cell in enumerate(terminal):
                hit = listed.intersection(cell)
                if hit and not set(cell) <= listed:
                    raise ScenarioError(f"prior support lists part of the terminal cell {sorted(cell)}")
                if hit:
                    allowed.add(c)
            allowed = frozenset(allowed)
        model = FilteredModel.from_fractions(outcomes, times, partitions, prices, claims, allowed)
        jumps = []
        horizon = model.horizon
        for j in data.get("jumps", []):
            tau = [None] * len(outcomes)
            mark = [ZERO] * len(outcomes)
            for w, t in j["tau"].items():
                if t == "inf":
                    t = None
                elif not isinstance(t, int) or isinstance(t, bool):
                    raise ScenarioError(f'jump time of {w!r} must be an integer or "inf", got {t!r}')
                elif not 0 <= t <= horizon:
                    raise ScenarioError(f"jump time of {w!r} must lie in the grid 0..{horizon}, got {t}")
                tau[index[w]] = t
            for w, x in j["mark"].items():
                mark[index[w]] = number(x)
            jumps.append(SingleJump(tuple(tau), tuple(mark)))
        payoffs = {
            name: quotient(vector(vec), len(outcomes), terminal, "payoff", name)
            for name, vec in data.get("payoffs", {}).items()
        }
    except ScenarioError:
        raise
    except (KeyError, ValueError, TypeError, IndexError, AttributeError) as exc:
        raise ScenarioError(f"malformed scenario: {exc}") from exc
    violations = oracle_validate(model, prices, claims)
    if violations:
        code, where, message = violations[0]
        raise ScenarioError(f"invalid model ({len(violations)} violations; first: {code} at {where}: {message})")
    return str(data.get("name", name_hint)), model, tuple(jumps), payoffs, prices, claims


def oracle_natural_filtration(prices):
    """P_k groups the outcomes by their whole Fraction price path up to k; ``Partition`` sorts the groups."""
    from semistatic.model import Partition

    n = len(prices[0][0]) if prices and prices[0] else 0
    partitions, cell_of = [], [0] * n
    for k in range(len(prices[0]) if prices else 1):
        groups = {}
        columns = [[asset[k][w] for w in range(n)] for asset in prices]
        for w, key in enumerate(zip(cell_of, *columns)):
            groups.setdefault(key, []).append(w)
        for c, group in enumerate(groups.values()):
            for w in group:
                cell_of[w] = c
        partitions.append(Partition(groups.values()))
    return tuple(partitions)


def enlarged_partitions(model, jumps):
    """G_k: each base P_k cell split by the (tau, mark) of every jump with tau <= k, the rest pending."""
    from semistatic.model import Partition

    def key(jump, w, k):
        t = jump.tau[w]
        return (t, jump.mark[w]) if t is not None and t <= k else ("pending",)

    partitions = []
    for k, base_partition in enumerate(model.partitions):
        cells = []
        for cell in base_partition.cells:
            split = {}
            for w in cell:
                split.setdefault(tuple(key(j, w, k) for j in jumps), []).append(w)
            cells.extend(split.values())
        partitions.append(Partition(cells))
    return tuple(partitions)


def oracle_validate(model, prices, claims):
    """The (code, where, message) of each violation, read off the Fraction prices and claims and sets of outcomes."""
    from semistatic.model import is_constant_on

    bad = []
    n, times = len(model.outcomes), model.times
    horizon = len(times) - 1
    if horizon < 1:
        bad.append(("grid", "times", "need at least one period"))
    if times and times[0] != 0:
        bad.append(("grid", "times[0]", "time grid must start at 0"))
    for i in range(1, len(times)):
        if times[i] <= times[i - 1]:
            bad.append(("grid", f"times[{i}]", "times must be strictly increasing"))
    partitions = model.partitions
    if len(partitions) != horizon + 1:
        bad.append(("filtration", "partitions", "need one partition per time index"))
    universe, foreign = set(range(n)), set()
    for k, partition in enumerate(partitions):
        seen = set()
        for cell in partition.cells:
            if not cell:
                bad.append(("partition", f"P_{k}", "empty cell"))
            if len(set(cell)) < len(cell):
                bad.append(("partition", f"P_{k}", "a cell lists an outcome twice"))
            if seen.intersection(cell):
                bad.append(("partition", f"P_{k}", "cells are not disjoint"))
            seen.update(cell)
            strays = [w for w in cell if type(w) is not int or w not in universe]
            if strays:
                foreign.add((k, cell))
                why = f"outside 0..{n - 1}" if type(strays[0]) is int else "that is not an int"
                bad.append(("partition", f"P_{k}", f"cell names outcome index {strays[0]!r} {why}"))
        if not universe <= seen:
            bad.append(("partition", f"P_{k}", "cells do not cover the outcome set"))
    for k in range(1, len(partitions)):
        parent = {w: c for c, cell in enumerate(partitions[k - 1].cells) for w in cell}
        if any(len({parent.get(w) for w in cell}) != 1 or None in map(parent.get, cell) for cell in partitions[k].cells):
            bad.append(("refinement", f"P_{k}", f"P_{k} does not refine P_{k - 1}"))
    if not prices:
        bad.append(("prices", "assets", "need at least one asset"))
    for j, path in enumerate(prices):
        if len(path) != horizon + 1:
            bad.append(("prices", f"asset {j}", "wrong number of time slices"))
            continue
        for k, slice_k in enumerate(path):
            if len(slice_k) != n:
                bad.append(("prices", f"asset {j}, k={k}", "wrong number of outcomes"))
                continue
            if k == 0 and any(slice_k):
                bad.append(("prices", f"asset {j}, k=0", "initial price must be 0"))
            if k < len(partitions):
                for cell in partitions[k].cells:
                    if len(cell) > 1 and (k, cell) not in foreign and not is_constant_on(slice_k, cell):
                        label = "|".join(model.outcomes[w] for w in sorted(cell))
                        bad.append(("adapted", f"asset {j}, k={k}, cell {label}", "price is not constant on a partition cell"))
                        break
    n_cells = len(partitions[-1].cells) if partitions else 0
    for i, claim in enumerate(claims):
        if len(claim) != n_cells:
            bad.append(("claim", f"claim {i}", "payoff length must match terminal cells"))
    if not model.allowed:
        bad.append(("priors", "allowed", "prior support must be nonempty"))
    for a in model.allowed:
        if not 0 <= a < n_cells:
            bad.append(("priors", "allowed", f"unknown terminal cell index {a}"))
    return bad


def oracle_tables(model, prices, claims):
    """The model's tables built from its Fraction prices and claims and its cells by dict lookups, by name."""
    terminal = model.partitions[-1].cells
    cell_of = [{w: c for c, cell in enumerate(p.cells) for w in cell} for p in model.partitions]
    coarse_cell_of = tuple(tuple(lookup[cell[0]] for cell in terminal) for lookup in cell_of)
    coarse_groups = tuple(
        tuple(tuple(a for a in range(len(terminal)) if table[a] == c) for c in range(len(p.cells)))
        for table, p in zip(coarse_cell_of, model.partitions)
    )
    int_gains = []
    for k in range(1, len(model.times)):
        for c, group in enumerate(coarse_groups[k - 1]):
            for j, path in enumerate(prices):
                scale = lcm(*(x.denominator for row in path for x in row))
                row = [0] * len(terminal)
                for a in group:
                    w = terminal[a][0]
                    row[a] = int((path[k][w] - path[k - 1][w]) * scale)
                int_gains.append((("gain", k, c, j), tuple(row), scale))
    int_claims = []
    for claim in claims:
        scale = lcm(*(Fraction(x).denominator for x in claim))
        int_claims.append((tuple(int(x * scale) for x in claim), scale))
    return {
        "terminal_cells": terminal,
        "coarse_cell_of": coarse_cell_of,
        "coarse_groups": coarse_groups,
        "int_gains": tuple(int_gains),
        "int_claims": tuple(int_claims),
        "terminal_labels": tuple("|".join(model.outcomes[w] for w in cell) for cell in terminal),
    }
