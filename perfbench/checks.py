"""Independent correctness checks for the benchmark's CLI commands.

Nothing here imports the program.  Each check takes a ``Market`` (the
benchmark's own description of the scenario), the command's exit code and
its parsed JSON report, and returns ``None`` when the report is right or a
one-line reason when it is not.  The expected values come from computations
of the benchmark's own:

- vertex sets by brute force over supports (small models) or as products of
  extreme one-step kernels (the claim-free ladder);
- superhedging values by backward induction of concave envelopes;
- optimality of a price from a certificate pair: a strategy whose payoff,
  recomputed from its holdings, dominates the claim, and a calibrated
  martingale measure whose expectation equals the strategy's cost.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd

from inputs import Market

ZERO = Fraction(0)
ONE = Fraction(1)


# ---------------------------------------------------------------- exact algebra


def rank(rows) -> int:
    rows = [list(r) for r in rows if any(x != 0 for x in r)]
    if not rows:
        return 0
    r = 0
    for c in range(len(rows[0])):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(r + 1, len(rows)):
            if rows[i][c] != 0:
                f = rows[i][c] / rows[r][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
        if r == len(rows):
            break
    return r


def fractions(values) -> tuple:
    return tuple(Fraction(v) for v in values)


# ---------------------------------------------------------------- market algebra


def price_step(m: Market, j: int, k: int, a: int) -> Fraction:
    w = m.cells[a][0]
    return m.prices[j][k][w] - m.prices[j][k - 1][w]


def within(m: Market, a: int, cell) -> bool:
    return set(m.cells[a]) <= set(cell)


def gain_vectors(m: Market) -> list:
    """Elementary gains 1_C (S^j_k - S^j_{k-1}) over terminal cells."""
    out = []
    for k in range(1, m.horizon + 1):
        for cell in m.partitions[k - 1]:
            for j in range(len(m.prices)):
                out.append([price_step(m, j, k, a) if within(m, a, cell) else ZERO for a in range(len(m.cells))])
    return out


def spanning_vectors(m: Market) -> list:
    """Constant, claims and elementary gains: the semi-static payoffs."""
    return [[ONE] * len(m.cells)] + [m.on_cells(c) for c in m.claims] + gain_vectors(m)


def constraint_rows(m: Market) -> tuple:
    """Martingale, calibration and normalization rows of the measure set."""
    rows = gain_vectors(m) + [m.on_cells(c) for c in m.claims] + [[ONE] * len(m.cells)]
    return rows, [ZERO] * (len(rows) - 1) + [ONE]


def is_calibrated(m: Market, weights) -> bool:
    if len(weights) != len(m.cells) or any(w < 0 for w in weights):
        return False
    allowed = set(m.allowed_cells())
    if any(w > 0 and a not in allowed for a, w in enumerate(weights)):
        return False
    rows, rhs = constraint_rows(m)
    return all(sum((x * w for x, w in zip(row, weights)), ZERO) == b for row, b in zip(rows, rhs))


def _integral(rows, rhs) -> tuple:
    """Scale each equation by the lcm of its denominators: same solutions, int entries."""
    out_rows, out_rhs = [], []
    for row, b in zip(rows, rhs):
        scale = 1
        for x in list(row) + [b]:
            scale = scale * x.denominator // gcd(scale, x.denominator)
        out_rows.append([int(x * scale) for x in row])
        out_rhs.append(int(b * scale))
    return out_rows, out_rhs


def _positive_solution(rows, rhs, columns):
    """Unique solution on `columns` if it exists and is strictly positive.

    Fraction-free elimination on integer rows: each pivot step replaces
    row_i by p * row_i - row_i[c] * row_p, then divides out the row's gcd.
    """
    aug = [[row[c] for c in columns] + [b] for row, b in zip(rows, rhs)]
    pivots = []
    r = 0
    for j in range(len(columns)):
        pivot = next((i for i in range(r, len(aug)) if aug[i][j]), None)
        if pivot is None:
            return None  # dependent columns: no unique solution
        aug[r], aug[pivot] = aug[pivot], aug[r]
        p_row = aug[r]
        p = p_row[j]
        for i in range(len(aug)):
            f = aug[i][j]
            if i != r and f:
                row = [p * x - f * y for x, y in zip(aug[i], p_row)]
                g = 0
                for x in row:
                    g = gcd(g, x)
                aug[i] = [x // g for x in row] if g > 1 else row
        pivots.append(r)
        r += 1
    if any(row[-1] for row in aug[r:]):
        return None
    x = []
    for j, i in enumerate(pivots):
        num, den = aug[i][-1], aug[i][j]
        if num == 0 or (num > 0) != (den > 0):
            return None
        x.append(Fraction(num, den))
    return x


def vertices(m: Market) -> list:
    """All extreme calibrated martingale measures, by brute force over supports.

    A vertex is the unique solution supported on a set of columns that are
    linearly independent; taking only strictly positive solutions finds each
    vertex once, on its own support.  Sorted by (support, weights), the
    program's canonical order.
    """
    rows, rhs = _integral(*constraint_rows(m))
    allowed = m.allowed_cells()
    limit = min(len(allowed), rank(rows))
    found = []
    for size in range(1, limit + 1):
        for support in itertools.combinations(allowed, size):
            x = _positive_solution(rows, rhs, support)
            if x is None:
                continue
            weights = [ZERO] * len(m.cells)
            for a, v in zip(support, x):
                weights[a] = v
            found.append((support, tuple(weights)))
    found.sort()
    return [w for _, w in found]


def expectation(weights, payoff) -> Fraction:
    return sum((w * x for w, x in zip(weights, payoff)), ZERO)


def robust_value(vertex_list, payoff):
    """Max expectation over the vertices; None for an empty measure set."""
    return max((expectation(v, payoff) for v in vertex_list), default=None)


def enlarged_market(m: Market) -> Market:
    """The same market on the coarsest filtration that also sees every jump."""
    partitions = []
    for k, cells in enumerate(m.partitions):
        split = []
        for cell in cells:
            groups: dict = {}
            for w in cell:
                key = tuple(
                    (j.tau[w], j.mark[w]) if j.tau[w] is not None and j.tau[w] <= k else "pending"
                    for j in m.jumps
                )
                groups.setdefault(key, []).append(w)
            split.extend(groups.values())
        partitions.append(split)
    return Market(m.name, m.outcomes, partitions, m.prices, m.claims, m.allowed, m.payoffs, m.jumps)


def cell_of_label(m: Market, label: str) -> set:
    index = {w: i for i, w in enumerate(m.outcomes)}
    return {index[w] for w in label.split("|")}


def strategy_payoff(m: Market, strategy: dict) -> list:
    """Terminal payoff of a reported strategy, recomputed from its holdings."""
    out = [Fraction(strategy["cash"])] * len(m.cells)
    for i, pos in enumerate(strategy["static"]):
        claim = m.on_cells(m.claims[i])
        out = [x + Fraction(pos) * c for x, c in zip(out, claim)]
    for entry in strategy["dynamic"]:
        k, j, value = int(entry["k"]), int(entry["asset"]), Fraction(entry["value"])
        cell = cell_of_label(m, entry["cell"])
        if not any(set(c) == cell for c in m.partitions[k - 1]):
            raise ValueError(f"holding on {entry['cell']!r}, which is no cell of P_{k - 1}")
        out = [x + (value * price_step(m, j, k, a) if within(m, a, cell) else ZERO) for a, x in enumerate(out)]
    return out


def condexp(m: Market, vec, weights, cells) -> list:
    """Groupwise Q-average over terminal cells; zero on null groups."""
    out = [ZERO] * len(vec)
    for cell in cells:
        group = [a for a in range(len(m.cells)) if within(m, a, cell)]
        mass = sum((weights[a] for a in group), ZERO)
        if mass:
            mean = sum((weights[a] * vec[a] for a in group), ZERO) / mass
            for a in group:
                out[a] = mean
    return out


def measure_weights(report_measure: dict, m: Market) -> tuple:
    weights = fractions(report_measure["weights"])
    support = [m.label(m.cells[a]) for a, w in enumerate(weights) if w > 0]
    if support != list(report_measure["support"]):
        raise ValueError("measure support labels disagree with its weights")
    return weights


# ---------------------------------------------------------------- ladder oracles


def extreme_kernels(increments) -> list:
    """Extreme points of {p >= 0 : sum p = 1, sum p d = 0} on the increments."""
    kernels = []
    n = len(increments)
    for i, d in enumerate(increments):
        if d == 0:
            kernels.append({i: ONE})
    for i, j in itertools.product(range(n), range(n)):
        lo, hi = increments[i], increments[j]
        if lo < 0 < hi:
            kernels.append({i: hi / (hi - lo), j: -lo / (hi - lo)})
    return kernels


def ladder_vertices(increments, horizon: int) -> set:
    """Extreme martingale measures of a claim-free b-nomial tree.

    On a tree without claims they are the products of extreme one-step
    kernels, one per charged node; paths are numbered as base-b digits.
    """
    kernels = extreme_kernels(increments)
    b = len(increments)

    def expand(depth: int) -> list:
        if depth == horizon:
            return [{(): ONE}]
        tails = expand(depth + 1)
        out = []
        for kernel in kernels:
            partial = [{}]
            for i, p in sorted(kernel.items()):
                partial = [
                    {**acc, **{(i,) + path: p * q for path, q in tail.items()}} for acc in partial for tail in tails
                ]
            out.extend(partial)
        return out

    result = set()
    for dist in expand(0):
        weights = [ZERO] * b**horizon
        for path, q in dist.items():
            index = 0
            for i in path:
                index = index * b + i
            weights[index] = q
        result.add(tuple(weights))
    return result


def ladder_value(increments, horizon: int) -> Fraction:
    """Superhedging price of |S_K| by backward induction of concave envelopes."""
    kernels = extreme_kernels(increments)

    def value(s: Fraction, k: int) -> Fraction:
        if k == horizon:
            return abs(s)
        nxt = [value(s + d, k + 1) for d in increments]
        return max(sum((p * nxt[i] for i, p in kernel.items()), ZERO) for kernel in kernels)

    return value(ZERO, 0)


# ---------------------------------------------------------------- command checks


def expect_rc(rc: int, report):
    if rc != 0:
        return f"exit code {rc}, expected 0"
    if not isinstance(report, dict) or "result" not in report:
        return "no report"
    return None


def check_extremes(m: Market, rc: int, report, expected: set):
    bad = expect_rc(rc, report)
    if bad:
        return bad
    result = report["result"]
    got = [measure_weights(v, m) for v in result["vertices"]]
    if result["count"] != len(got) or len(set(got)) != len(got):
        return "vertex count disagrees with the listed vertices"
    if set(got) != expected:
        return f"{len(got)} vertices reported, {len(expected)} expected, sets differ"
    return None


def check_price_certificate(m: Market, payoff, price: Fraction, strategy: dict, measures):
    """Exact optimality: dominating strategy of cost `price`, measure attaining it."""
    if Fraction(strategy["cash"]) != price:
        return "strategy cash differs from the price"
    hedge = strategy_payoff(m, strategy)
    allowed = m.allowed_cells()
    if any(hedge[a] < payoff[a] for a in allowed):
        return "strategy does not dominate the payoff on every allowed cell"
    if not measures:
        return "no measure attains the price"
    for weights in measures:
        if not is_calibrated(m, weights):
            return "argmax measure is not a calibrated martingale measure"
        if expectation(weights, payoff) != price:
            return "argmax measure expectation differs from the price"
    return None


def check_duality(m: Market, rc: int, report, payoff_name: str, expected_value=None):
    """Returns (error, certified price)."""
    bad = expect_rc(rc, report)
    if bad:
        return bad, None
    result = report["result"]
    if not result.get("ok") or result["gap"] != "0" or not result["slackness_ok"]:
        return "duality report not ok", None
    primal, dual = Fraction(result["primal"]), Fraction(result["dual"])
    if primal != dual:
        return "primal differs from dual", None
    payoff = m.on_cells(m.payoffs[payoff_name])
    measures = [measure_weights(v, m) for v in result["argmax"]]
    bad = check_price_certificate(m, payoff, primal, result["strategy"], measures)
    if bad:
        return bad, None
    if expected_value is not None and primal != expected_value:
        return f"price {primal}, backward induction gives {expected_value}", None
    return None, primal


def check_superhedge(m: Market, rc: int, report, payoff_name: str, certified):
    bad = expect_rc(rc, report)
    if bad:
        return bad
    result = report["result"]
    if certified is None:
        return "no certified price to compare with"
    if result["price"] == "-inf" or Fraction(result["price"]) != certified:
        return f"superhedge price {result['price']}, certified price {certified}"
    strategy = result["strategy"]
    if Fraction(strategy["cash"]) != certified:
        return "strategy cash differs from the price"
    hedge = strategy_payoff(m, strategy)
    payoff = m.on_cells(m.payoffs[payoff_name])
    if any(hedge[a] < payoff[a] for a in m.allowed_cells()):
        return "strategy does not dominate the payoff on every allowed cell"
    tight = {m.label(m.cells[a]) for a in m.allowed_cells() if hedge[a] == payoff[a]}
    if set(result["tight"]) != tight:
        return "tight cells differ from where the hedge binds"
    return None


def check_price(m: Market, rc: int, report, payoff_name: str):
    bad = expect_rc(rc, report)
    if bad:
        return bad
    result = report["result"]
    payoff = m.on_cells(m.payoffs[payoff_name])
    value = robust_value(vertices(m), payoff)
    if (None if result["value"] == "-inf" else Fraction(result["value"])) != value:
        return f"robust price {result['value']}, brute force gives {value}"
    for v in result["argmax"]:
        weights = measure_weights(v, m)
        if not is_calibrated(m, weights) or expectation(weights, payoff) != value:
            return "an argmax measure does not attain the price"
    return None


def check_arbitrage(m: Market, rc: int, report):
    """Empty measure set: a zero-cost strategy paying a positive floor."""
    bad = expect_rc(rc, report)
    if bad:
        return bad
    if vertices(m):
        return "arbitrage reported on a model with a calibrated martingale measure"
    result = report["result"]
    certificate = result["certificate"]
    if result["status"] != "arbitrage" or certificate["feasible"] is not False:
        return "empty measure set not reported as arbitrage"
    strategy = certificate["certificate"]
    if Fraction(strategy["cash"]) != 0:
        return "arbitrage certificate is not zero-cost"
    payoff = strategy_payoff(m, strategy)
    if tuple(payoff) != fractions(certificate["certificate_payoff"]):
        return "certificate payoff differs from its holdings"
    if min(payoff[a] for a in m.allowed_cells()) <= 0:
        return "certificate payoff has no positive floor"
    return None


def check_complete(m: Market, rc: int, report, weights, expect_complete: bool):
    bad = expect_rc(rc, report)
    if bad:
        return bad
    result = report["result"]
    if measure_weights(result["measure"], m) != tuple(weights):
        return "completeness was decided for another measure"
    support = [a for a, w in enumerate(weights) if w > 0]
    if result["support_size"] != len(support):
        return "support size is wrong"
    restricted = [[v[a] for a in support] for v in spanning_vectors(m)]
    if result["rank"] != rank(restricted):
        return "rank of the hedging span is wrong"
    if result["complete"] is not expect_complete or result["complete"] != (result["rank"] == len(support)):
        return f"complete={result['complete']}, the theorem says {expect_complete}"
    return None


def check_replicate(m: Market, rc: int, report, weights, payoff_name: str, expect_replicable=None):
    bad = expect_rc(rc, report)
    if bad:
        return bad
    result = report["result"]
    payoff = m.on_cells(m.payoffs[payoff_name])
    support = [a for a, w in enumerate(weights) if w > 0]
    if expect_replicable is not None and result["replicable"] is not expect_replicable:
        return f"replicable={result['replicable']}, expected {expect_replicable}"
    if result["replicable"]:
        hedge = strategy_payoff(m, result["strategy"])
        if any(hedge[a] != payoff[a] for a in support):
            return "replicating strategy misses the payoff on the support"
        return None
    residual = fractions(result["residual"])
    if len(residual) != len(m.cells) or any(residual[a] != 0 for a in range(len(m.cells)) if a not in support):
        return "residual is not carried by the support"
    if all(residual[a] == 0 for a in support):
        return "not replicable, yet the residual is zero"
    vectors = spanning_vectors(m)
    for v in vectors:
        if sum((weights[a] * residual[a] * v[a] for a in support), ZERO) != 0:
            return "residual is not Q-orthogonal to the hedging span"
    span = [[v[a] for a in support] for v in vectors]
    hedged = [payoff[a] - residual[a] for a in support]
    if rank(span + [hedged]) != rank(span):
        return "payoff minus residual is not in the hedging span"
    return None


def birth(m: Market, cell: set):
    for k, cells in enumerate(m.partitions):
        hit = [set(c) for c in cells if cell & set(c)]
        if all(c <= cell for c in hit):
            return k
    return None


def check_tree(m: Market, rc: int, report, weights, expect_tree=None):
    bad = expect_rc(rc, report)
    if bad:
        return bad
    result = report["result"]
    if result.get("tree", ...) is None:
        if expect_tree:
            return f"no tree ({result.get('reason')}), a tree is expected"
        return None if result.get("reason") else "no tree and no reason"
    if expect_tree is False:
        return "a tree was returned where none exists"
    nodes = [(cell_of_label(m, n["cell"]), int(n["birth"])) for n in result["nodes"]]
    charged = {w for a, wt in enumerate(weights) if wt > 0 for w in m.cells[a]}
    for i, (cell, born) in enumerate(nodes):
        if birth(m, cell) != born:
            return f"node {i} has birth {born}, first measurable at {birth(m, cell)}"
        supersets = [j for j, (other, _) in enumerate(nodes) if cell < other]
        parent = min(supersets, key=lambda j: len(nodes[j][0])) if supersets else None
        if result["nodes"][i]["parent"] != parent:
            return f"node {i} has the wrong parent"
        for other, other_born in nodes:
            if born < other_born and not (other <= cell or not (cell & other)):
                return "later-born node neither nested in nor disjoint from an earlier one"
    leaves = [cell for cell, _ in nodes if not any(other < cell for other, _ in nodes)]
    if result["dim"] != len(leaves):
        return "dimension differs from the number of leaves"
    covered = [w for leaf in leaves for w in leaf if w in charged]
    if sorted(covered) != sorted(charged):
        return "leaves do not partition the support"
    return None


def check_enlarge(m: Market, rc: int, report, weights):
    bad = expect_rc(rc, report)
    if bad:
        return bad
    result = report["result"]
    fine = enlarged_market(m)
    got = [sorted(sorted(cell_of_label(m, c)) for c in cells) for cells in result["enlarged_partitions"]]
    if got != [sorted(list(c) for c in cells) for cells in fine.partitions]:
        return "enlarged filtration differs from the one the jumps generate"
    if weights is None:
        return None if "per_jump" not in result else "per-jump data without a measure"
    if measure_weights(result["measure"], fine) != tuple(weights):
        return "enlargement analysed under another measure"
    for jump, data in zip(m.jumps, result["per_jump"]):
        flags = ("supermartingale_ok", "predictable_ok", "compensated_martingale_ok", "martingale_ok")
        if not all(data[f] is True for f in flags):
            return "a per-jump property flag is false"
        tau = [jump.tau[cell[0]] for cell in fine.cells]
        for k, row in enumerate(data["azema"]):
            survive = [ONE if t is None or t > k else ZERO for t in tau]
            if fractions(row) != tuple(condexp(fine, survive, weights, m.partitions[k])):
                return f"Azema supermartingale wrong at k={k}"
        jy = [fractions(row) for row in data["jeulin_yor"]]
        support = [a for a, w in enumerate(weights) if w > 0]
        for k in range(1, len(jy)):
            step = [x - y for x, y in zip(jy[k], jy[k - 1])]
            if any(condexp(fine, step, weights, fine.partitions[k - 1])[a] != 0 for a in support):
                return f"Jeulin-Yor process is no martingale at k={k}"
        if any(condexp(fine, jy[0], weights, m.partitions[0])[a] != 0 for a in support):
            return "Jeulin-Yor process has nonzero mean at k=0"
    return None


def check_informed(m: Market, rc: int, report, base_vertices, fine_vertices):
    bad = expect_rc(rc, report)
    if bad:
        return bad
    result = report["result"]
    fine = enlarged_market(m)
    ext_f = [measure_weights(v, m) for v in result["ext_F"]]
    ext_g = [measure_weights(v, fine) for v in result["ext_G"]]
    if ext_f != list(base_vertices) or ext_g != list(fine_vertices):
        return "extreme points differ from the brute-force vertex sets"
    if result["uninformed_arbitrage"] != (not ext_f) or result["informed_arbitrage"] != (not ext_g):
        return "arbitrage flags disagree with emptiness of the measure sets"
    if result["claims_empty"] != (not m.claims):
        return "claims_empty flag is wrong"
    if not m.claims:
        if result["corollary_equal"] is not True:
            return "corollary set equality fails on a claim-free model"
        base_set = set(ext_f)
        for v in ext_g:
            pushed = [ZERO] * len(m.cells)
            for g, w in enumerate(v):
                outcome = fine.cells[g][0]
                base = next(a for a, cell in enumerate(m.cells) if outcome in cell)
                pushed[base] += w
            if tuple(pushed) not in base_set:
                return "an informed extreme point does not sum to an uninformed one"
    for name, prices in result["prices"].items():
        payoff = m.payoffs[name]
        base = robust_value(ext_f, m.on_cells(payoff))
        informed = robust_value(ext_g, fine.on_cells(payoff))
        shown = tuple(None if p == "-inf" else Fraction(p) for p in (prices["base"], prices["enlarged"]))
        if shown != (base, informed):
            return f"robust prices of {name} are wrong"
        if informed is not None and informed > base:
            return f"informed price of {name} exceeds the uninformed one"
    return None
