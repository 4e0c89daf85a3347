"""Per-layer tracing by wrapping the program's public functions.

Each wrapped function records its call count and its self time (span minus
the spans of wrapped functions it called), plus a few size counters.  The
wrappers are installed at every import site: ``cli``, ``duality``,
``hedging``, ``enlargement``, ``verify`` and others bind names with
``from .x import y``, so replacing only the defining module's attribute
would miss those calls.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict

# module -> functions whose spans are recorded
LAYERS = {
    "cli": ("main", "build_parser"),
    "scenario": ("load_scenario",),
    "model": ("validate_model",),
    "polytope": ("build_constraints", "enumerate_extreme_points", "is_extreme", "member"),
    "simplex": ("solve_lp",),
    "linalg": ("rref", "nullspace", "independent_rows", "min_norm_solution", "project_onto_span"),
    "hedging": ("hedging_span", "is_semistatically_complete", "replicate", "decompose_unhedgeable"),
    "tree": ("extract_tree", "check_theorem_conditions"),
    "duality": ("superhedge", "robust_price", "verify_duality", "detect_arbitrage"),
    "enlargement": ("enlarge", "azema", "compensator", "jeulin_yor", "filtrations_coincide", "informed_compare"),
}

SIZES = (
    "polytope.enumerate_extreme_points.vertices",
    "polytope.enumerate_extreme_points.max_cols",
    "simplex.solve_lp.entries",
    "linalg.rref.entries",
)


def _sizes(name: str, args, result, counts: dict) -> None:
    if name == "polytope.enumerate_extreme_points":
        counts[name + ".vertices"] += len(result.vertices)
        counts[name + ".max_cols"] = max(counts[name + ".max_cols"], len(args[0].allowed))
    elif name == "simplex.solve_lp":
        cost, matrix = args[0], args[1]
        counts[name + ".entries"] += len(matrix) * len(cost)
    elif name == "linalg.rref":
        matrix = args[0]
        counts[name + ".entries"] += len(matrix) * (len(matrix[0]) if matrix else 0)


class Tracer:
    """Call counts, self times and sizes of the wrapped functions.

    Self times are kept per operation in raw seconds and scaled to reference
    speed with each operation's own factor, as for end-to-end times.  When
    ``active`` is false the wrappers only pass calls through.
    """

    def __init__(self, clock):
        self.clock = clock  # program time: wall clock minus reference-kernel time
        self.active = False
        self.calls = defaultdict(int)
        self.sizes = defaultdict(int)
        self.op_self: list = []  # per operation: function -> raw self seconds
        self._op_self = defaultdict(float)
        self._stack: list = []  # child time accumulated by each open span

    def install(self, package: str = "semistatic") -> None:
        modules = {n: m for n, m in sys.modules.items() if n == package or n.startswith(package + ".")}
        for short, names in LAYERS.items():
            home = modules[f"{package}.{short}"]
            for fn_name in names:
                original = getattr(home, fn_name)
                wrapped = self._wrap(f"{short}.{fn_name}", original)
                for module in modules.values():
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapped)

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer._stack.append(0.0)
            start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = tracer.clock() - start
                child = tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1] += span
                tracer.calls[name] += 1
                tracer._op_self[name] += span - child
            _sizes(name, args, result, tracer.sizes)
            return result

        return wrapper

    def end_op(self) -> None:
        self.op_self.append(dict(self._op_self))
        self._op_self.clear()

    def metrics(self, factors) -> dict:
        """Counts, and self times scaled to reference speed by each operation's factor."""
        self_ms = defaultdict(float)
        for per_op, factor in zip(self.op_self, factors):
            for name, seconds in per_op.items():
                self_ms[name] += seconds * factor * 1e3
        out = {}
        for short, names in LAYERS.items():
            for fn_name in names:
                name = f"{short}.{fn_name}"
                out[f"{name}.calls"] = (self.calls[name], "count")
                out[f"{name}.self_ms"] = (self_ms[name], "ms")
        for name in SIZES:
            out[name] = (self.sizes[name], "count")
        return out
