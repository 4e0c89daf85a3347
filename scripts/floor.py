#!/usr/bin/env python3
"""The per-command floor: reading a scenario and building the model's int tables, in-process.

Usage (from the repository root):

    PYTHONPATH=src python scripts/floor.py [--seed 7] [--repeat 7] [--layers]

Every command reads its scenario file (``load_scenario``) and then the
model's tables before its own work.  This writes the ``certify-corpus`` and
``duality-corpus`` files for the seed through the benchmark's workloads,
which it only imports, and prints, per corpus, microseconds per file for
``load_scenario`` alone and for the load plus the first reads of
``int_gains``, ``int_claims``, ``coarse_groups``, ``constraints`` and
``terminal_labels``.

``--layers`` prints instead, per workload, microseconds per call of the
layers below the floor, on models loaded (and their tables read) before the
timing: ``validate_model`` on both corpora, ``enumerate_extreme_points`` on
the ``certify-corpus`` and ``ladder`` systems, ``is_semistatically_complete``
on each ``certify-corpus`` model's first vertex, ``enlarge`` on each
``certify-corpus`` model with jumps and ``jeulin_yor`` for each of its jumps
at the first vertex of a non-empty enlarged measure set, the empty-set
certificate ``_phase1_certificate`` on each ``certify-corpus`` model and
enlargement whose measure set is empty, and ``superhedge`` on each
``duality-corpus`` payoff.  Beside ``superhedge_us`` it prints
``superhedge_p99_us``, the 99th percentile of the same per-call times;
beside ``superhedge_us`` and ``certificate_us``, ``*_pivots``, the simplex
pivots of one pass over the calls, counted by wrapping
``simplex._Tableau.pivot`` as ``perfbench/layers.py`` wraps the program's
functions.

Every time is per file or call: each one's best of ``--repeat`` runs, over
``--repeat`` passes, so an interruption costs only the run it hits; a
``*_us`` key is the mean of those bests.
"""

from __future__ import annotations

import argparse
import functools
import statistics
import sys
import tempfile
import time
from pathlib import Path

from semistatic import simplex
from semistatic.duality import _phase1_certificate, superhedge
from semistatic.enlargement import enlarge, jeulin_yor
from semistatic.hedging import is_semistatically_complete
from semistatic.model import validate_model
from semistatic.polytope import enumerate_extreme_points
from semistatic.scenario import load_scenario

ROOT = Path(__file__).resolve().parents[1]
CORPORA = ("certify-corpus", "duality-corpus")
# a layer's calls on one loaded scenario: (function, argument) pairs
LAYERS = {
    "validate_model": lambda s: [(validate_model, s.model)],
    "enumerate_extreme_points": lambda s: [(enumerate_extreme_points, s.model.constraints)],
    "superhedge": lambda s: [(functools.partial(superhedge, payoff), s.model) for payoff in s.payoffs.values()],
    "is_semistatically_complete": lambda s: [
        (functools.partial(is_semistatically_complete, model=s.model), vertex)
        for vertex in enumerate_extreme_points(s.model.constraints).vertices[:1]
    ],
    "enlarge": lambda s: [(functools.partial(enlarge, s.model), s.jumps)] if s.jumps else [],
    "jeulin_yor": lambda s: jeulin_yor_calls(s.model, s.jumps),
    "certificate": lambda s: certificate_calls(s.model, s.jumps),
}
LAYERS_OF = {
    "certify-corpus": (
        "validate_model", "enumerate_extreme_points", "is_semistatically_complete", "enlarge", "jeulin_yor",
        "certificate",
    ),
    "duality-corpus": ("validate_model", "superhedge"),
    "ladder": ("enumerate_extreme_points",),
}


def jeulin_yor_calls(model, jumps) -> list:
    """``jeulin_yor`` for each jump at the first vertex of the enlarged measure set; none if that set is empty."""
    enlarged = enlarge(model, jumps)
    return [
        (functools.partial(jeulin_yor, vertex, enlarged=enlarged), jump)
        for vertex in enumerate_extreme_points(enlarged.model.constraints).vertices[:1]
        for jump in jumps
    ]


def certificate_calls(model, jumps) -> list:
    """``_phase1_certificate`` on the model and on its enlargement by the jumps, each whose measure set is empty."""
    models = [model, enlarge(model, jumps).model] if jumps else [model]
    return [(_phase1_certificate, m) for m in models if not enumerate_extreme_points(m.constraints).vertices]


def load_only(path: str) -> None:
    load_scenario(path)


def load_and_tables(path: str) -> None:
    model = load_scenario(path).model
    model.int_gains, model.int_claims, model.coarse_groups, model.constraints, model.terminal_labels


def best_us(calls: list, repeat: int) -> list[float]:
    """Each (function, argument) call's best of ``repeat`` runs, in microseconds, over ``repeat`` passes."""
    best = [float("inf")] * len(calls)
    for _ in range(repeat):
        for k, (fn, arg) in enumerate(calls):
            start = time.perf_counter()
            fn(arg)
            best[k] = min(best[k], time.perf_counter() - start)
    return [t * 1e6 for t in best]


def pivots(calls: list) -> int:
    """The simplex pivots of one pass over the calls."""
    count = 0
    real = simplex._Tableau.pivot

    def counted(self, row, col):
        nonlocal count
        count += 1
        real(self, row, col)

    simplex._Tableau.pivot = counted
    try:
        for fn, arg in calls:
            fn(arg)
    finally:
        simplex._Tableau.pivot = real
    return count


def corpus_files(workload: str, seed: int, directory: Path) -> list:
    """The workload's scenario files for the seed, written into ``directory``."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    return [str(market.write(directory)) for market in WORKLOADS[workload]().markets(seed)]


def floor(paths: list, repeat: int) -> dict:
    """Mean microseconds per file for the load alone and for the load plus the table reads."""
    return {
        "load_us": round(statistics.mean(best_us([(load_only, path) for path in paths], repeat)), 1),
        "load_and_tables_us": round(statistics.mean(best_us([(load_and_tables, path) for path in paths], repeat)), 1),
    }


def layers(paths: list, names, repeat: int) -> dict:
    """Mean microseconds per call of each named layer on the loaded scenarios."""
    scenarios = [load_scenario(path) for path in paths]
    out = {}
    for name in names:
        calls = [call for scenario in scenarios for call in LAYERS[name](scenario)]
        times = best_us(calls, repeat)
        out[f"{name}_us"] = round(statistics.mean(times), 1)
        if name == "superhedge":  # the LP's tail
            out["superhedge_p99_us"] = round(statistics.quantiles(times, n=100)[98], 1)
        if name in ("superhedge", "certificate"):
            out[f"{name}_pivots"] = pivots(calls)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--repeat", type=int, default=7)
    parser.add_argument("--layers", action="store_true", help="time the layers below the floor instead")
    args = parser.parse_args(argv)
    for workload in LAYERS_OF if args.layers else CORPORA:
        with tempfile.TemporaryDirectory() as directory:
            paths = corpus_files(workload, args.seed, Path(directory))
            result = layers(paths, LAYERS_OF[workload], args.repeat) if args.layers else floor(paths, args.repeat)
            print(workload, len(paths), "files", result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
