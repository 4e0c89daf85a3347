#!/usr/bin/env python3
"""The per-command floor: reading a scenario and building the model's int tables, in-process.

Usage (from the repository root):

    PYTHONPATH=src python scripts/floor.py [--seed 7] [--repeat 7]

Every command reads its scenario file (``load_scenario``) and then the
model's tables before its own work.  This writes the ``certify-corpus`` and
``duality-corpus`` files for the seed through the benchmark's workloads,
which it only imports, and prints, per corpus, microseconds per file for
``load_scenario`` alone and for the load plus the first reads of
``int_gains``, ``int_claims``, ``coarse_groups``, ``constraints`` and
``terminal_labels``: the best of ``--repeat`` passes over all the files.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from pathlib import Path

from semistatic.scenario import load_scenario

ROOT = Path(__file__).resolve().parents[1]
CORPORA = ("certify-corpus", "duality-corpus")


def load_only(path: str) -> None:
    load_scenario(path)


def load_and_tables(path: str) -> None:
    model = load_scenario(path).model
    model.int_gains, model.int_claims, model.coarse_groups, model.constraints, model.terminal_labels


def per_file_us(paths: list, step, repeat: int) -> float:
    """Microseconds per file of ``step`` over all the paths, best of ``repeat`` passes."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        for path in paths:
            step(path)
        best = min(best, time.perf_counter() - start)
    return best / len(paths) * 1e6


def corpus_files(workload: str, seed: int, directory: Path) -> list:
    """The workload's scenario files for the seed, written into ``directory``."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    return [str(market.write(directory)) for market in WORKLOADS[workload]().markets(seed)]


def floor(paths: list, repeat: int) -> dict:
    """Microseconds per file for the load alone and for the load plus the table reads."""
    return {
        "load_us": round(per_file_us(paths, load_only, repeat), 1),
        "load_and_tables_us": round(per_file_us(paths, load_and_tables, repeat), 1),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--repeat", type=int, default=7)
    args = parser.parse_args(argv)
    for workload in CORPORA:
        with tempfile.TemporaryDirectory() as directory:
            paths = corpus_files(workload, args.seed, Path(directory))
            print(workload, len(paths), "files", floor(paths, args.repeat))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
