#!/usr/bin/env python3
"""Alternating parent/change pairs of the end-to-end benchmark, summarized against BENCHMARK.json.

Usage (from the repository root):

    python scripts/bench_pairs.py --parent HEAD~1 --pairs 10 --seed 3100 \\
        [--workload certify-corpus] --out BENCH_31.json [--trace-seed 3190]

With no ``--workload`` every workload in ``BENCHMARK.json`` is paired, in
its order, so that a regression check covers all of the traffic.

The parent is ``git archive <rev>`` unpacked into a temporary directory; the
change is this checkout's working tree.  Each side caches its bytecode in a
fresh directory of its own (``PYTHONPYCACHEPREFIX``), filled by one untimed
warm-up run per side before pair 0, whose result is discarded.  Pair i runs both sides
on seed ``--seed + i``, the parent first in even pairs and the change first
in odd ones, one process at a time.  Each run's last stdout line (the
benchmark's JSON summary) is kept.  Per workload and end-to-end metric the
summary holds both medians, both quartiles (``statistics.quantiles(n=4)``),
the quartiles of the pairs' change/parent ratios (the pair-level noise a
claim must clear), the pairs the change wins, and two flags: ``unresolved``
when the parent's interquartile range, relative to its median, exceeds the
metric's bound (so a difference within the bound cannot be told from
noise), and ``within_bound`` when the change's median is no worse than the
parent's by more than the bound.
``--trace-seed`` adds one ``--trace 1`` pair per workload, kept as is.

The warm caches make this one of two set-up regimes.  Here each set-up
reads the package's bytecode, and ``ladder``'s ``setup_s`` is about 0.025 s
(``BENCH_37.json``; 0.024 s at the parent of ``BENCH_40.json``).  A fresh
checkout run with bytecode writing off (``PYTHONDONTWRITEBYTECODE=1``)
compiles every module from source at each set-up, and the same metric reads
0.05-0.056 s on the same machine (0.051 s at that parent in
``BENCH_40_source.json``).  Most of ``ladder``'s set-up is the package
import, so a change to import cost moves the two regimes by different
amounts: report a claim on ``setup_s`` in both, the second from
``perfbench/run.py`` run in both checkouts with writing off.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def last_json_line(text: str):
    """The last line of ``text`` that parses as a JSON object, or None."""
    for line in reversed(text.strip().splitlines()):
        try:
            value = json.loads(line)
        except ValueError:
            continue
        if isinstance(value, dict):
            return value
    return None


def run_bench(
    checkout: Path, command: list, workload: str, seed: int, seconds: float, trace: int, pycache: Path
) -> dict:
    """One benchmark run in ``checkout``, its bytecode cached under ``pycache``; its exit code and last JSON line.

    Each side has its own ``pycache``, made fresh by ``main``: a ``__pycache__``
    left in the working tree would otherwise warm the change's imports alone.
    The prefix also hides the standard library's own caches, so writing is
    left on (``PYTHONDONTWRITEBYTECODE`` is dropped): a side's warm-up run
    fills its cache and the timed ones read it, where with writing off every
    run compiled every module from source.
    """
    argv = [sys.executable, *command[1:], "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    argv += ["--trace", str(trace)]
    env = {name: value for name, value in os.environ.items() if name != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPYCACHEPREFIX"] = str(pycache)
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, env=env)
    return {"returncode": proc.returncode, "result": last_json_line(proc.stdout)}


def quartiles(values: list) -> list:
    """The first and third quartiles, ``statistics.quantiles(n=4)``; one value is its own quartiles."""
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return [q1, q3]


def summarize(runs: list, metrics: list) -> dict:
    """Per workload and metric: medians, quartiles, wins and the bound flags of the untraced runs.

    ``runs`` holds dicts with ``workload``, ``pair``, ``side`` ("parent" or
    "change") and ``result`` (a benchmark's last JSON line, or None for a run
    that printed none); ``metrics`` is ``BENCHMARK.json``'s ``end_to_end``.
    """
    summary = {}
    for workload in sorted({r["workload"] for r in runs}):
        mine = [r for r in runs if r["workload"] == workload]
        sides = {side: {r["pair"]: r["result"] for r in mine if r["side"] == side} for side in ("parent", "change")}
        entry = {
            side: {
                "runs": len(results),
                "no_result": sum(result is None for result in results.values()),
                "failed_ops": sum(result["failed"] for result in results.values() if result),
                "attempted_ops": sum(result["attempted"] for result in results.values() if result),
            }
            for side, results in sides.items()
        }
        for metric in metrics:
            name, higher, bound = metric["name"], metric["better"] == "higher", metric["bound"]
            value = {
                side: {pair: result["metrics"][name]["value"] for pair, result in results.items() if result}
                for side, results in sides.items()
            }
            parent, change = sorted(value["parent"].values()), sorted(value["change"].values())
            if not parent or not change:
                entry[name] = {"verdict": "no runs"}
                continue
            pairs = sorted(value["parent"].keys() & value["change"].keys())
            ratios = [value["change"][p] / value["parent"][p] for p in pairs if value["parent"][p]]
            wins = sum(
                value["change"][p] > value["parent"][p] if higher else value["change"][p] < value["parent"][p]
                for p in pairs
            )
            p_med, c_med = statistics.median(parent), statistics.median(change)
            (q1, q3) = quartiles(parent)
            iqr = q3 - q1
            beats_all = min(change) > max(parent) if higher else max(change) < min(parent)
            worse_by = (p_med - c_med) / p_med if higher else (c_med - p_med) / p_med
            gain = c_med - p_med if higher else p_med - c_med
            entry[name] = {
                "parent_median": p_med,
                "change_median": c_med,
                "parent_quartiles": [q1, q3],
                "change_quartiles": quartiles(change),
                "pair_ratio_quartiles": quartiles(ratios) if ratios else None,
                "ratio": c_med / p_med if p_med else None,
                "change_better_pairs": f"{wins}/{len(pairs)}",
                "parent_iqr": iqr,
                "parent_iqr_over_median": iqr / p_med if p_med else None,
                "bound": bound,
                "gain_exceeds_parent_iqr": gain > iqr,
                "every_change_run_beats_every_parent_run": beats_all,
                "unresolved": bool(p_med) and iqr / p_med > bound and not beats_all,
                "within_bound": worse_by <= bound,
            }
        summary[workload] = entry
    return summary


def unpack(rev: str, into: Path) -> None:
    """``git archive rev`` of this repository, unpacked into ``into``."""
    archive = into.with_suffix(".tar")
    with open(archive, "wb") as out:
        subprocess.run(["git", "archive", rev], cwd=ROOT, stdout=out, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(into)
    archive.unlink()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True, help="seed of pair 0; pair i uses seed + i")
    parser.add_argument("--workload", action="append", help="repeat for several; default: every workload")
    parser.add_argument("--seconds", type=float, default=None, help="default: BENCHMARK.json run_seconds")
    parser.add_argument("--trace-seed", type=int, default=None)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    workloads = args.workload or [workload["name"] for workload in bench["workloads"]]
    with tempfile.TemporaryDirectory() as tmp:
        parent = Path(tmp) / "parent"
        unpack(args.parent, parent)
        checkouts = {"parent": parent, "change": ROOT}
        caches = {side: Path(tmp) / f"pycache-{side}" for side in checkouts}
        for side in checkouts:  # a cold first run would read high on setup_s and peak_rss_mb
            run_bench(checkouts[side], bench["command"], workloads[0], args.seed, seconds, 0, caches[side])
        runs, traced, order = [], [], 0
        for workload in workloads:
            for pair in range(args.pairs):
                seed = args.seed + pair
                for side in ("parent", "change") if pair % 2 == 0 else ("change", "parent"):
                    run = run_bench(checkouts[side], bench["command"], workload, seed, seconds, 0, caches[side])
                    runs.append({"workload": workload, "pair": pair, "seed": seed, "side": side, "order": order, **run})
                    order += 1
                    print(f"{workload} pair {pair} {side}: {json.dumps(run['result'])}", file=sys.stderr)
            if args.trace_seed is not None:
                for side in ("parent", "change"):
                    run = run_bench(
                        checkouts[side], bench["command"], workload, args.trace_seed, seconds, 1, caches[side]
                    )
                    traced.append({"workload": workload, "seed": args.trace_seed, "side": side, **run})
    record = {
        "command": " ".join(bench["command"]) + " --workload <w> --seed <seed> --seconds " + f"{seconds:g}",
        "parent": subprocess.run(
            ["git", "rev-parse", "--short", args.parent], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip(),
        "change": "working tree",
        "machine": f"{os.cpu_count()} cores, Python {platform.python_version()}, one benchmark process at a time",
        "pairs": args.pairs,
        "summary": summarize(runs, bench["end_to_end"]),
        "runs": runs,
        "traced": traced,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
