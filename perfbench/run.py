#!/usr/bin/env python3
"""End-to-end benchmark of the ``semistatic`` command line, at reference speed.

Usage (from the repository root):

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 20 --trace 0

Each operation is one CLI command run in-process through
``semistatic.cli.main(argv)`` with stdout captured: one client, one process,
one thread, closed loop.  Set-up (import, scenario generation and writing,
one parse of every file) is repeated and timed; then a warm-up tour of the
README commands runs once; then the workload's fixed command list runs in
whole rounds.  A timer samples the reference kernel (``refkernel.py``)
throughout, and every timed interval is reported as ``raw * R0 / k``, with
``k`` the kernel's speed in and around it.  Outputs are checked afterwards
against the benchmark's own computations (``checks.py``).

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``, per-layer
metrics with ``--trace 1``).  Exit code 2 means the benchmark could not run.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import importlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import refkernel  # noqa: E402
from workloads import WORKLOADS, Op, bundled_markets, readme_ops  # noqa: E402

SETUP_REPEATS = 7
# Nominal reference-speed seconds of one round of each workload's list; the
# run makes round(seconds / nominal) rounds, at least one.
ROUND_SECONDS = {"ladder": 10.0, "duality-corpus": 20.0, "certify-corpus": 20.0}
# A workload reports a tail only with at least this many timed commands.
TAIL_MIN_SAMPLES = 40
TAIL_BEYOND = 10
# In a traced run, every OVERHEAD_EVERY-th command also runs untraced first,
# which gives the tracing overhead on the same inputs.
OVERHEAD_EVERY = 4
# Seconds between reference-kernel samples, and how many samples on each
# side of a timed interval join the ones inside it.
SAMPLE_INTERVAL = 0.025
NEIGHBOURS = 2


class Clock:
    """Reference-speed timing.

    While sampling is on, a timer signal runs one reference-kernel unit every
    ``SAMPLE_INTERVAL`` seconds and records when it ran and how long it took.
    An interval's speed is the mean unit time of the samples inside it plus
    the ``NEIGHBOURS`` nearest on each side, so short commands are judged by
    the kernel runs next to them and long ones by the runs inside them.
    ``now()`` is program time: wall-clock time minus the time spent in the
    kernel.
    """

    def __init__(self):
        self.kernel_s = 0.0
        self.starts: list = []  # wall-clock start of each kernel sample
        self.units: list = []  # its duration
        self.sampling = False
        refkernel.unit()  # warm the kernel's own code paths
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL, SAMPLE_INTERVAL)

    def close(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame) -> None:
        if not self.sampling:
            return
        start = time.perf_counter()
        refkernel.unit()
        spent = time.perf_counter() - start
        self.kernel_s += spent
        self.starts.append(start)
        self.units.append(spent)

    def now(self) -> float:
        return time.perf_counter() - self.kernel_s

    @contextlib.contextmanager
    def sampled(self):
        """Sample the kernel throughout, with NEIGHBOURS samples before and after."""
        self.sampling = True
        try:
            self._settle()
            yield
            self._settle()
        finally:
            self.sampling = False

    def _settle(self) -> None:
        target = len(self.units) + NEIGHBOURS
        while len(self.units) < target:
            time.sleep(SAMPLE_INTERVAL)

    def timed(self, fn):
        """Run fn(); return (result, raw program seconds, wall start, wall end)."""
        begin = time.perf_counter()
        start = self.now()
        result = fn()
        raw = self.now() - start
        return result, raw, begin, time.perf_counter()

    def factor(self, begin: float, end: float) -> float:
        """R0 / mean kernel-unit time around and inside [begin, end]."""
        lo = max(0, bisect.bisect_left(self.starts, begin) - NEIGHBOURS)
        hi = bisect.bisect_right(self.starts, end) + NEIGHBOURS
        window = self.units[lo:hi]
        return refkernel.R0 / (sum(window) / len(window))


def purge(package: str = "semistatic") -> None:
    for name in [n for n in sys.modules if n == package or n.startswith(package + ".")]:
        del sys.modules[name]


def setup_once(workload, seed: int, workdir: Path):
    """Import the program, generate and write the scenarios, parse each once."""
    purge()
    cli = importlib.import_module("semistatic.cli")
    scenario = importlib.import_module("semistatic.scenario")
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    markets = workload.markets(seed) + bundled_markets("tour_")
    paths = [str(m.write(workdir)) for m in markets]
    for path in paths:
        scenario.load_scenario(path)
    return cli, markets, paths


def run_command(cli, argv: list):
    """One CLI command in-process; returns (exit code, stdout text)."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            rc = cli.main(["--format", "json"] + argv)
    except SystemExit as exc:  # argparse rejects its arguments this way
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a traceback in the program is a failed command
        rc = f"raised {type(exc).__name__}: {exc}"
    return rc, out.getvalue()


def check(op: Op, rc, text: str, ctx: dict):
    if not isinstance(rc, int):
        return rc
    try:
        report = json.loads(text) if text.strip() else None
        return op.check(rc, report, ctx)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        return f"report does not parse as expected: {type(exc).__name__}: {exc}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "semistatic" / "cli.py").is_file():
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]()
    workdir = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return run(args, workload, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()


def run(args, workload, workdir: Path) -> int:
    clock = Clock()
    try:
        return measure(args, workload, workdir, clock)
    finally:
        clock.close()


def measure(args, workload, workdir: Path, clock: Clock) -> int:
    setups = []  # (raw seconds, wall begin, wall end)
    with clock.sampled():
        for _ in range(SETUP_REPEATS):
            (cli, markets, paths), *timing = clock.timed(lambda: setup_once(workload, args.seed, workdir))
            setups.append(timing)
    n_tour = sum(m.name.startswith("tour_") for m in markets)
    ops = workload.plan(markets[:-n_tour], paths[:-n_tour])
    warmup = readme_ops(markets[-n_tour:], paths[-n_tour:])
    rounds = max(1, round(args.seconds / ROUND_SECONDS[args.workload]))

    tracer = None
    if args.trace:
        from layers import Tracer

        tracer = Tracer(clock.now)
        tracer.install()

    runs = []  # (op, exit code, stdout, raw seconds, wall begin, wall end)
    pairs = []  # (untraced run, traced run) of the same command, traced runs only
    with clock.sampled():
        for op in warmup + ops * rounds:
            if tracer and len(runs) >= len(warmup) and (len(runs) - len(warmup)) % OVERHEAD_EVERY == 0:
                plain = clock.timed(lambda: run_command(cli, op.argv))
                pairs.append((plain, len(runs)))
            if tracer:
                tracer.active = True
            (rc, text), raw, begin, end = clock.timed(lambda: run_command(cli, op.argv))
            if tracer:
                tracer.active = False
                tracer.end_op()
            runs.append((op, rc, text, raw, begin, end))
    factors = [clock.factor(begin, end) for *_, begin, end in runs]
    timed = runs[len(warmup):]
    ref = [raw * f for (*_, raw, _, _), f in zip(timed, factors[len(warmup):])]
    raw_times = [raw for *_, raw, _, _ in timed]

    failures = check_all([(op, rc, text) for op, rc, text, *_ in runs])
    for argv, reason in failures[:10]:
        print(f"FAILED {' '.join(argv)}: {reason}", file=sys.stderr)

    if tracer:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in tracer.metrics(factors).items()}
        plain = sum(raw * clock.factor(begin, end) for (_, raw, begin, end), _ in pairs)
        traced = sum(runs[i][3] * factors[i] for _, i in pairs)
        metrics["trace.overhead_pct"] = {"value": (traced / plain - 1) * 100, "unit": "%"}
    else:
        setup_ref = [raw * clock.factor(begin, end) for raw, begin, end in setups]
        setup_raw = [raw for raw, _, _ in setups]
        metrics = end_to_end(ref, raw_times, len(ops), setup_ref, setup_raw)
    summary = {"correct": not failures, "attempted": len(runs), "failed": len(failures), "metrics": metrics}

    print(
        f"workload {args.workload}, seed {args.seed}, trace {args.trace}: {rounds} round(s) of "
        f"{len(ops)} commands after {len(warmup)} warm-up commands; {len(failures)} failed"
    )
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}{m.pop('note', '')}")
    out = HERE / "_out"
    out.mkdir(exist_ok=True)
    record = dict(summary, commands=[
        {"argv": [Path(a).name if a.endswith(".json") else a for a in op.argv], "ref_ms": t * 1e3, "raw_ms": r * 1e3}
        for (op, *_), t, r in zip(timed, ref, raw_times)
    ])
    (out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(summary, sort_keys=True))
    return 0


def check_all(results: list) -> list:
    """(argv, reason) for every command whose report fails its check.

    Identical reports of the same planned command get the same verdict, so
    each distinct report is checked once.
    """
    ctx: dict = {}
    verdicts: dict = {}
    failures = []
    for op, rc, text in results:
        key = (id(op), rc, text)
        if key not in verdicts:
            verdicts[key] = check(op, rc, text, ctx)
        if verdicts[key] is not None:
            failures.append((op.argv, verdicts[key]))
    return failures


def tail(times: list, per_round: int):
    """(value, label) of latency_tail_ms.

    With at least TAIL_MIN_SAMPLES commands: the highest percentile with
    TAIL_BEYOND commands beyond it.  With fewer there is no tail, and the
    value is the slowest planned command's median over the rounds.
    """
    n = len(times)
    if n >= TAIL_MIN_SAMPLES:
        return sorted(times)[n - TAIL_BEYOND - 1], f"p{100 * (n - TAIL_BEYOND) / n:.4g} of {n}"
    medians = [statistics.median(times[i::per_round]) for i in range(per_round)]
    return max(medians), f"slowest command's median of {n // per_round}"


def end_to_end(ref: list, raw: list, per_round: int, setup_ref: list, setup_raw: list) -> dict:
    n = len(ref)
    tail_ref, label = tail(ref, per_round)
    tail_raw, _ = tail(raw, per_round)

    def note(raw_value: str) -> str:
        return f"   (raw wall clock {raw_value})"

    return {
        "ops_per_s": {"value": n / sum(ref), "unit": "ops/s", "note": note(f"{n / sum(raw):.6g} ops/s")},
        "latency_p50_ms": {
            "value": statistics.median(ref) * 1e3,
            "unit": "ms",
            "note": note(f"{statistics.median(raw) * 1e3:.6g} ms; {n} samples"),
        },
        "latency_tail_ms": {
            "value": tail_ref * 1e3,
            "unit": "ms",
            "note": note(f"{tail_raw * 1e3:.6g} ms; {label}"),
        },
        "setup_s": {
            "value": statistics.median(setup_ref),
            "unit": "s",
            "note": note(f"{statistics.median(setup_raw):.6g} s; median of {len(setup_ref)}"),
        },
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "unit": "MB",
        },
    }


if __name__ == "__main__":
    raise SystemExit(main())
