import json
import os
import subprocess
from pathlib import Path

import bench_pairs
import pytest

METRICS = [
    {"name": "ops_per_s", "unit": "ops/s", "better": "higher", "bound": 0.25},
    {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
]


def result(ops, p50, failed=0):
    return {
        "attempted": 100,
        "correct": not failed,
        "failed": failed,
        "metrics": {"ops_per_s": {"value": ops, "unit": "ops/s"}, "latency_p50_ms": {"value": p50, "unit": "ms"}},
    }


def runs(workload, parent, change):
    """Canned runs: pair i gives the parent ``parent[i]`` and the change ``change[i]`` as (ops, p50)."""
    out = []
    for pair, (p, c) in enumerate(zip(parent, change)):
        out.append({"workload": workload, "pair": pair, "side": "parent", "result": result(*p)})
        out.append({"workload": workload, "pair": pair, "side": "change", "result": result(*c)})
    return out


def test_summary_reads_medians_quartiles_wins_and_bounds():
    parent = [(100, 1.0), (110, 1.0), (90, 1.2), (105, 0.9), (95, 1.1)]
    change = [(120, 1.0), (115, 0.8), (100, 1.0), (118, 0.9), (90, 1.5)]
    summary = bench_pairs.summarize(runs("w", parent, change), METRICS)["w"]
    ops = summary["ops_per_s"]
    assert (ops["parent_median"], ops["change_median"]) == (100, 115)
    # statistics.quantiles(n=4), the "exclusive" method: 92.5 and 107.5 for 90, 95, 100, 105, 110
    assert ops["parent_quartiles"] == [92.5, 107.5]
    assert ops["parent_iqr"] == 15
    assert ops["change_better_pairs"] == "4/5"
    # change/parent per pair: 1.2, 115/110, 100/90, 118/105, 90/95; their quartiles, as above
    assert ops["pair_ratio_quartiles"] == pytest.approx([(90 / 95 + 115 / 110) / 2, (118 / 105 + 120 / 100) / 2])
    assert ops["gain_exceeds_parent_iqr"] is False  # 15 is not more than 15
    assert ops["unresolved"] is False and ops["within_bound"] is True
    p50 = summary["latency_p50_ms"]
    assert (p50["parent_median"], p50["change_median"]) == (1.0, 1.0)
    assert p50["change_better_pairs"] == "2/5"  # lower is better; ties are not wins
    assert p50["pair_ratio_quartiles"] == pytest.approx([(0.8 / 1.0 + 1.0 / 1.2) / 2, (1.0 / 1.0 + 1.5 / 1.1) / 2])
    assert summary["parent"] == {"runs": 5, "no_result": 0, "failed_ops": 0, "attempted_ops": 500}


def test_a_wide_parent_spread_is_unresolved_unless_every_change_run_is_better():
    # parent IQR 50 on a median of 100 is 50% of it, beyond the 25% bound
    parent = [(50, 1.0), (100, 1.0), (150, 1.0), (60, 1.0), (140, 1.0)]
    worse = bench_pairs.summarize(runs("w", parent, [(80, 1.0)] * 5), METRICS)["w"]["ops_per_s"]
    assert worse["unresolved"] is True and worse["within_bound"] is True  # 20% worse, within 25%
    better = bench_pairs.summarize(runs("w", parent, [(200, 1.0)] * 5), METRICS)["w"]["ops_per_s"]
    assert better["every_change_run_beats_every_parent_run"] is True and better["unresolved"] is False


def test_a_regression_beyond_the_bound_and_a_run_with_no_result_are_reported():
    canned = runs("w", [(100, 1.0), (100, 1.0)], [(70, 1.4), (70, 1.4)])
    canned[-1]["result"] = None  # the change's second run printed no JSON line
    summary = bench_pairs.summarize(canned, METRICS)["w"]
    assert summary["ops_per_s"]["within_bound"] is False  # 30% fewer ops/s
    assert summary["latency_p50_ms"]["within_bound"] is False  # 40% slower
    assert summary["ops_per_s"]["change_better_pairs"] == "0/1"
    assert summary["ops_per_s"]["change_quartiles"] == [70, 70]  # one value is its own quartiles
    assert summary["change"]["no_result"] == 1


def test_last_json_line_skips_the_report_text():
    text = 'workload w\n  ops_per_s = 1 ops/s\n{"failed": 0}\n'
    assert bench_pairs.last_json_line(text) == {"failed": 0}
    assert bench_pairs.last_json_line("no json here\n[1, 2]\n") is None


def test_each_side_runs_with_a_fresh_bytecode_cache_of_its_own(tmp_path, monkeypatch):
    # a stale __pycache__ in the working tree must not warm the change alone
    monkeypatch.setenv("BENCH_PAIRS_PASSES_THROUGH", "yes")
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")  # would keep each cache empty
    monkeypatch.setattr(bench_pairs, "unpack", lambda rev, into: into.mkdir())
    benchmark_runs = []

    def fake_run(argv, cwd=None, capture_output=False, text=False, env=None, **kwargs):
        if argv[0] == "git":
            return subprocess.CompletedProcess(argv, 0, stdout="abc1234\n", stderr="")
        prefix = Path(env["PYTHONPYCACHEPREFIX"])
        side = "change" if Path(cwd) == bench_pairs.ROOT else "parent"
        benchmark_runs.append((side, prefix, prefix.exists(), dict(env)))
        prefix.mkdir(exist_ok=True)  # as the interpreter would on its first write
        return subprocess.CompletedProcess(argv, 0, stdout="", stderr="")  # a run with no JSON line

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    out = tmp_path / "bench.json"
    argv = ["--parent", "HEAD", "--pairs", "2", "--seed", "1", "--workload", "w", "--seconds", "1"]
    assert bench_pairs.main([*argv, "--trace-seed", "9", "--out", str(out)]) == 0
    sides = [side for side, *_ in benchmark_runs]
    assert sides == ["parent", "change", "parent", "change", "change", "parent", "parent", "change"]
    prefixes = {side: {prefix for s, prefix, *_ in benchmark_runs if s == side} for side in ("parent", "change")}
    assert all(len(p) == 1 for p in prefixes.values()) and prefixes["parent"] != prefixes["change"]
    for side in ("parent", "change"):
        first = next(run for run in benchmark_runs if run[0] == side)
        assert not first[2]  # the side's cache does not exist before its first run
        assert bench_pairs.ROOT not in first[1].parents  # nor does it live in the working tree
    passed = {k: v for k, v in os.environ.items() if k not in ("PYTHONPYCACHEPREFIX", "PYTHONDONTWRITEBYTECODE")}
    for *_, env in benchmark_runs:
        env.pop("PYTHONPYCACHEPREFIX")
        assert env == passed and env["BENCH_PAIRS_PASSES_THROUGH"] == "yes"


def test_each_side_warms_its_cache_once_and_the_warm_up_is_discarded(tmp_path, monkeypatch):
    # a cold first run fills the cache: kept, it would read high on setup_s and peak_rss_mb in pair 0
    monkeypatch.setattr(bench_pairs, "unpack", lambda rev, into: into.mkdir())
    names = [m["name"] for m in json.loads((bench_pairs.ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    calls = []

    def fake_run(argv, cwd=None, capture_output=False, text=False, env=None, **kwargs):
        if argv[0] == "git":
            return subprocess.CompletedProcess(argv, 0, stdout="abc1234\n", stderr="")
        calls.append("change" if Path(cwd) == bench_pairs.ROOT else "parent")
        n = len(calls)  # each run's ops and every metric are its call number
        canned = {"attempted": n, "failed": 0, "metrics": {name: {"value": n} for name in names}}
        return subprocess.CompletedProcess(argv, 0, stdout=json.dumps(canned) + "\n", stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    out = tmp_path / "bench.json"
    argv = ["--parent", "HEAD", "--pairs", "2", "--seed", "1", "--workload", "w", "--seconds", "1"]
    assert bench_pairs.main([*argv, "--out", str(out)]) == 0
    assert calls == ["parent", "change", "parent", "change", "change", "parent"]
    record = json.loads(out.read_text())
    kept = {run["result"]["attempted"] for run in record["runs"]}
    for side in ("parent", "change"):
        assert calls.index(side) + 1 not in kept  # the side's first call is its warm-up
    assert kept == {3, 4, 5, 6}
    summary = record["summary"]["w"]
    assert summary["parent"]["runs"] == summary["change"]["runs"] == 2
    assert summary["parent"]["attempted_ops"] == 3 + 6 and summary["change"]["attempted_ops"] == 4 + 5
    assert summary["ops_per_s"]["parent_median"] == 4.5 and summary["ops_per_s"]["change_median"] == 4.5


def test_with_no_workload_flag_every_benchmark_workload_is_paired(tmp_path, monkeypatch):
    # a regression check that pairs one workload leaves the others' traffic unchecked
    monkeypatch.setattr(bench_pairs, "unpack", lambda rev, into: into.mkdir())
    declared = [w["name"] for w in json.loads((bench_pairs.ROOT / "BENCHMARK.json").read_text())["workloads"]]
    workloads = []

    def fake_run(argv, cwd=None, capture_output=False, text=False, env=None, **kwargs):
        if argv[0] == "git":
            return subprocess.CompletedProcess(argv, 0, stdout="abc1234\n", stderr="")
        workloads.append(argv[argv.index("--workload") + 1])
        return subprocess.CompletedProcess(argv, 0, stdout="", stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--parent", "HEAD", "--pairs", "1", "--seed", "1", "--seconds", "1", "--out", str(out)]) == 0
    assert len(declared) == 3
    assert workloads == [declared[0]] * 2 + [w for w in declared for _ in range(2)]  # the two warm-ups, then each pair
    assert sorted(json.loads(out.read_text())["summary"]) == sorted(declared)
