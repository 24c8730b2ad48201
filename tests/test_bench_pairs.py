"""``scripts/bench_pairs.py`` on synthetic run records."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "bench_pairs.py"


def record(seed: int, ops_per_s: float, p50: float, rss: float = 25.0) -> dict:
    """A ``perfbench/run.py --trace 0`` record with only the fields the script reads."""
    values = {"ops_per_s": (ops_per_s, "1/s"), "op_p50_ms": (p50, "ms"),
              "op_p90_ms": (2 * p50, "ms"), "peak_rss_mb": (rss, "MB"),
              "setup_s": (0.05, "s")}
    return {"workload": "check", "seed": seed, "seconds": 60.0, "trace": 0, "failures": [],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()}}


def traced(seed: int, calls: int, hit_ratio: float) -> dict:
    """A ``perfbench/run.py --trace 1`` record with only the fields the script reads."""
    values = {"oracle.marginal.calls": (calls, "count"),
              "oracle.cache_hit_ratio": (hit_ratio, "ratio"),
              "oracle.marginal.self_ms": (3.0 * seed, "ms")}
    return {"workload": "check", "seed": seed, "seconds": 10.0, "trace": 1, "failures": [],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()}}


def run(tmp_path: Path, parent: list[dict], change: list[dict]) -> subprocess.CompletedProcess:
    paths = {}
    for side, records in (("parent", parent), ("change", change)):
        paths[side] = []
        for i, rec in enumerate(records):
            path = tmp_path / f"{side}{i}.json"
            path.write_text(json.dumps(rec))
            paths[side].append(str(path))
    return subprocess.run(
        [sys.executable, str(SCRIPT), "--parent", *paths["parent"], "--change", *paths["change"],
         "--out", str(tmp_path / "summary.json")],
        capture_output=True, text=True, timeout=60,
    )


def test_one_pair_gives_medians_quartiles_and_pairs_won(tmp_path):
    proc = run(tmp_path, [record(1, 40.0, 25.0)], [record(1, 50.0, 20.0, rss=30.0)])
    assert proc.returncode == 0, proc.stderr
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert json.loads(proc.stdout) == summary
    check = summary["check"]
    assert check["pairs"] == 1 and check["seeds"] == [[1, 1]]
    ops = check["metrics"]["ops_per_s"]
    assert ops["parent"] == {"median": 40.0, "q1": 40.0, "q3": 40.0, "runs": [40.0]}
    assert ops["change"]["median"] == 50.0
    assert ops["median_change_pct"] == pytest.approx(25.0)
    assert (ops["pairs_won"], ops["pairs_lost"], ops["gain"], ops["within_bound"]) == (
        1, 0, True, True)
    p50 = check["metrics"]["op_p50_ms"]  # lower is better
    assert (p50["pairs_won"], p50["gain"]) == (1, True)
    rss = check["metrics"]["peak_rss_mb"]  # 20% worse against a 10% bound
    assert (rss["pairs_won"], rss["pairs_lost"], rss["gain"], rss["within_bound"]) == (
        0, 1, False, False)
    setup = check["metrics"]["setup_s"]
    assert (setup["pairs_won"], setup["pairs_lost"], setup["gain"]) == (0, 0, False)


def test_quartiles_and_the_spread_rule(tmp_path):
    parent = [record(s, v, 25.0) for s, v in enumerate([40.0, 30.0, 50.0, 45.0, 35.0])]
    change = [record(s, v + 1.0, 25.0) for s, v in enumerate([40.0, 30.0, 50.0, 45.0, 35.0])]
    proc = run(tmp_path, parent, change)
    assert proc.returncode == 0, proc.stderr
    ops = json.loads(proc.stdout)["check"]["metrics"]["ops_per_s"]
    parent = ops["parent"]
    assert (parent["q1"], parent["median"], parent["q3"]) == (35.0, 40.0, 45.0)
    # every pair won, but by less than the parent's own spread: no gain
    assert ops["pairs_won"] == 5 and not ops["gain"]


def test_traced_records_compare_counts_and_ratios(tmp_path):
    parent = [record(1, 40.0, 25.0), traced(1, 120, 0.5)]
    change = [traced(2, 120, 0.75), record(1, 50.0, 20.0)]
    proc = run(tmp_path, parent, change)
    assert proc.returncode == 0, proc.stderr
    check = json.loads(proc.stdout)["check"]
    assert check["pairs"] == 1 and check["metrics"]["ops_per_s"]["pairs_won"] == 1
    assert check["traced_seeds"] == [[1, 2]]
    assert check["counts"] == {  # milliseconds vary between runs, so they are left out
        "oracle.cache_hit_ratio": {"unit": "ratio", "parent": [0.5], "change": [0.75],
                                   "equal": False},
        "oracle.marginal.calls": {"unit": "count", "parent": [120], "change": [120],
                                  "equal": True},
    }
    only_traced = run(tmp_path, [traced(1, 120, 0.5)], [traced(1, 121, 0.5)])
    assert only_traced.returncode == 0, only_traced.stderr
    counts = json.loads(only_traced.stdout)["check"]["counts"]
    assert not counts["oracle.marginal.calls"]["equal"]
    unpaired = run(tmp_path, [traced(1, 120, 0.5)], [record(1, 50.0, 20.0)])
    assert unpaired.returncode == 1
    assert unpaired.stderr.startswith("error: workloads differ: [] vs ['check']")


def test_unpaired_runs_are_refused(tmp_path):
    proc = run(tmp_path, [record(1, 40.0, 25.0)], [record(1, 50.0, 20.0)] * 2)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: check: 1 parent runs but 2 change runs")


def test_a_missing_record_is_a_named_error(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--parent", str(tmp_path / "none.json"),
         "--change", str(tmp_path / "none.json")],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
