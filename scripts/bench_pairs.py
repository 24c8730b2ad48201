"""Summarize paired benchmark runs of a parent commit and a change.

    python3 scripts/bench_pairs.py --parent P1.json P2.json ... \
        --change C1.json C2.json ... [--out BENCH.json]

Each file is one ``perfbench/run.py`` record (what it writes to
``perfbench/out/<workload>-seed<N>-trace<T>.json``), copied aside after its
run. Within a workload and trace setting, the i-th parent record and the
i-th change record form pair i, so list them in the order they ran.

For each workload and each end-to-end metric of ``BENCHMARK.json``, the
``--trace 0`` pairs give both sides' runs, medians and quartiles, the change
of the median, the pairs the change won and lost, and two verdicts:

- ``gain``: the change won at least nine tenths of the pairs (ties count for
  neither side) and its median beats the parent's by more than the distance
  between the parent's quartiles;
- ``within_bound``: the change's median is no worse than the parent's by
  more than the metric's bound.

The ``--trace 1`` pairs give, under ``counts``, every metric whose unit is
``count`` or ``ratio``: both sides' values, one per pair, and whether they
are equal. Such counts do not vary between runs of one commit, so unequal
counts mean the commits did different work.

The summary is printed as JSON, and written to ``--out`` when given.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def paired(
    parent: list[dict], change: list[dict], traced: bool
) -> dict[str, tuple[list[dict], list[dict]]]:
    """Per workload, both sides' records of one trace setting, in the order given."""
    kind = "traced " if traced else ""

    def by_workload(records: list[dict]) -> dict[str, list[dict]]:
        out: dict[str, list[dict]] = {}
        for record in records:
            if bool(record.get("trace")) == traced:
                out.setdefault(record["workload"], []).append(record)
        return out

    parents, changes = by_workload(parent), by_workload(change)
    if parents.keys() != changes.keys():
        raise ValueError(f"{kind}workloads differ: {sorted(parents)} vs {sorted(changes)}")
    for workload, ps in parents.items():
        cs = changes[workload]
        if len(ps) != len(cs):
            raise ValueError(
                f"{workload}: {len(ps)} parent {kind}runs but {len(cs)} change {kind}runs"
            )
    return {workload: (parents[workload], changes[workload]) for workload in sorted(parents)}


def summarize(parent: list[dict], change: list[dict], benchmark: dict) -> dict:
    """Per workload and metric, the paired comparison of two lists of records."""
    summary: dict[str, dict] = {}
    for workload, (ps, cs) in paired(parent, change, traced=False).items():
        metrics = {}
        for spec in benchmark["end_to_end"]:
            name, higher = spec["name"], spec["better"] == "higher"
            pv = [r["metrics"][name]["value"] for r in ps]
            cv = [r["metrics"][name]["value"] for r in cs]
            p_q1, p_med, p_q3 = quartiles(pv)
            c_q1, c_med, c_q3 = quartiles(cv)
            won = sum((c > p) if higher else (c < p) for p, c in zip(pv, cv))
            lost = sum((c < p) if higher else (c > p) for p, c in zip(pv, cv))
            gained = (c_med - p_med) if higher else (p_med - c_med)
            metrics[name] = {
                "unit": spec["unit"],
                "better": spec["better"],
                "bound": spec["bound"],
                "parent": {"median": p_med, "q1": p_q1, "q3": p_q3, "runs": pv},
                "change": {"median": c_med, "q1": c_q1, "q3": c_q3, "runs": cv},
                "median_change_pct": 100.0 * (c_med - p_med) / p_med if p_med else None,
                "pairs_won": won,
                "pairs_lost": lost,
                "gain": won >= 0.9 * len(pv) and gained > p_q3 - p_q1,
                "within_bound": -gained <= spec["bound"] * abs(p_med),
            }
        summary[workload] = {
            "pairs": len(ps),
            "seeds": [[p["seed"], c["seed"]] for p, c in zip(ps, cs)],
            "seconds": [[p["seconds"], c["seconds"]] for p, c in zip(ps, cs)],
            "failures": [[len(p["failures"]), len(c["failures"])] for p, c in zip(ps, cs)],
            "metrics": metrics,
        }
    for workload, (ps, cs) in paired(parent, change, traced=True).items():
        units = {
            name: metric["unit"]
            for record in ps + cs
            for name, metric in record["metrics"].items()
            if metric["unit"] in ("count", "ratio")
        }
        counts = {}
        for name in sorted(units):  # a metric one record lacks reads None there
            pv, cv = ([r["metrics"].get(name, {}).get("value") for r in rs] for rs in (ps, cs))
            counts[name] = {"unit": units[name], "parent": pv, "change": cv, "equal": pv == cv}
        summary.setdefault(workload, {}).update(
            traced_seeds=[[p["seed"], c["seed"]] for p, c in zip(ps, cs)], counts=counts
        )
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--parent", type=Path, nargs="+", required=True)
    parser.add_argument("--change", type=Path, nargs="+", required=True)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    try:
        benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
        parent = [json.loads(p.read_text()) for p in args.parent]
        change = [json.loads(p.read_text()) for p in args.change]
        summary = summarize(parent, change, benchmark)
    except (OSError, ValueError, KeyError) as exc:  # JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    text = json.dumps(summary, indent=1) + "\n"
    if args.out is not None:
        args.out.write_text(text)
    print(text, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
