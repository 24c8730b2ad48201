"""Benchmark of the causal-layering CLI: ``gen`` and ``check``.

    python3 perfbench/run.py --workload {gen,check} --seed N --seconds S --trace {0,1}

Runs in one thread of one process, from the root of a source checkout: it
imports the package from ``src/`` and calls ``causal_layering.cli.main``
in-process. ``--trace 0`` times whole rounds of ops for about ``--seconds``
(and at least 100 ops) and reports the end-to-end metrics. ``--trace 1`` runs
a fixed list of ops, each once untraced and once with every layer wrapped,
and reports the per-layer metrics. The last line of stdout is one JSON
object; a fuller record of the run goes to ``perfbench/out/``.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import itertools
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path[:0] = [str(HERE), str(SRC)]

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Workload, purge_package  # noqa: E402

MIN_OPS = 100  # so that at least 10 latencies lie beyond p90
TRACE_OPS = 100
SETUP_EVERY = 10


def host_reference_ms() -> float:
    """Median time of a fixed pure-Python dict loop: a host-speed probe."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        d: dict[int, int] = {}
        for i in range(100_000):
            k = i % 1021
            d[k] = d.get(k, 0) + i
        times.append((time.perf_counter() - t0) * 1000)
    return statistics.median(times)


def setup(name: str, seed: int, workdir: Path) -> tuple[Workload, float]:
    """Import the package afresh, verify the corpus and build the ops; timed."""
    purge_package()
    gc.collect()
    t0 = time.perf_counter()
    wl = Workload(name, seed, SRC, workdir)
    return wl, time.perf_counter() - t0


def run_op(wl: Workload, argv) -> tuple[int | None, str, str, int]:
    """One ``cli.main`` call with stdout/stderr captured; returns its ns."""
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter_ns()
        try:
            code = wl.cli.main(list(argv))
        except Exception as exc:  # a traceback is a failed op, not a failed run
            code = None
            err.write(f"{type(exc).__name__}: {exc}")
        t1 = time.perf_counter_ns()
    return code, out.getvalue(), err.getvalue(), t1 - t0


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def timed_run(name: str, seed: int, workdir: Path, seconds: float, log) -> dict:
    """Whole rounds of ops, at least MIN_OPS, ending at the round boundary
    nearest to ``seconds`` of wall time.

    Setup is repeated every SETUP_EVERY ops, outside the ops' timing, so that
    its median samples the host over the whole run rather than one moment.
    """
    wl, took = setup(name, seed, workdir)
    setups = [took]
    latencies_ms: list[float] = []
    failures: list[str] = []
    start = time.perf_counter()
    rounds = 0
    while True:
        for op in (wl.first_round if rounds == 0 else wl.round(rounds)):
            code, stdout, stderr, ns = run_op(wl, op.argv)
            latencies_ms.append(ns / 1e6)
            why = wl.gate(op, code, stdout, stderr)
            if why is not None:
                failures.append(f"{' '.join(op.argv)}: {why}")
            if len(latencies_ms) % SETUP_EVERY == 0:
                wl, took = setup(name, seed, workdir)
                setups.append(took)
        rounds += 1
        elapsed = time.perf_counter() - start
        if len(latencies_ms) >= MIN_OPS and elapsed * (1 + 0.5 / rounds) >= seconds:
            break
    ops = len(latencies_ms)
    busy_s = sum(latencies_ms) / 1000
    ordered = sorted(latencies_ms)
    log(f"ops={ops} rounds={rounds} busy_s={busy_s:.3f} wall_s={elapsed:.3f}")
    return {
        "attempted": ops,
        "failures": failures,
        "setups_s": setups,
        "latencies_ms": latencies_ms,
        "ops_per_s": ops / busy_s,
        "op_p50_ms": statistics.median(ordered),
        "op_p90_ms": percentile(ordered, 0.9),
    }


def traced_run(name: str, seed: int, workdir: Path, log) -> dict:
    """Each op untraced and traced, alternating which goes first."""
    wl, took = setup(name, seed, workdir)
    tracer = Tracer()
    failures: list[str] = []
    spent_ns = {False: 0, True: 0}
    for i, op in enumerate(itertools.islice(wl.ops(), TRACE_OPS)):
        stdouts = {}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                tracer.op = i
                tracer.install()
            try:
                code, stdouts[traced], stderr, ns = run_op(wl, op.argv)
            finally:
                if traced:
                    tracer.remove()
            spent_ns[traced] += ns
            why = wl.gate(op, code, stdouts[traced], stderr)
            if why is not None:
                failures.append(f"{'traced ' if traced else ''}{' '.join(op.argv)}: {why}")
        if stdouts[True] != stdouts[False]:
            failures.append(f"{' '.join(op.argv)}: traced stdout differs from untraced")
    plain_ns, traced_ns = spent_ns[False], spent_ns[True]
    tracer.traced_op_ns = traced_ns
    overhead = 100.0 * (traced_ns - plain_ns) / plain_ns
    log(f"trace: ops={TRACE_OPS} untraced_ms={plain_ns / 1e6:.3f} "
        f"traced_ms={traced_ns / 1e6:.3f} overhead_pct={overhead:.2f} spans={len(tracer.span_start)}")
    metrics = tracer.metrics()
    metrics["trace.overhead_pct"] = (overhead, "%")
    return {
        "attempted": 2 * TRACE_OPS,
        "failures": failures,
        "setups_s": [took],
        "tracer": tracer,
        "metrics": metrics,
        "untraced_ms": plain_ns / 1e6,
        "traced_ms": traced_ns / 1e6,
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "causal_layering").is_dir():
        print(f"error: no package source at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    def log(line: str) -> None:
        print(f"[{tag}] {line}", flush=True)

    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        host_start = host_reference_ms()
        if args.trace:
            res = traced_run(args.workload, args.seed, workdir, log)
        else:
            res = timed_run(args.workload, args.seed, workdir, args.seconds, log)
        host_end = host_reference_ms()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    log(f"host reference loop: start_ms={host_start:.3f} end_ms={host_end:.3f} "
        f"end/start={host_end / host_start:.3f}")
    for f in res["failures"][:20]:
        log(f"FAILED {f}")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "setups_s": res["setups_s"],
        "host_reference_ms": {"start": host_start, "end": host_end},
        "failures": res["failures"],
    }
    if args.trace:
        metrics = res["metrics"]
        record.update(untraced_ms=res["untraced_ms"], traced_ms=res["traced_ms"],
                      layer_self_ms=res["tracer"].layer_ms())
        res["tracer"].dump(OUT / f"{tag}-spans.json.gz")
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setup_s = statistics.median(res["setups_s"])
        metrics = {
            "ops_per_s": (res["ops_per_s"], "1/s"),
            "op_p50_ms": (res["op_p50_ms"], "ms"),
            "op_p90_ms": (res["op_p90_ms"], "ms"),
            "peak_rss_mb": (rss_mb, "MB"),
            "setup_s": (setup_s, "s"),
        }
        record.update(latencies_ms=res["latencies_ms"])
        log(f"p50/p90 over {res['attempted']} op latencies; "
            f"setup_s is the median of {len(res['setups_s'])} setups")
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    result = {
        "correct": not res["failures"],
        "attempted": res["attempted"],
        "failed": len(res["failures"]),
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
