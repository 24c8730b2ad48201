"""Tests of the benchmark itself: tracing changes no output, counts repeat,
and the correctness gates catch wrong outputs.

    python3 -m pytest perfbench -q
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import Op  # noqa: E402

# per-layer metrics that are counts, and must repeat exactly
COUNT_UNITS = ("count", "ratio")
FIRST_OPS = {"gen": 6, "check": 3}


@pytest.fixture(scope="module", params=sorted(FIRST_OPS))
def workload(request, tmp_path_factory):
    wl, _ = run.setup(request.param, 0, tmp_path_factory.mktemp(request.param))
    return wl


def traced_counts(wl, ops):
    tracer = Tracer()
    outputs = []
    for op in ops:
        tracer.install()
        try:
            code, stdout, stderr, _ = run.run_op(wl, op.argv)
        finally:
            tracer.remove()
        assert wl.gate(op, code, stdout, stderr) is None
        outputs.append(stdout)
    counts = {k: v for k, (v, unit) in tracer.metrics().items() if unit in COUNT_UNITS}
    return outputs, counts


def test_traced_stdout_is_byte_identical(workload):
    ops = workload.first_round[: FIRST_OPS[workload.name]]
    plain = []
    for op in ops:
        code, stdout, stderr, _ = run.run_op(workload, op.argv)
        assert workload.gate(op, code, stdout, stderr) is None
        plain.append(stdout)
    traced, _ = traced_counts(workload, ops)
    assert traced == plain


def test_two_traced_runs_give_identical_counts(workload):
    ops = workload.first_round[: FIRST_OPS[workload.name]]
    _, first = traced_counts(workload, ops)
    _, second = traced_counts(workload, ops)
    assert first == second
    assert first["oracle.marginal_entropy.calls"] > 0


def test_tracer_restores_every_binding(workload):
    cli = workload.cli
    before = (cli.main, cli.joint_distribution, cli.check_faithfulness,
              workload.scm._oracle.joint_distribution, workload.scm.d_separated)
    tracer = Tracer()
    tracer.install()
    try:
        during = (cli.main, cli.joint_distribution, cli.check_faithfulness,
                  workload.scm._oracle.joint_distribution, workload.scm.d_separated)
        assert all(new is not old for new, old in zip(during, before))
    finally:
        tracer.remove()
    after = (cli.main, cli.joint_distribution, cli.check_faithfulness,
             workload.scm._oracle.joint_distribution, workload.scm.d_separated)
    assert after == before


def test_counts_repeat_across_processes_and_hash_seeds():
    code = (
        "import json, sys; sys.path.insert(0, 'perfbench'); import run;"
        "run.TRACE_OPS = 4;"
        "import tempfile, pathlib;"
        "res = run.traced_run('check', 3, pathlib.Path(tempfile.mkdtemp()), lambda line: None);"
        "print(json.dumps({k: v for k, (v, u) in res['metrics'].items() if u in ('count', 'ratio')}))"
    )
    outs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run([sys.executable, "-c", code], cwd=HERE.parent, env=env,
                              capture_output=True, text=True, timeout=300, check=True)
        outs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    assert outs[0] == outs[1]


def test_gates_reject_wrong_outputs(workload):
    op = workload.first_round[0]
    code, stdout, stderr, _ = run.run_op(workload, op.argv)
    assert workload.gate(op, 2, stdout, stderr) is not None
    assert workload.gate(op, code, stdout, "warning\n") is not None
    if workload.name == "gen":
        run.run_op(workload, op.argv)
        op.expect["out"].write_text(op.expect["out"].read_text().replace("1", "2", 1))
        assert workload.gate(op, code, stdout, stderr) is not None
        run.run_op(workload, op.argv)
        unrecorded = Op(op.kind, op.argv, dict(op.expect, model_sha256="0" * 64))
        assert workload.gate(unrecorded, code, stdout, stderr) is not None
    else:
        assert workload.gate(op, code, stdout.replace("overall: PASS", "overall: FAIL"),
                             stderr) is not None
        assert workload.gate(op, code, stdout.replace(" calls ", " calls 1", 1),
                             stderr) is not None
