"""The workloads: their op pools, op order and per-op correctness gates.

One op is one ``causal_layering.cli.main`` call with a real argument list.
A workload's ops come in rounds. Every round holds the whole pool, so every
run does the same work whatever its seed; the seed orders each round, with
op kinds interleaved round-robin so that a slow phase of the host hits every
kind alike, and for ``check`` it also draws each op's ``--seed``.
"""

from __future__ import annotations

import hashlib
import importlib
import itertools
import json
import random
import re
import sys
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("gen", "check")
CORPUS = Path(__file__).resolve().parent / "corpus"
MANIFEST = CORPUS / "manifest.json"

# Assumptions each gen profile must report as holding in its sidecar.
REQUIRED = {
    ("plus_one", "weak"): (
        "nonconstant_noise", "injective_noise", "injective_noise_plus_one",
        "weak_entropy_order", "faithfulness",
    ),
    ("sir_faithful", "weak"): (
        "nonconstant_noise", "injective_noise", "weak_entropy_order",
        "faithfulness", "directed_faithfulness",
    ),
    ("base", "strict"): (
        "nonconstant_noise", "injective_noise", "strict_entropy_order", "faithfulness",
    ),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


DISCOVERY_LINE = re.compile(r"discovery (\S+): layering (\S+) calls (\d+) PASS$")


def discovery_results(check_stdout: str) -> dict:
    """(algo/mode) -> layering and oracle calls, from ``check``'s passing discovery lines."""
    out = {}
    for line in check_stdout.splitlines():
        m = DISCOVERY_LINE.match(line)
        if m:
            out[m[1]] = {"layering": m[2], "oracle_calls": int(m[3])}
    return out


@dataclass(frozen=True)
class Op:
    kind: str
    argv: tuple[str, ...]
    expect: dict


class Workload:
    """A loaded package, a verified pool of ops, and the gate for their outputs."""

    def __init__(self, name: str, seed: int, src: Path, workdir: Path):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.cli = importlib.import_module("causal_layering.cli")
        self.scm = importlib.import_module("causal_layering.scm")
        origin = Path(self.cli.__file__).resolve()
        if src.resolve() not in origin.parents:
            raise RuntimeError(f"causal_layering was imported from {origin}, not {src}")
        manifest = json.loads(MANIFEST.read_text())
        self.pool = getattr(self, f"_pool_{name}")(manifest)
        self.first_round = self.round(0)

    # --- pools ---------------------------------------------------------------

    def _pool_gen(self, manifest) -> list[Op]:
        spec = manifest["gen"]
        ops = []
        for k, entry in enumerate(spec["pool"]):
            out = self.workdir / f"gen{k}.json"
            argv = ["gen", "--nodes", str(entry["nodes"]), *spec["flags"],
                    "--profile", entry["profile"], "--entropy", entry["entropy"],
                    "--seed", str(entry["seed"]), "--out", str(out)]
            ops.append(Op(f"{entry['profile']}/{entry['entropy']}", tuple(argv),
                          dict(entry, out=out)))
        return ops

    def _pool_check(self, manifest) -> list[Op]:
        ops = []
        for entry in manifest["check"]:
            path = CORPUS / entry["file"]
            if sha256(path.read_bytes()) != entry["sha256"]:
                raise RuntimeError(f"corpus file {entry['file']} does not match its digest")
            argv = ["check", "--scm", str(path)]
            ops.append(Op(entry["profile"], tuple(argv), entry))
        return ops

    # --- order ---------------------------------------------------------------

    def round(self, r: int) -> list[Op]:
        """Round ``r``: the pool, shuffled per kind, kinds taken in turn."""
        rng = random.Random(f"{self.name}/{self.seed}/{r}")
        by_kind: dict[str, list[Op]] = {}
        for op in self.pool:
            by_kind.setdefault(op.kind, []).append(op)
        queues = []
        for kind in sorted(by_kind):
            ops = list(by_kind[kind])
            rng.shuffle(ops)
            queues.append(ops)
        out: list[Op] = []
        while any(queues):
            for q in queues:
                if q:
                    out.append(q.pop())
        if self.name == "check":
            out = [Op(op.kind, (*op.argv, "--seed", str(rng.randrange(1 << 20))), op.expect)
                   for op in out]
        return out

    def ops(self):
        """Rounds without end, round 0 first."""
        for r in itertools.count():
            yield from (self.first_round if r == 0 else self.round(r))

    # --- gates ---------------------------------------------------------------

    def gate(self, op: Op, code, stdout: str, stderr: str) -> str | None:
        """Why the op's outputs are wrong, or None when they are right."""
        if code != 0:
            return f"exit code {code}: {stderr.strip()[-200:]}"
        if stderr:
            return f"unexpected stderr: {stderr.strip()[-200:]}"
        return getattr(self, f"_gate_{self.name}")(op, stdout)

    def _gate_gen(self, op: Op, stdout: str) -> str | None:
        e = op.expect
        out: Path = e["out"]
        report = out.with_name(out.name + ".report.txt")
        try:
            model_bytes = out.read_bytes()
            report_text = report.read_text()
        finally:
            out.unlink(missing_ok=True)
            report.unlink(missing_ok=True)
        if sha256(model_bytes) != e["model_sha256"]:
            return "model bytes differ from the recorded digest"
        if sha256(report_text.encode()) != e["report_sha256"]:
            return "report bytes differ from the recorded digest"
        text = model_bytes.decode()
        try:
            again = self.scm.scm_to_text(self.scm.parse_scm(text))
        except ValueError as exc:
            return f"model does not parse: {exc}"
        if again != text:
            return "model does not round-trip through parse_scm / scm_to_text"
        lines = report_text.splitlines()
        for name in REQUIRED[(e["profile"], e["entropy"])]:
            if not any(ln.startswith(f"{name}: holds") for ln in lines):
                return f"sidecar does not report {name} as holding"
        return None

    def _gate_check(self, op: Op, stdout: str) -> str | None:
        want = f"overall: {op.expect['verdict'].upper()}"
        last = stdout.rstrip("\n").rsplit("\n", 1)[-1]
        if last != want:
            return f"last line {last!r}, expected {want!r}"
        got = discovery_results(stdout)
        if got != op.expect["pairs"]:
            return f"discovery results {got} differ from the manifest's {op.expect['pairs']}"
        return None


def purge_package() -> None:
    """Forget the loaded package so the next setup imports it afresh."""
    for key in [k for k in sys.modules if k == "causal_layering" or k.startswith("causal_layering.")]:
        del sys.modules[key]
