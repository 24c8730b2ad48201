"""Per-layer spans and counts, recorded from outside the package.

``Tracer.install`` replaces each traced function of ``causal_layering`` with
a wrapper, at every place the package binds it: a function imported by name
(``cli`` imports ``joint_distribution`` and the ``check_*`` validators) is a
separate module attribute from the one in its home module, so every module
attribute that holds the original object is patched, and methods are patched
on their class. ``Tracer.remove`` puts the originals back.

Spans live in flat in-memory arrays (name, start, end, parent, op) and are
written out once, by ``dump``, at the end of a run. A span's self time is its
duration minus the time covered by its child spans.
"""

from __future__ import annotations

import gzip
import json
import math
import sys
from array import array
from collections import Counter
from time import perf_counter_ns

# span name -> (module, attribute path) of the function it wraps. Both
# discovery entry points are one layer: the peeling loop.
TARGETS = (
    ("oracle.joint_distribution", "oracle", "joint_distribution"),
    ("oracle.marginal", "oracle", "JointTable.marginal"),
    ("oracle.table_init", "oracle", "JointTable.__init__"),
    ("oracle.entropy_bits", "oracle", "JointTable.entropy_bits"),
    ("oracle.marginal_entropy", "oracle", "EntropyOracle.marginal_entropy"),
    ("oracle.cond_entropy", "oracle", "EntropyOracle.cond_entropy"),
    ("oracle.mutual_information", "oracle", "EntropyOracle.mutual_information"),
    ("scm.check_faithfulness", "scm", "check_faithfulness"),
    ("scm.check_directed_faithfulness", "scm", "check_directed_faithfulness"),
    ("scm.check_injective_noise", "scm", "check_injective_noise"),
    ("scm.check_injective_noise_plus_one", "scm", "check_injective_noise_plus_one"),
    ("scm.check_noise_entropy_order", "scm", "check_noise_entropy_order"),
    ("scm.generate_scm", "scm", "generate_scm"),
    ("scm.parse_scm", "scm", "parse_scm"),
    ("scm.scm_to_text", "scm", "scm_to_text"),
    ("graph.d_separated", "graph", "d_separated"),
    ("discovery.peel", "discovery", "sour_discover"),
    ("discovery.peel", "discovery", "sir_discover"),
    ("verify.check_entropy_bounds", "verify", "check_entropy_bounds"),
    ("verify.check_noise_independence", "verify", "check_noise_independence"),
    ("verify.check_discovery_result", "verify", "check_discovery_result"),
    ("cli.main", "cli", "main"),
)

# Layers active on every workload report self time in ms. The others are idle
# on some workload, where a time would read 0.0 on every run; they report
# self time as a share of traced op time instead (their ms are in the dump).
SELF_MS = (
    "oracle.marginal",
    "oracle.table_init",
    "oracle.joint_distribution",
    "oracle.entropy_bits",
    "scm.check_directed_faithfulness",
    "scm.check_injective_noise",
    "scm.check_injective_noise_plus_one",
    "scm.check_noise_entropy_order",
    "graph.d_separated",
    "cli.main",
)
SELF_PCT = (
    "scm.check_faithfulness",
    "scm.parse_scm",
    "scm.scm_to_text",
    "discovery.peel",
    "verify.check_entropy_bounds",
    "verify.check_noise_independence",
    "verify.check_discovery_result",
)
CALLS = (
    "oracle.marginal",
    "oracle.table_init",
    "oracle.joint_distribution",
    "oracle.marginal_entropy",
    "oracle.cond_entropy",
    "oracle.mutual_information",
    "scm.check_faithfulness",
    "graph.d_separated",
)
# counts filled by the hooks below
EXTRA_COUNTS = (
    "oracle.marginal.entries_scanned",
    "oracle.joint_distribution.tuples",
    "scm.check_faithfulness.probes",
    "scm.generate_scm.attempts",
    "discovery.oracle_calls",
    "discovery.rounds",
    "verify.cases",
)


def _before_marginal(tracer, args, kwargs):
    tracer.counts["oracle.marginal.entries_scanned"] += len(args[0])


def _before_joint(tracer, args, kwargs):
    m = args[0] if args else kwargs["scm"]
    tracer.counts["oracle.joint_distribution.tuples"] += math.prod(
        len(m.noise[v].support) for v in m.graph.nodes
    )


def _before_mi(tracer, args, kwargs):
    if tracer.open_spans["scm.check_faithfulness"]:
        tracer.counts["scm.check_faithfulness.probes"] += 1


def _after_generate(tracer, args, kwargs, result):
    tracer.counts["scm.generate_scm.attempts"] += result.meta.attempts
    tracer.counts["scm.generate_scm.models"] += 1


def _after_discover(tracer, args, kwargs, result):
    tracer.counts["discovery.oracle_calls"] += result.oracle_calls
    tracer.counts["discovery.rounds"] += len(result.trace)


def _after_cases(tracer, args, kwargs, result):
    tracer.counts["verify.cases"] += len(result)


BEFORE = {
    "oracle.marginal": _before_marginal,
    "oracle.joint_distribution": _before_joint,
    "oracle.mutual_information": _before_mi,
}
AFTER = {
    "scm.generate_scm": _after_generate,
    "discovery.peel": _after_discover,
    "verify.check_entropy_bounds": _after_cases,
    "verify.check_noise_independence": _after_cases,
}


class Tracer:
    """Spans and counts of the traced layers, over any number of installs."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.op = -1
        self.calls: Counter[str] = Counter()
        self.self_ns: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.open_spans: Counter[str] = Counter()
        self.traced_op_ns = 0
        self._stack: list[list[int]] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        tracer = self
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        before = BEFORE.get(name)
        after = AFTER.get(name)
        stack = self._stack
        open_spans = self.open_spans

        def traced(*args, **kwargs):
            if before is not None:
                before(tracer, args, kwargs)
            idx = len(tracer.span_start)
            tracer.span_name.append(nid)
            tracer.span_parent.append(stack[-1][0] if stack else -1)
            tracer.span_op.append(tracer.op)
            tracer.span_start.append(0)
            tracer.span_end.append(0)
            entry = [idx, 0]
            stack.append(entry)
            open_spans[name] += 1
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                open_spans[name] -= 1
                tracer.span_start[idx] = t0
                tracer.span_end[idx] = t1
                dur = t1 - t0
                tracer.self_ns[name] += dur - entry[1]
                tracer.calls[name] += 1
                if stack:
                    stack[-1][1] += dur
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Patch every binding of every target in the loaded package."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [
            mod for key, mod in list(sys.modules.items())
            if key == "causal_layering" or key.startswith("causal_layering.")
        ]
        for name, home, path in TARGETS:
            owner = sys.modules[f"causal_layering.{home}"]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = self._wrap(name, original)
            if cls_path:
                self._patched.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def remove(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics by name, as (value, unit)."""
        out: dict[str, tuple[float, str]] = {}
        for name in SELF_MS:
            out[f"{name}.self_ms"] = (self.self_ns[name] / 1e6, "ms")
        op_ns = self.traced_op_ns or 1
        for name in SELF_PCT:
            out[f"{name}.self_pct"] = (100.0 * self.self_ns[name] / op_ns, "%")
        for name in CALLS:
            out[f"{name}.calls"] = (self.calls[name], "count")
        for name in EXTRA_COUNTS:
            out[name] = (self.counts[name], "count")
        lookups = self.calls["oracle.marginal_entropy"]
        hit = 1 - self.calls["oracle.marginal"] / lookups if lookups else 0.0
        out["oracle.cache_hit_ratio"] = (hit, "ratio")
        attempts = self.counts["scm.generate_scm.attempts"]
        accept = self.counts["scm.generate_scm.models"] / attempts if attempts else 0.0
        out["scm.generate_scm.accept_ratio"] = (accept, "ratio")
        return out

    def layer_ms(self) -> dict[str, float]:
        """Self time of every traced layer, in ms."""
        return {name: self.self_ns[name] / 1e6 for name in sorted(self.names)}

    def dump(self, path) -> None:
        """Write every span, columnar, as gzip-compressed JSON."""
        base = min(self.span_start) if self.span_start else 0
        doc = {
            "names": self.names,
            "name": self.span_name.tolist(),
            "parent": self.span_parent.tolist(),
            "op": self.span_op.tolist(),
            "start_ns": [t - base for t in self.span_start],
            "end_ns": [t - base for t in self.span_end],
        }
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh, separators=(",", ":"))
