"""Checks that oracle measurements and discovery runs match ground truth.

The entropy-bound checks compare H(v | S) against the noise entropy of v
in the four situations where a definite relation is guaranteed. A clause
whose extra premise fails its validator is skipped, never asserted.
"""

from __future__ import annotations

import functools
import random
from collections.abc import Callable, Iterable, Iterator, Mapping
from dataclasses import dataclass
from enum import Enum

from . import oracle as _oracle
from .discovery import DiscoveryResult
from .graph import Dag, NodeId, d_connected_bits, layering_violations
from .scm import Assumptions, Scm, explicit_noise_graph, noise_entropy


class BoundKind(Enum):
    """How H(v | S) must relate to the noise entropy of v."""

    AT_MOST_NOISE = "at_most_noise"      # all parents of v conditioned on
    EQUALS_NOISE = "equals_noise"        # parents in S, no descendant in S
    BELOW_NOISE = "below_noise"          # parents in S, some descendant in S
    ABOVE_NOISE = "above_noise"          # an unconditioned parent with no
    #                                      descendant among S or the parents


class Verdict(Enum):
    PASS = "PASS"
    FAIL = "FAIL"
    SKIP = "SKIP"


def classify_bound_case(g: Dag, v: NodeId, cond: Iterable[NodeId]) -> frozenset[BoundKind]:
    """Which guaranteed relations apply to H(v | cond); empty when none do."""
    cond = frozenset(int(x) for x in cond)
    if v in cond:
        raise ValueError("conditioning set must not contain the target node")
    for x in cond:
        g.label(x)  # membership check
    return frozenset(_bound_kinds(g, v, cond))


def _bound_kinds(g: Dag, v: NodeId, cond: frozenset[NodeId]) -> tuple[BoundKind, ...]:
    """``classify_bound_case`` for a valid case, in the order of the kinds'
    values, built without hashing a member."""
    parents = g.parents(v)
    if parents <= cond:
        strict = BoundKind.BELOW_NOISE if g.descendants(v) & cond else BoundKind.EQUALS_NOISE
        return BoundKind.AT_MOST_NOISE, strict
    if any(not g.descendants(p) & (cond | parents) for p in parents - cond):
        return (BoundKind.ABOVE_NOISE,)
    return ()


@dataclass(frozen=True)
class BoundCheckCase:
    node: NodeId
    cond: frozenset[NodeId]
    kind: BoundKind | None
    measured: float
    noise_entropy: float
    verdict: Verdict


def _conditioning_cases(
    pools: Mapping[NodeId, list[NodeId]], cases: int, seed: int
) -> Iterator[tuple[NodeId, frozenset[NodeId], int]]:
    """(v, S, S as a bit mask) cases with S drawn from ``pools[v]``.

    Up to 5 nodes: every v in order and every subset of its pool. Beyond:
    ``cases`` draws from ``random.Random(seed)``, each a choice of v followed
    by one coin per pool member, in pool order.
    """
    nodes = sorted(pools)
    if len(nodes) <= 5:
        for v in nodes:
            members = pools[v]
            for mask in range(1 << len(members)):
                picked = [u for k, u in enumerate(members) if mask >> k & 1]
                yield v, frozenset(picked), sum(1 << u for u in picked)
        return
    rng = random.Random(seed)
    for _ in range(cases):
        v = rng.choice(nodes)
        picked = [u for u in pools[v] if rng.random() < 0.5]
        yield v, frozenset(picked), sum(1 << u for u in picked)


def check_entropy_bounds(
    m: Scm,
    oracle: "_oracle.EntropyOracle",
    cases: int = 200,
    seed: int = 0,
    tol: float = 1e-9,
    assumptions: Assumptions | None = None,
) -> list[BoundCheckCase]:
    """Measure H(v | S) against noise entropy over (v, S) cases.

    Exhaustive over all conditioning sets up to 5 nodes, sampled beyond.
    The strict clauses are gated on their validators: BELOW_NOISE needs
    directed faithfulness and ABOVE_NOISE needs single-parent injectivity;
    when the validator fails, those cases are reported as SKIP. The
    validators are read from ``assumptions`` (by default, run on ``m``).

    Cases are drawn with their sets' bit masks, and their entropies come
    from one ``oracle.marginal_entropies`` call, so each ``cond_entropy`` is
    a memo hit. Each distinct (v, S) is classified once.
    """
    g = m.graph
    audit = assumptions if assumptions is not None else Assumptions(m)
    skip_above = not audit.holds("injective_noise_plus_one")
    skip_below = not audit.holds("directed_faithfulness")
    nodes = sorted(g.nodes)
    noise = {v: noise_entropy(m, v) for v in nodes}
    others = {v: [u for u in nodes if u != v] for v in nodes}
    drawn = list(_conditioning_cases(others, cases, seed))
    oracle.marginal_entropies(s for v, _, mask in drawn for s in (mask | 1 << v, mask))
    kinds_of: dict[tuple[NodeId, int], tuple[BoundKind, ...]] = {}
    out: list[BoundCheckCase] = []
    for v, cond, mask in drawn:
        kinds = kinds_of.get((v, mask))
        if kinds is None:
            kinds = kinds_of[(v, mask)] = _bound_kinds(g, v, cond)
        measured = oracle.cond_entropy(1 << v, mask)
        reference = noise[v]
        if not kinds:
            out.append(BoundCheckCase(v, cond, None, measured, reference, Verdict.SKIP))
            continue
        for kind in kinds:
            skip = False
            if kind is BoundKind.AT_MOST_NOISE:
                ok = measured <= reference + tol
            elif kind is BoundKind.EQUALS_NOISE:
                ok = abs(measured - reference) <= tol
            elif kind is BoundKind.BELOW_NOISE:
                ok, skip = measured < reference - tol, skip_below
            else:
                ok, skip = measured > reference + tol, skip_above
            verdict = Verdict.SKIP if skip else Verdict.PASS if ok else Verdict.FAIL
            out.append(BoundCheckCase(v, cond, kind, measured, reference, verdict))
    return out


@dataclass(frozen=True)
class IndependenceCase:
    node: NodeId
    cond: frozenset[NodeId]
    separated: bool
    mutual_information: float
    verdict: Verdict


def check_noise_independence(
    m: Scm,
    oracle: "_oracle.EntropyOracle",
    cases: int = 200,
    seed: int = 0,
    tol: float = 1e-9,
) -> list[IndependenceCase]:
    """Noise of v against sets disjoint from v's descendants.

    For every such set the explicit-noise graph must d-separate them and
    the measured mutual information must vanish. Exhaustive up to 5 nodes.
    ``oracle`` must cover the noise variables, as
    ``Assumptions.noise_oracle()`` does. As in ``check_entropy_bounds``,
    one batch fills the memo; one ``d_connected_bits`` sweep from each noise
    variable, given nothing, answers all its cases.
    """
    g = m.graph
    noise_graph = explicit_noise_graph(m)
    nodes = sorted(g.nodes)
    pools = {v: [u for u in nodes if u != v and u not in g.descendants(v)] for v in nodes}
    drawn = list(_conditioning_cases(pools, cases, seed))
    noise = {v: 1 << m.noise_node(v) for v in nodes}
    oracle.marginal_entropies(  # the sets mutual_information looks up
        s for v, _, mask in drawn if mask for s in (noise[v] | mask, noise[v], mask, 0)
    )
    reach = {v: d_connected_bits(noise_graph, noise[v]) for v in nodes}
    out: list[IndependenceCase] = []
    for v, cond, mask in drawn:
        if not mask:
            out.append(IndependenceCase(v, cond, True, 0.0, Verdict.PASS))
            continue
        separated = not (reach[v] & mask)
        mi = oracle.mutual_information(noise[v], mask)
        ok = separated and mi <= tol
        out.append(
            IndependenceCase(v, cond, separated, mi, Verdict.PASS if ok else Verdict.FAIL)
        )
    return out


@dataclass(frozen=True)
class TraceCheck:
    ok: bool
    failed_iteration: int | None
    reason: str


def check_discovery_result(
    truth: Dag,
    result: DiscoveryResult,
    removal: str,
    expect_exact_selection: bool = False,
) -> TraceCheck:
    """Replay a discovery run against the graph that generated the oracle.

    The final layering must be a layering of ``truth``; each round's
    selection must consist of residual sources (``removal="sources"``) or
    sinks; with ``expect_exact_selection`` the qualifying set must equal
    that residual set exactly; and the trace must rebuild the layering.
    """
    if removal not in ("sources", "sinks"):
        raise ValueError(f"removal must be 'sources' or 'sinks', not {removal!r}")
    problems = layering_violations(truth, result.layering)
    if problems:
        return TraceCheck(False, None, "; ".join(problems))
    rebuilt: list[frozenset[int]] = []
    for i, step in enumerate(result.trace, start=1):
        residual = truth.residual(step.remaining)
        pool = residual.sources() if removal == "sources" else residual.sinks()
        if not step.selected <= pool:
            bad = ", ".join(truth.label(v) for v in sorted(step.selected - pool))
            return TraceCheck(False, i, f"selected non-{removal[:-1]} nodes: {bad}")
        if expect_exact_selection and step.qualifying != pool:
            want = ", ".join(truth.label(v) for v in sorted(pool))
            got = ", ".join(truth.label(v) for v in sorted(step.qualifying))
            return TraceCheck(
                False, i, f"qualifying set {{{got}}} is not the residual set {{{want}}}"
            )
        if removal == "sources":
            rebuilt.append(step.selected)
        else:
            rebuilt.insert(0, step.selected)
    if tuple(rebuilt) != result.layering.layers:
        return TraceCheck(False, None, "trace does not rebuild the layering")
    return TraceCheck(True, None, "")


def check_call_bound(result: DiscoveryResult, n: int) -> bool:
    """Discovery may use at most n(n+1)/2 oracle calls."""
    return result.oracle_calls <= n * (n + 1) // 2


def _render_cases(cases: Iterable, labels: Mapping[NodeId, str], line: Callable) -> str:
    """One ``line(case, S)`` per case, S its set's labels (joined once per
    set), then a line tallying the verdicts."""
    lines = []
    text = functools.cache(lambda s: ",".join(sorted(labels[v] for v in s)))
    verdicts = []  # counted by identity: an enum member's hash runs in Python
    for case in cases:
        verdicts.append(case.verdict)
        lines.append(line(case, text(case.cond)))
    lines.append(
        f"summary: {verdicts.count(Verdict.PASS)} pass, {verdicts.count(Verdict.FAIL)} fail, "
        f"{verdicts.count(Verdict.SKIP)} skip"
    )
    return "\n".join(lines) + "\n"


def render_bound_report(cases: Iterable[BoundCheckCase], labels: Mapping[NodeId, str]) -> str:
    def line(case: BoundCheckCase, cond: str) -> str:
        kind = case.kind._value_ if case.kind is not None else "none"
        return (
            f"{kind} v={labels[case.node]} S={{{cond}}} "
            f"H={case.measured:.9f} Hnoise={case.noise_entropy:.9f} {case.verdict._value_}"
        )

    return _render_cases(cases, labels, line)


def render_independence_report(
    cases: Iterable[IndependenceCase], labels: Mapping[NodeId, str]
) -> str:
    def line(case: IndependenceCase, cond: str) -> str:
        return (
            f"noise_independence v={labels[case.node]} S={{{cond}}} "
            f"dsep={str(case.separated).lower()} "
            f"mi={case.mutual_information:.3e} {case.verdict._value_}"
        )

    return _render_cases(cases, labels, line)
