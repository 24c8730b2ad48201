"""Checks that oracle measurements and discovery runs match ground truth.

The entropy-bound checks compare H(v | S) against the noise entropy of v
in the four situations where a definite relation is guaranteed. A clause
whose extra premise fails its validator is skipped, never asserted.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Iterable, Iterator, Mapping
from dataclasses import dataclass
from enum import Enum

from . import oracle as _oracle
from .discovery import DiscoveryResult
from .graph import Dag, NodeId, d_separated, layering_violations
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
    parents = g.parents(v)
    kinds: set[BoundKind] = set()
    if parents <= cond:
        kinds.add(BoundKind.AT_MOST_NOISE)
        if g.descendants(v) & cond:
            kinds.add(BoundKind.BELOW_NOISE)
        else:
            kinds.add(BoundKind.EQUALS_NOISE)
    else:
        for p in parents - cond:
            if not (g.descendants(p) & (cond | parents)):
                kinds.add(BoundKind.ABOVE_NOISE)
                break
    return frozenset(kinds)


@dataclass(frozen=True)
class BoundCheckCase:
    node: NodeId
    cond: frozenset[NodeId]
    kind: BoundKind | None
    measured: float
    noise_entropy: float
    verdict: Verdict


def _conditioning_cases(
    nodes: Iterable[NodeId], pool: Callable[[NodeId], list[NodeId]], cases: int, seed: int
) -> Iterator[tuple[NodeId, frozenset[NodeId]]]:
    """(v, S) cases with S drawn from ``pool(v)``.

    Up to 5 nodes: every v in order and every subset of its pool. Beyond:
    ``cases`` draws from ``random.Random(seed)``, each a choice of v followed
    by one coin per pool member, in pool order.
    """
    nodes = sorted(nodes)
    if len(nodes) <= 5:
        for v in nodes:
            members = pool(v)
            for mask in range(1 << len(members)):
                yield v, frozenset(u for k, u in enumerate(members) if mask >> k & 1)
        return
    rng = random.Random(seed)
    for _ in range(cases):
        v = rng.choice(nodes)
        yield v, frozenset(u for u in pool(v) if rng.random() < 0.5)


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

    The whole case list is drawn first and its entropies are asked for in
    one ``oracle.marginal_entropies`` call, so each case's ``cond_entropy``
    is a memo hit. Each distinct (v, S) is classified once, and each node's
    noise entropy is computed once.
    """
    g = m.graph
    audit = assumptions if assumptions is not None else Assumptions(m)
    assert_above = audit.holds("injective_noise_plus_one")
    assert_below = audit.holds("directed_faithfulness")
    nodes = sorted(g.nodes)
    noise = {v: noise_entropy(m, v) for v in nodes}

    def others(v: NodeId) -> list[NodeId]:
        return [u for u in nodes if u != v]

    drawn = list(_conditioning_cases(nodes, others, cases, seed))
    oracle.marginal_entropies(s for v, cond in drawn for s in (cond | {v}, cond))
    kinds_of: dict[tuple[NodeId, frozenset[NodeId]], frozenset[BoundKind]] = {}
    out: list[BoundCheckCase] = []
    for v, cond in drawn:
        kinds = kinds_of.get((v, cond))
        if kinds is None:
            kinds = kinds_of[(v, cond)] = classify_bound_case(g, v, cond)
        measured = oracle.cond_entropy((v,), cond)
        reference = noise[v]
        if not kinds:
            out.append(BoundCheckCase(v, cond, None, measured, reference, Verdict.SKIP))
            continue
        for kind in sorted(kinds, key=lambda k: k.value):
            if kind is BoundKind.ABOVE_NOISE and not assert_above:
                verdict = Verdict.SKIP
            elif kind is BoundKind.BELOW_NOISE and not assert_below:
                verdict = Verdict.SKIP
            else:
                if kind is BoundKind.AT_MOST_NOISE:
                    ok = measured <= reference + tol
                elif kind is BoundKind.EQUALS_NOISE:
                    ok = abs(measured - reference) <= tol
                elif kind is BoundKind.BELOW_NOISE:
                    ok = measured < reference - tol
                else:
                    ok = measured > reference + tol
                verdict = Verdict.PASS if ok else Verdict.FAIL
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
    ``Assumptions.noise_oracle()`` does.

    As in ``check_entropy_bounds``, the cases are drawn first, their
    entropies come from one ``oracle.marginal_entropies`` call, and each
    distinct (v, S) runs one d-separation sweep.
    """
    g = m.graph
    noise_graph = explicit_noise_graph(m)
    nodes = sorted(g.nodes)

    def pool(v: NodeId) -> list[NodeId]:
        below = g.descendants(v)
        return [u for u in nodes if u != v and u not in below]

    drawn = list(_conditioning_cases(nodes, pool, cases, seed))
    noise = {v: frozenset({m.noise_node(v)}) for v in nodes}
    oracle.marginal_entropies(  # the sets mutual_information looks up
        s for v, ss in drawn if ss for s in (noise[v] | ss, noise[v], ss, frozenset())
    )
    separated_of: dict[tuple[NodeId, frozenset[NodeId]], bool] = {}
    out: list[IndependenceCase] = []
    for v, ss in drawn:
        if not ss:
            out.append(IndependenceCase(v, ss, True, 0.0, Verdict.PASS))
            continue
        separated = separated_of.get((v, ss))
        if separated is None:
            separated = separated_of[(v, ss)] = d_separated(noise_graph, {m.noise_node(v)}, ss)
        mi = oracle.mutual_information({m.noise_node(v)}, ss)
        ok = separated and mi <= tol
        out.append(
            IndependenceCase(v, ss, separated, mi, Verdict.PASS if ok else Verdict.FAIL)
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


def _render_cases(cases: Iterable, line: Callable) -> str:
    """One ``line(case)`` per case, then a summary line tallying the verdicts."""
    lines = []
    tally = {Verdict.PASS: 0, Verdict.FAIL: 0, Verdict.SKIP: 0}
    for case in cases:
        tally[case.verdict] += 1
        lines.append(line(case))
    lines.append(
        f"summary: {tally[Verdict.PASS]} pass, {tally[Verdict.FAIL]} fail, "
        f"{tally[Verdict.SKIP]} skip"
    )
    return "\n".join(lines) + "\n"


def render_bound_report(cases: Iterable[BoundCheckCase], labels: Mapping[NodeId, str]) -> str:
    def line(case: BoundCheckCase) -> str:
        kind = case.kind.value if case.kind is not None else "none"
        cond = ",".join(sorted(labels[v] for v in case.cond))
        return (
            f"{kind} v={labels[case.node]} S={{{cond}}} "
            f"H={case.measured:.9f} Hnoise={case.noise_entropy:.9f} {case.verdict.value}"
        )

    return _render_cases(cases, line)


def render_independence_report(
    cases: Iterable[IndependenceCase], labels: Mapping[NodeId, str]
) -> str:
    def line(case: IndependenceCase) -> str:
        cond = ",".join(sorted(labels[v] for v in case.cond))
        return (
            f"noise_independence v={labels[case.node]} S={{{cond}}} "
            f"dsep={str(case.separated).lower()} "
            f"mi={case.mutual_information:.3e} {case.verdict.value}"
        )

    return _render_cases(cases, line)
