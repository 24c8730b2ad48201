"""Checks that oracle measurements and discovery runs match ground truth.

The entropy-bound checks compare H(v | S) against the noise entropy of v
in the four situations where a definite relation is guaranteed. A clause
whose extra premise fails its validator is skipped, never asserted.

Conditioning never raises entropy: H(v | S') <= H(v | S) whenever S ⊆ S'.
So each relation is decided on a few extreme sets per node v. Write pa for
v's parents, de for its proper descendants and nd = V ∖ de ∖ {v}:

- at_most_noise (pa ⊆ S): S = pa. Every such S lies above it.
- equals_noise (pa ⊆ S ⊆ nd): S = pa and S = nd. Every such S lies between.
- below_noise (pa ⊆ S, S meets de): S = pa ∪ {d} for each d in de. Every
  such S contains one of them.
- above_noise (a parent p outside S with no descendant in S ∪ pa): for each
  parent p with no descendant in pa, S = V ∖ ({p, v} ∪ desc(p)). Every S
  that p witnesses lies inside it.
- noise independence (S ⊆ nd): S = nd, as I(N_v; S) <= I(N_v; nd).

A PASS on those sets is therefore a PASS on every conditioning set.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Mapping
from dataclasses import dataclass
from enum import Enum

from . import oracle as _oracle
from .discovery import DiscoveryResult
from .graph import Dag, NodeId, layering_violations
from .oracle import TOL
from .scm import Assumptions, Scm, noise_entropy


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


@dataclass(frozen=True)
class BoundCheckCase:
    node: NodeId
    cond: frozenset[NodeId]
    kind: BoundKind
    measured: float
    noise_entropy: float
    verdict: Verdict


def _extreme_sets(g: Dag, v: NodeId) -> Iterator[tuple[BoundKind, frozenset[NodeId]]]:
    """(kind, S) for each set that decides one of v's bound kinds: at most,
    equals, below, then above, each kind's sets in node order."""
    parents, below = g.parents(v), g.descendants(v)
    rest = g.nodes - below - {v}
    yield BoundKind.AT_MOST_NOISE, parents
    yield BoundKind.EQUALS_NOISE, parents
    if rest != parents:
        yield BoundKind.EQUALS_NOISE, rest
    for d in sorted(below):
        yield BoundKind.BELOW_NOISE, parents | {d}
    for p in sorted(g.unmediated_parents(v)):  # the parents with no descendant in pa
        yield BoundKind.ABOVE_NOISE, g.nodes - g.descendants(p) - {p, v}


def check_entropy_bounds(
    m: Scm,
    oracle: "_oracle.EntropyOracle",
    assumptions: Assumptions | None = None,
) -> list[BoundCheckCase]:
    """Measure H(v | S) against noise entropy on each node's extreme sets.

    The strict clauses are gated on their validators: BELOW_NOISE needs
    directed faithfulness and ABOVE_NOISE needs single-parent injectivity;
    when the validator fails, those sets are reported as SKIP. The
    validators are read from ``assumptions`` (by default, run on ``m``).
    One ``oracle.marginal_entropies`` call fills the memo for every set.
    """
    g = m.graph
    audit = assumptions if assumptions is not None else Assumptions(m)
    skip_above = not audit.holds("injective_noise_plus_one")
    skip_below = not audit.holds("directed_faithfulness")
    sets = [(v, kind, cond) for v in sorted(g.nodes) for kind, cond in _extreme_sets(g, v)]
    oracle.marginal_entropies(s for v, _, cond in sets for s in (cond | {v}, cond))
    out: list[BoundCheckCase] = []
    for v, kind, cond in sets:
        measured = oracle.cond_entropy((v,), cond)
        reference = noise_entropy(m, v)
        skip = False
        if kind is BoundKind.AT_MOST_NOISE:
            ok = measured <= reference + TOL
        elif kind is BoundKind.EQUALS_NOISE:
            ok = abs(measured - reference) <= TOL
        elif kind is BoundKind.BELOW_NOISE:
            ok, skip = measured < reference - TOL, skip_below
        else:
            ok, skip = measured > reference + TOL, skip_above
        verdict = Verdict.SKIP if skip else Verdict.PASS if ok else Verdict.FAIL
        out.append(BoundCheckCase(v, cond, kind, measured, reference, verdict))
    return out


@dataclass(frozen=True)
class IndependenceCase:
    node: NodeId
    cond: frozenset[NodeId]
    mutual_information: float
    verdict: Verdict


def check_noise_independence(m: Scm, oracle: "_oracle.EntropyOracle") -> list[IndependenceCase]:
    """I(N_v; nd) per node v, nd the nodes other than v that are not its
    descendants; it must vanish. An empty nd passes with no query.
    ``oracle`` must cover the noise variables, as
    ``Assumptions.noise_oracle()`` does; one batch fills its memo.
    """
    g = m.graph
    tests = [(v, {m.noise_node(v)}, g.nodes - g.descendants(v) - {v}) for v in sorted(g.nodes)]
    oracle.marginal_entropies(  # the sets mutual_information looks up
        s for _, noise, rest in tests if rest for s in (noise | rest, noise, rest, ())
    )
    out: list[IndependenceCase] = []
    for v, noise, rest in tests:
        mi = oracle.mutual_information(noise, rest) if rest else 0.0
        out.append(IndependenceCase(v, rest, mi, Verdict.PASS if mi <= TOL else Verdict.FAIL))
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

    The final layering must be a layering of ``truth``. Each round's
    ``remaining`` set must be the nodes that no earlier round selected, and
    its selection must consist of residual sources (``removal="sources"``:
    remaining nodes with no parent among them) or residual sinks (no child
    among them); with ``expect_exact_selection`` the qualifying set must
    equal that residual set exactly. The trace must rebuild the layering.
    """
    if removal not in ("sources", "sinks"):
        raise ValueError(f"removal must be 'sources' or 'sinks', not {removal!r}")
    problems = layering_violations(truth, result.layering)
    if problems:
        return TraceCheck(False, None, "; ".join(problems))

    def names(vs: Iterable[NodeId]) -> str:
        return ", ".join(truth.label(v) for v in sorted(vs))

    linked = truth.parents if removal == "sources" else truth.children
    remaining = truth.nodes
    rebuilt: list[frozenset[int]] = []
    for i, step in enumerate(result.trace, start=1):
        if step.remaining != remaining:
            return TraceCheck(False, i, f"remaining set {{{names(step.remaining)}}} "
                                        f"is not the unselected set {{{names(remaining)}}}")
        pool = frozenset(v for v in remaining if not linked(v) & remaining)
        if not step.selected <= pool:
            return TraceCheck(
                False, i, f"selected non-{removal[:-1]} nodes: {names(step.selected - pool)}"
            )
        if expect_exact_selection and step.qualifying != pool:
            return TraceCheck(False, i, f"qualifying set {{{names(step.qualifying)}}} "
                                        f"is not the residual set {{{names(pool)}}}")
        if removal == "sources":
            rebuilt.append(step.selected)
        else:
            rebuilt.insert(0, step.selected)
        remaining -= step.selected
    if tuple(rebuilt) != result.layering.layers:
        return TraceCheck(False, None, "trace does not rebuild the layering")
    return TraceCheck(True, None, "")


def check_call_bound(result: DiscoveryResult, n: int) -> bool:
    """Discovery may use at most n(n+1)/2 oracle calls."""
    return result.oracle_calls <= n * (n + 1) // 2


def _render_cases(cases: Iterable, labels: Mapping[NodeId, str], line: Callable) -> str:
    """One ``line(case, S)`` per case, S its set's sorted labels, then a line
    tallying the verdicts."""
    cases = list(cases)
    lines = [line(case, ",".join(sorted(labels[v] for v in case.cond))) for case in cases]
    verdicts = [case.verdict for case in cases]
    lines.append(
        f"summary: {verdicts.count(Verdict.PASS)} pass, {verdicts.count(Verdict.FAIL)} fail, "
        f"{verdicts.count(Verdict.SKIP)} skip"
    )
    return "\n".join(lines) + "\n"


def render_bound_report(cases: Iterable[BoundCheckCase], labels: Mapping[NodeId, str]) -> str:
    def line(case: BoundCheckCase, cond: str) -> str:
        return (
            f"{case.kind._value_} v={labels[case.node]} S={{{cond}}} "
            f"H={case.measured:.9f} Hnoise={case.noise_entropy:.9f} {case.verdict._value_}"
        )

    return _render_cases(cases, labels, line)


def render_independence_report(
    cases: Iterable[IndependenceCase], labels: Mapping[NodeId, str]
) -> str:
    def line(case: IndependenceCase, cond: str) -> str:
        return (
            f"noise_independence v={labels[case.node]} S={{{cond}}} "
            f"mi={case.mutual_information:.3e} {case.verdict._value_}"
        )

    return _render_cases(cases, labels, line)
