"""Layering discovery from a conditional-entropy oracle.

The graph is never consulted: each round compares conditional entropies
against noise entropies, either given exactly (``KnownNoiseEntropy``) or
exploited through an entropy ordering (``MonotoneEntropy``).

``sour_discover`` peels source groups front-to-back, conditioning each
candidate on everything already removed: a node whose conditional entropy
collapses to its noise entropy has all its parents removed, so it is a
source of the residual graph. ``sir_discover`` peels sink groups back-to-
front, conditioning each candidate on every other remaining node.

``LICENSES`` states which model assumptions make each pair sound.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass

from .graph import Layering, NodeId
from .oracle import TOL

_NOISE = ("nonconstant_noise", "injective_noise")

# (algorithm, mode) -> alternative sets of assumption names (the keys of
# ``scm.VALIDATORS``); a pair is licensed when every name of one set holds.
# Keys are in the order ``causal-layering check`` reports its discovery runs.
#
# No alternative needs ``faithfulness`` (README, "Why no license needs
# faithfulness"). R is the removed set, C the remaining one; both are
# ancestral. With pa(v) in the conditioning set, injective noise gives
# H(v | ·) = H(N_v | ·) <= H(N_v), with equality when the set holds no
# descendant of v: so a residual source or sink v reads exactly H(N_v).
# - sour/known: a non-source v with p its last parent outside R and Q its
#   other parents outside R has H(v | R) >= H(v | R+Q) = H(p | R+Q) + H(N_v)
#   by plus-one injectivity, and H(p | R+Q) >= H(N_p) > 0.
# - sour/monotone: so H(v | R) > H(N_v) >= H(N_a) = H(a | R) for a residual
#   source a above v, by the weak order.
# - sir/known: a non-sink u with child c in C has H(u | C-u) <= H(N_u) -
#   I(N_u; c) < H(N_u), by directed faithfulness.
# - sir/monotone: H(u | C-u) <= H(N_u) < H(N_s) for a residual sink s below
#   u, by the strict order; or < H(N_u) <= H(N_s), by directed faithfulness
#   and the weak order.
LICENSES: dict[tuple[str, str], tuple[tuple[str, ...], ...]] = {
    ("sour", "known"): ((*_NOISE, "injective_noise_plus_one"),),
    ("sour", "monotone"): (
        (*_NOISE, "injective_noise_plus_one", "weak_entropy_order"),
    ),
    ("sir", "known"): ((*_NOISE, "directed_faithfulness"),),
    ("sir", "monotone"): (
        (*_NOISE, "strict_entropy_order"),
        (*_NOISE, "weak_entropy_order", "directed_faithfulness"),
    ),
}


def license_failures(algo: str, mode: str, holds: Callable[[str], bool]) -> list[str]:
    """The failing names of every alternative in the pair's license.

    Empty when one alternative holds in full; the alternatives after it are
    not evaluated.
    """
    failing: dict[str, None] = {}
    for names in LICENSES[(algo, mode)]:
        missing = [name for name in names if not holds(name)]
        if not missing:
            return []
        failing.update(dict.fromkeys(missing))
    return list(failing)


def licensed_pairs(holds: Callable[[str], bool]) -> list[tuple[str, str]]:
    """The (algorithm, mode) pairs whose license holds, in table order."""
    return [pair for pair in LICENSES if not license_failures(*pair, holds)]


@dataclass(frozen=True)
class KnownNoiseEntropy:
    """Select nodes whose conditional entropy is within TOL of their noise entropy."""

    entropies: Mapping[NodeId, float]


@dataclass(frozen=True)
class MonotoneEntropy:
    """Select the extreme conditional entropy and every one within TOL of it."""


DiscoveryMode = KnownNoiseEntropy | MonotoneEntropy


@dataclass(frozen=True)
class IterationTrace:
    """One removal round: what was measured, what qualified, what was taken."""

    entropies: dict[NodeId, float]
    qualifying: frozenset[NodeId]
    selected: frozenset[NodeId]

    @property
    def remaining(self) -> frozenset[NodeId]:
        """The nodes the round measured: those no earlier round selected."""
        return frozenset(self.entropies)


@dataclass(frozen=True)
class DiscoveryResult:
    """One run: whether it peeled ``"sources"`` or ``"sinks"``, its mode and
    its rounds. The layering and the call count are read off the rounds."""

    removal: str
    mode: DiscoveryMode
    trace: tuple[IterationTrace, ...]

    @property
    def layering(self) -> Layering:
        """The selections in round order for sources, reversed for sinks."""
        groups = [step.selected for step in self.trace]
        return Layering(tuple(groups if self.removal == "sources" else reversed(groups)))

    @property
    def oracle_calls(self) -> int:
        """One ``cond_entropy`` per node measured in each round."""
        return sum(len(step.entropies) for step in self.trace)


class AssumptionViolation(RuntimeError):
    """No remaining node matched its known noise entropy; ``trace`` holds the
    rounds before the failing one."""

    def __init__(self, message: str, trace: tuple[IterationTrace, ...]):
        super().__init__(message)
        self.trace = trace


def sour_discover(
    nodes: Iterable[NodeId],
    oracle,
    mode: DiscoveryMode,
    one_at_a_time: bool = False,
) -> DiscoveryResult:
    """Peel residual sources, conditioning on the removed variables."""
    return _peel("sources", nodes, oracle, mode, one_at_a_time)


def sir_discover(
    nodes: Iterable[NodeId],
    oracle,
    mode: DiscoveryMode,
    one_at_a_time: bool = False,
) -> DiscoveryResult:
    """Peel residual sinks, conditioning on the other remaining variables."""
    return _peel("sinks", nodes, oracle, mode, one_at_a_time)


def _peel(
    removal: str,
    nodes: Iterable[NodeId],
    oracle,
    mode: DiscoveryMode,
    one_at_a_time: bool,
) -> DiscoveryResult:
    all_nodes = frozenset(int(v) for v in nodes)
    scope = set(oracle.variables)
    if not all_nodes <= scope:
        raise ValueError(f"oracle does not cover nodes {sorted(all_nodes - scope)}")
    if isinstance(mode, KnownNoiseEntropy):
        uncovered = all_nodes - set(mode.entropies)
        if uncovered:
            raise ValueError(f"known entropies missing for nodes {sorted(uncovered)}")

    trace: list[IterationTrace] = []
    current = all_nodes
    # each round removes a node: known mode raises if none qualifies; monotone's extreme does
    while current:
        # the round's sets in one batch, so each cond_entropy is a memo hit
        givens = {
            v: (all_nodes - current) if removal == "sources" else (current - {v})
            for v in sorted(current)
        }
        oracle.marginal_entropies(s for v, given in givens.items() for s in (given | {v}, given))
        entropies = {v: oracle.cond_entropy((v,), given) for v, given in givens.items()}

        if isinstance(mode, KnownNoiseEntropy):
            qualifying = frozenset(
                v for v in current if abs(entropies[v] - mode.entropies[v]) <= TOL
            )
            if not qualifying:
                raise AssumptionViolation(
                    "no remaining node attained its known noise entropy "
                    f"(iteration {len(trace) + 1})",
                    tuple(trace),
                )
        else:
            extreme = (
                min(entropies.values()) if removal == "sources" else max(entropies.values())
            )
            qualifying = frozenset(v for v in current if abs(entropies[v] - extreme) <= TOL)

        selected = frozenset({min(qualifying)}) if one_at_a_time else qualifying
        trace.append(IterationTrace(entropies, qualifying, selected))
        current -= selected
    return DiscoveryResult(removal, mode, tuple(trace))


def render_discovery_report(
    result: DiscoveryResult, labels: Mapping[NodeId, str]
) -> str:
    """Layering lines, the call count, and one line per removal round."""
    lines = []
    for i, layer in enumerate(result.layering, start=1):
        lines.append(f"layer {i}: " + ", ".join(sorted(labels[v] for v in layer)))
    lines.append(f"oracle calls: {result.oracle_calls}")
    for k, step in enumerate(result.trace, start=1):
        cands = ", ".join(
            f"{labels[v]}: {step.entropies[v]:.9f}"
            for v in sorted(step.entropies, key=lambda v: labels[v])
        )
        chosen = ", ".join(sorted(labels[v] for v in step.selected))
        lines.append(f"iter {k}: candidates {{{cands}}} selected {{{chosen}}}")
    return "\n".join(lines) + "\n"
