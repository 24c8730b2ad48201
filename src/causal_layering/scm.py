"""Discrete structural causal models over finite alphabets.

An SCM couples a DAG with one independent noise distribution per node and
one total structural table per node. Validators report whether a model
satisfies the assumptions the discovery algorithms lean on (injective
noise, noise-entropy orderings, faithfulness variants), and a seeded
generator produces models satisfying a requested assumption profile by
construction, then re-checks rather than trusts the construction.
"""

from __future__ import annotations

import functools
import json
import math
import random
from collections import Counter
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from itertools import product

from . import oracle as _oracle
from .graph import (
    Dag,
    NodeId,
    d_connected_bits,
    d_separated,  # noqa: F401  perfbench/test_perfbench.py traces this binding
)
from .oracle import TOL


# A "p/q" literal longer than this, or a decimal whose numerator or denominator
# would have more digits, is refused before it becomes a Fraction:
# "1e-100000000" alone would otherwise build a hundred-million-digit integer.
# A bare JSON integer with more digits is refused too. Python's own int-string
# limit is no guard: 3.10.0-3.10.6 lack it, and its error names no JSON path.
_MAX_LITERAL_DIGITS = 1000


def _exact(p: Fraction | Decimal | int | str) -> Fraction:
    """One probability as a Fraction: an int, a ``"p/q"`` or decimal string,
    or a Decimal, each read exactly. Floats are refused, not rounded."""
    if isinstance(p, float):
        if not math.isfinite(p):
            raise ValueError("probabilities must be finite")
        raise ValueError(f"float probability {p!r} is inexact; give it as a string")
    if isinstance(p, (Fraction, int)) and not isinstance(p, bool):
        return Fraction(p)
    if isinstance(p, str):
        if "/" in p:  # Fraction's "p/q" form takes digits only, no exponent
            if len(p) > _MAX_LITERAL_DIGITS:
                raise ValueError(f"probability literal exceeds {_MAX_LITERAL_DIGITS} digits")
            return Fraction(p)
        try:
            p = Decimal(p)
        except InvalidOperation:
            raise ValueError(f"invalid probability {p!r}") from None
    if not isinstance(p, Decimal):
        raise ValueError(f"invalid probability {p!r}")
    if not p.is_finite():
        raise ValueError("probabilities must be finite")
    _, digits, exponent = p.as_tuple()
    if len(digits) + abs(exponent) > _MAX_LITERAL_DIGITS:
        raise ValueError(f"probability literal exceeds {_MAX_LITERAL_DIGITS} digits")
    return Fraction(p)


def _entropy_bits(probs: Iterable[float]) -> float:
    """Entropy in bits of float probabilities, summed in order."""
    acc = 0.0
    for q in probs:
        if q > 0.0:
            acc -= q * math.log2(q)
    return acc


@dataclass(frozen=True)
class Pmf:
    """A probability mass function on distinct integer support points;
    the probabilities are Fractions summing to exactly 1."""

    support: tuple[int, ...]
    probs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.support) != len(self.probs):
            raise ValueError("support and probs must align")
        if not self.support:
            raise ValueError("support must be non-empty")
        if len(set(self.support)) != len(self.support):
            raise ValueError("support values must be distinct")
        if not all(isinstance(p, Fraction) for p in self.probs):
            raise TypeError("probs must be Fractions")
        if any(p < 0 for p in self.probs):
            raise ValueError("probabilities must be non-negative")
        total = sum(self.probs)
        if total != 1:
            raise ValueError(f"probabilities sum to {total}, not 1")

    @classmethod
    def of(cls, support: Iterable[int], probs: Iterable[Fraction | Decimal | int | str]) -> Pmf:
        """Read ints, strings like ``"3/4"`` or ``"0.75"`` and Decimals exactly."""
        return cls(tuple(int(v) for v in support), tuple(_exact(p) for p in probs))

    @classmethod
    def from_weights(cls, support: Iterable[int], weights: Sequence[int]) -> Pmf:
        total = sum(weights)
        if total <= 0:
            raise ValueError("weights must have positive sum")
        return cls(tuple(int(v) for v in support), tuple(Fraction(w, total) for w in weights))

    @classmethod
    def bernoulli(cls, p: Fraction | Decimal | int | str) -> Pmf:
        p = _exact(p)
        return cls((0, 1), (1 - p, p))

    def positive_support(self) -> tuple[int, ...]:
        return tuple(v for v, p in zip(self.support, self.probs) if p > 0)

    def entropy_bits(self) -> float:
        return _entropy_bits(float(p) for p in self.probs)


@dataclass(frozen=True)
class StructuralTable:
    """A total function (parent values, noise value) -> output value.

    Keys are parent-value tuples in ``parent_order`` with the noise value
    appended. Totality over the parent alphabets and noise support is
    enforced by the owning Scm.
    """

    parent_order: tuple[NodeId, ...]
    entries: Mapping[tuple[int, ...], int]


class Scm:
    """A discrete SCM: graph, per-node noise Pmfs, per-node structural tables.

    Construction validates structure (coverage, canonical parent order,
    table totality) and derives each node's alphabet as the set of values
    its table can output. Assumption checks are separate reporting
    functions so that violating instances can still be built and examined.
    """

    __slots__ = ("_graph", "_noise", "_functions", "_alphabets", "_topo", "meta")

    def __init__(
        self,
        graph: Dag,
        noise: Mapping[NodeId, Pmf],
        functions: Mapping[NodeId, StructuralTable],
        meta: "ScmMeta | None" = None,
    ):
        nodes = set(graph.nodes)
        if set(noise) != nodes:
            raise ValueError("noise map must cover exactly the graph nodes")
        if set(functions) != nodes:
            raise ValueError("functions map must cover exactly the graph nodes")
        self._graph = graph
        self._noise = dict(noise)
        self._functions = dict(functions)
        self._topo = graph.topological_order()
        alphabets: dict[int, tuple[int, ...]] = {}
        for v in self._topo:
            table = self._functions[v]
            expected_parents = tuple(sorted(graph.parents(v)))
            if table.parent_order != expected_parents:
                raise ValueError(
                    f"node {graph.label(v)}: parent_order {table.parent_order} "
                    f"is not the canonical {expected_parents}"
                )
            outs: set[int] = set()
            count = 0
            for combo in product(*(alphabets[p] for p in table.parent_order)):
                for u in self._noise[v].support:
                    key = (*combo, u)
                    if key not in table.entries:
                        raise ValueError(
                            f"node {graph.label(v)}: table missing entry for {key}"
                        )
                    outs.add(table.entries[key])
                    count += 1
            if count != len(table.entries):
                raise ValueError(
                    f"node {graph.label(v)}: table has entries outside its domain"
                )
            alphabets[v] = tuple(sorted(outs))
        self._alphabets = alphabets
        self.meta = meta

    @property
    def graph(self) -> Dag:
        return self._graph

    @property
    def noise(self) -> dict[NodeId, Pmf]:
        return self._noise

    @property
    def functions(self) -> dict[NodeId, StructuralTable]:
        return self._functions

    @property
    def alphabets(self) -> dict[NodeId, tuple[int, ...]]:
        return self._alphabets

    @property
    def topological_order(self) -> tuple[NodeId, ...]:
        return self._topo

    def label(self, v: NodeId) -> str:
        return self._graph.label(v)

    def noise_node(self, v: NodeId) -> NodeId:
        """Id of the explicit noise variable feeding ``v``."""
        self._graph.label(v)  # membership check
        return len(self._graph.labels) + v

    def noise_label(self, v: NodeId) -> str:
        return "N_" + self._graph.label(v)


def noise_entropy(m: Scm, v: NodeId) -> float:
    """Entropy of the node's noise distribution, in bits."""
    return m.noise[v].entropy_bits()


@dataclass(frozen=True)
class AssumptionReport:
    """Outcome of one assumption check: it fails iff it has a witness."""

    assumption: str
    witnesses: tuple = ()
    detail: str = ""

    @property
    def holds(self) -> bool:
        return not self.witnesses


def _first_collision(pairs: Iterable[tuple[object, int]]) -> tuple[object, object, int] | None:
    """The first (earlier key, key, output) in (key, output) pairs whose output
    an earlier key already produced; None when every output is new."""
    seen: dict[int, object] = {}
    for key, out in pairs:
        if out in seen:
            return seen[out], key, out
        seen[out] = key
    return None


def check_injective_noise(m: Scm) -> AssumptionReport:
    """For every fixed parent assignment, noise -> output must be one-to-one."""
    witnesses: list[tuple] = []
    for v in sorted(m.graph.nodes):
        table = m.functions[v]
        for combo in product(*(m.alphabets[p] for p in table.parent_order)):
            hit = _first_collision((u, table.entries[(*combo, u)]) for u in m.noise[v].support)
            if hit is not None:
                witnesses.append((m.label(v), combo, *hit))
                break
    return AssumptionReport("injective_noise", tuple(witnesses))


def check_injective_noise_plus_one(m: Scm) -> AssumptionReport:
    """Holding the other parents fixed, (one parent, noise) -> output is one-to-one.

    Vacuous for source nodes.
    """
    witnesses: list[tuple] = []
    for v in sorted(m.graph.nodes):
        table = m.functions[v]
        sup = m.noise[v].support
        pas = table.parent_order
        hit = None
        for j, p in enumerate(pas):
            others = [m.alphabets[o] for k, o in enumerate(pas) if k != j]
            for other_combo in product(*others):
                before, after = other_combo[:j], other_combo[j:]
                hit = _first_collision(
                    ((pv, u), table.entries[(*before, pv, *after, u)])
                    for pv in m.alphabets[p]
                    for u in sup
                )
                if hit is not None:
                    witnesses.append((m.label(v), m.label(p), other_combo, *hit))
                    break
            if hit is not None:
                break
    return AssumptionReport("injective_noise_plus_one", tuple(witnesses))


def check_nonconstant_noise(m: Scm) -> AssumptionReport:
    """Every noise Pmf must put positive probability on at least two values."""
    witnesses = tuple(
        (m.label(v),)
        for v in sorted(m.graph.nodes)
        if len(m.noise[v].positive_support()) < 2
    )
    return AssumptionReport("nonconstant_noise", witnesses)


def check_noise_entropy_order(m: Scm, mode: str) -> AssumptionReport:
    """Noise entropy must not decrease (``weak``) or must increase (``strict``)
    from any node to each of its descendants. A strict step must exceed
    ``oracle.TOL``, the width discovery groups as a tie; a weak step may drop
    1e-12 bits, for rounding between equal entropies of different weights."""
    if mode not in ("weak", "strict"):
        raise ValueError(f"unknown entropy order mode {mode!r}")
    ent = {v: noise_entropy(m, v) for v in m.graph.nodes}
    witnesses: list[tuple] = []
    for v in sorted(m.graph.nodes):
        for d in sorted(m.graph.descendants(v)):
            if mode == "weak":
                ok = ent[v] <= ent[d] + 1e-12
            else:
                ok = ent[d] - ent[v] > TOL
            if not ok:
                witnesses.append((m.label(v), m.label(d), ent[v], ent[d]))
    return AssumptionReport(f"{mode}_entropy_order", tuple(witnesses))


def check_directed_faithfulness(m: Scm, oracle: _oracle.EntropyOracle) -> AssumptionReport:
    """Each noise variable must be dependent on every descendant of its node.

    ``oracle`` must cover the noise variables, as ``Assumptions.noise_oracle()``
    does. The entropies of all (node, descendant) pairs come from one
    ``oracle.marginal_entropies`` call, so each ``mutual_information`` is a
    memo hit.
    """
    nodes = sorted(m.graph.nodes)
    pairs = [(v, d) for v in nodes for d in sorted(m.graph.descendants(v))]
    noise = {v: frozenset({m.noise_node(v)}) for v in nodes}
    oracle.marginal_entropies(s for v, d in pairs for s in (noise[v] | {d}, noise[v], {d}, ()))
    witnesses: list[tuple] = []
    for v, d in pairs:
        mi = oracle.mutual_information(noise[v], {d})
        if mi <= TOL:
            witnesses.append((m.noise_label(v), m.label(d), mi))
    return AssumptionReport("directed_faithfulness", tuple(witnesses))


@functools.lru_cache(maxsize=256)
def _faithfulness_probes(home: tuple[int, ...]) -> tuple[tuple[int, int, int], ...]:
    """(x, y, S) bitmasks to probe over nodes 0..n-1, bit k for node k, where
    ``home[k]`` is the mask of node k's connected component: every pair of
    single nodes x < y in one component, with every S over its other nodes.

    The order is the base-4 digit walk the reports were first defined by,
    restricted to these probes: digit tuples in lexicographic order (digit
    1 for x, 2 for y, 3 for S; the first node's digit most significant).
    Node k joins only partial tuples inside its component.
    """
    walk = [(0, 0, 0)]
    for k, comp in enumerate(home):  # node k's digit: none, x, y or S
        b = 1 << k
        step = []
        for x, y, s in walk:
            step.append((x, y, s))
            if (x | y | s) & ~comp:
                continue
            if not x:
                step.append((b, y, s))
            elif not y:  # y comes after x, so x < y
                step.append((x, b, s))
            step.append((x, y, s | b))
        walk = step
    return tuple(t for t in walk if t[1])


def check_faithfulness(m: Scm, oracle: _oracle.EntropyOracle) -> AssumptionReport:
    """Observed conditional independences must coincide with d-separations.

    ``oracle`` must answer over the model's exact enumeration, as
    ``Assumptions.oracle()`` does, so its table is a product over the
    skeleton's connected components. An independence where the graph is
    d-connected is a violation; the converse means broken arithmetic and
    raises. The report holds, or it fails with one witness: the first
    violation in the digit walk, after which no probe runs.

    Single nodes x < y, with every S over the rest, decide every disjoint
    triple: X and Y are d-connected given S iff some x in X and y in Y are,
    and I(x; y | S) <= I(X; Y | S). A violating triple's violating pair
    comes earlier in the base-4 digit walk over triples. Only pairs inside
    one component C are probed, with S inside C: paths stay in C and the
    table factors over components, so (x, y, S) is d-separated, and
    independent, exactly when (x, y, S ∩ C) is, which comes earlier in the
    walk, and a pair across components is both. ``detail`` keeps the
    walk's labels (``gen``'s sidecar prints them). The broken arithmetic
    check sees the probed pairs only.

    Each component's subsets take their entropies from a lazy depth-first
    walk from the oracle's table projected on C, run only as far as the
    probes need. It projects each proper subset once, from its parent's
    table, which has one more node, and leaves the oracle's memo alone. At
    most |C| * 2**(|C|-1) d-connection sweeps run per component, one per
    (x, S). I(x; y | S) is H(x∪S) + H(y∪S) - H(S) - H(x∪y∪S), summed in
    that order, each entropy bit for bit the whole table's, so every value
    equals ``oracle.mutual_information``.
    """
    g = m.graph
    n = len(g)  # node ids are 0..n-1, so bit k is node k
    components = g.components()
    home = tuple(next(c for c in components if c >> k & 1) for k in range(n))

    def members(mask: int) -> list[NodeId]:
        return [k for k in range(n) if mask >> k & 1]

    def subsets(comp: int):
        """(mask, H) of every subset of ``comp``, depth first from ``comp``:
        each comes after its parent, itself plus the highest node it lacks,
        and a set without node k before one with it."""
        stack = [(comp, 0, oracle.table)]
        while stack:
            mask, k, parent = stack.pop()
            table = parent.marginal(mask)
            yield mask, table.entropy_bits()
            stack.extend(
                (mask ^ 1 << j, j + 1, table) for j in range(n - 1, k - 1, -1) if mask >> j & 1
            )

    # every component's walk gives the empty set the same entropy, so one
    # map serves them all
    walks = {comp: subsets(comp) for comp in components}
    entropies: dict[int, float] = {}

    def h(mask: int, comp: int) -> float:
        while mask not in entropies:
            s, value = next(walks[comp])
            entropies[s] = value
        return entropies[mask]

    reach: dict[int, int] = {}  # S << n | x bit -> nodes d-connected to x given S

    detail = "exhaustive triples" if n <= 6 else "singleton pairs only"
    for xs, ys, ss in _faithfulness_probes(home):
        c = home[xs.bit_length() - 1]
        mi = h(xs | ss, c) + h(ys | ss, c) - h(ss, c) - h(xs | ys | ss, c)
        key = ss << n | xs
        found = reach.get(key)
        if found is None:
            found = reach[key] = d_connected_bits(g, xs, ss)
        sep = not (found & ys)
        if sep and mi > TOL:
            raise RuntimeError(
                f"d-separated sets show mutual information {mi}; "
                "exact arithmetic is broken"
            )
        if not sep and mi <= TOL:
            witness = (*(tuple(m.label(v) for v in members(t)) for t in (xs, ys, ss)), mi)
            return AssumptionReport("faithfulness", (witness,), detail)
    return AssumptionReport("faithfulness", (), detail)


# --- assumption registry -----------------------------------------------------

# Assumption name -> validator(model, assumptions), where ``assumptions`` is
# the model's ``Assumptions``, whose oracles share one enumeration. The checks
# that enumerate no noise tuples come first: the generator stops at the first
# failure, and the gen sidecar lists its reports in this order.
VALIDATORS: dict[str, Callable[[Scm, "Assumptions"], AssumptionReport]] = {
    "nonconstant_noise": lambda m, a: check_nonconstant_noise(m),
    "injective_noise": lambda m, a: check_injective_noise(m),
    "injective_noise_plus_one": lambda m, a: check_injective_noise_plus_one(m),
    "weak_entropy_order": lambda m, a: check_noise_entropy_order(m, "weak"),
    "strict_entropy_order": lambda m, a: check_noise_entropy_order(m, "strict"),
    "faithfulness": lambda m, a: check_faithfulness(m, a.oracle()),
    "directed_faithfulness": lambda m, a: check_directed_faithfulness(m, a.noise_oracle()),
}


class Assumptions:
    """One model's assumption reports, each validator run at most once;
    ``reports`` holds any already computed on this model (as in ``meta``).

    The model is enumerated at most once, within ``budget``, on the first
    oracle request. ``noise_oracle()`` enumerates with the noise columns and
    answers over that table. ``oracle()`` answers over the observed
    variables: it projects them from the noise table when that exists, and
    otherwise enumerates without noise columns. So a caller that will need
    both asks for ``noise_oracle()`` first. An oracle built second shares the
    first one's memo, so each observed set's entropy is computed once per
    command, whichever oracle asks first. Both answer over the model's exact
    enumeration, which the faithfulness audit requires. That audit is the
    exception to the shared memo: its per-component subset walks project
    their own tables from ``oracle()``'s table and keep them. The validators
    and the rest of a command share both oracles. Nothing keeps them after
    the command drops this object.
    """

    def __init__(
        self, m: Scm, budget: int | None = None, reports: Iterable[AssumptionReport] = ()
    ):
        self._model = m
        self._budget = budget
        self._reports = {r.assumption: r for r in reports}
        self._noise_oracle: _oracle.EntropyOracle | None = None
        self._oracle: _oracle.EntropyOracle | None = None

    def noise_oracle(self) -> _oracle.EntropyOracle:
        """Oracle over the observed and the noise variables."""
        if self._noise_oracle is None:
            table = _oracle.joint_distribution(
                self._model, include_noise=True, budget=self._budget
            )
            memo = None if self._oracle is None else self._oracle._cache
            self._noise_oracle = _oracle.EntropyOracle(table, memo)
        return self._noise_oracle

    def oracle(self) -> _oracle.EntropyOracle:
        """Oracle over the observed variables only."""
        if self._oracle is None:
            if self._noise_oracle is not None:
                self._oracle = self._noise_oracle.projected(self._model.graph.nodes)
            else:
                table = _oracle.joint_distribution(self._model, budget=self._budget)
                self._oracle = _oracle.EntropyOracle(table)
        return self._oracle

    def report(self, name: str) -> AssumptionReport:
        if name not in self._reports:
            self._reports[name] = VALIDATORS[name](self._model, self)
        return self._reports[name]

    def holds(self, name: str) -> bool:
        return self.report(name).holds


# --- generation --------------------------------------------------------------

PROFILES = ("base", "plus_one", "sir_faithful")
ENTROPY_MODES = ("known", "weak", "strict")


class GenerationError(RuntimeError):
    """No SCM satisfying the requested configuration was found."""


@dataclass(frozen=True)
class ScmMeta:
    """How a generated instance was produced, and the reports that accepted it."""

    profile: str
    entropy_mode: str
    seed: int
    attempts: int
    reports: tuple[AssumptionReport, ...]


@dataclass(frozen=True)
class GeneratorConfig:
    nodes: int
    edge_prob: float = 0.35
    noise_support_sizes: tuple[int, int] = (2, 3)
    alphabet_sizes: tuple[int, int] = (2, 4)
    profile: str = "base"
    entropy_mode: str = "known"
    max_retries: int = 60
    enumeration_budget: int = _oracle.DEFAULT_ENUMERATION_BUDGET

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise ValueError("nodes must be positive")
        if not 0.0 <= self.edge_prob <= 1.0:
            raise ValueError("edge_prob must lie in [0, 1]")
        if self.profile not in PROFILES:
            raise ValueError(f"unknown profile {self.profile!r}; choose from {PROFILES}")
        if self.entropy_mode not in ENTROPY_MODES:
            raise ValueError(
                f"unknown entropy mode {self.entropy_mode!r}; choose from {ENTROPY_MODES}"
            )
        lo, hi = self.noise_support_sizes
        if not 1 <= lo <= hi:
            raise ValueError("noise_support_sizes must be an ordered positive pair")
        if hi < 2:  # every profile guarantees nonconstant_noise
            raise ValueError(
                "noise_support_sizes must allow 2 or more values: "
                "one noise value is constant noise, which every profile refuses"
            )
        if hi > _MAX_NOISE_WEIGHT:
            raise ValueError(
                f"noise_support_sizes must not exceed {_MAX_NOISE_WEIGHT}, "
                "the number of distinct noise weights"
            )
        lo, hi = self.alphabet_sizes
        if not 1 <= lo <= hi:
            raise ValueError("alphabet_sizes must be an ordered positive pair")
        if self.max_retries < 1:
            raise ValueError("max_retries must be positive")


# A candidate whose structural tables need more entries than this, all nodes
# together, is redrawn.
_TABLE_BUDGET = 1 << 18
# Noise weights are drawn without replacement from 1 to this.
_MAX_NOISE_WEIGHT = 63
# In strict mode, each node's noise entropy passes its ancestors' by at least
# this many bits.
_STRICT_ENTROPY_GAP = 1e-6


class _Retry(Exception):
    """A failed candidate: ``kind`` names the failure for the retry tally,
    ``reason`` describes it."""

    def __init__(self, kind: str, reason: str):
        super().__init__(reason)
        self.kind = kind
        self.reason = reason


def _default_labels(n: int) -> list[str]:
    if n <= 26:
        return [chr(ord("A") + i) for i in range(n)]
    return [f"V{i}" for i in range(n)]


def _sample_pmfs(
    cfg: GeneratorConfig, rng: random.Random, g: Dag, topo: tuple[int, ...]
) -> dict[int, Pmf]:
    smin, smax = cfg.noise_support_sizes
    sizes = {v: rng.randint(smin, smax) for v in topo}
    if cfg.entropy_mode != "known":
        # ascending support sizes along the order keep higher entropies reachable
        ordered = sorted(sizes.values())
        sizes = {v: ordered[i] for i, v in enumerate(topo)}
    pmfs: dict[int, Pmf] = {}
    ent: dict[int, float] = {}
    for v in topo:
        bound = max((ent[a] for a in g.ancestors(v)), default=None)
        size = sizes[v]
        for _ in range(400):
            weights = rng.sample(range(1, _MAX_NOISE_WEIGHT + 1), size) if size > 1 else [1]
            total = sum(weights)  # w / total rounds as float(Fraction(w, total))
            h = _entropy_bits(w / total for w in weights)
            if bound is None or cfg.entropy_mode == "known":
                ok = True
            elif cfg.entropy_mode == "weak":
                ok = h >= bound
            else:
                ok = h >= bound + _STRICT_ENTROPY_GAP
            if ok:
                break
        else:
            raise _Retry(
                "noise_pmf", f"no noise pmf of support size {size} with entropy above {bound:.4f}"
            )
        pmfs[v] = Pmf.from_weights(range(size), weights)
        ent[v] = h
    return pmfs


def _plus_one_tables(
    g: Dag, topo: tuple[int, ...], pmfs: dict[int, Pmf]
) -> dict[int, StructuralTable]:
    # scaled sum: output = sum(parents) + K * noise with K past any parent sum,
    # so the map is one-to-one jointly in (any single parent, noise)
    alphabets: dict[int, tuple[int, ...]] = {}
    tables: dict[int, StructuralTable] = {}
    total = 0
    for v in topo:
        pas = tuple(sorted(g.parents(v)))
        sup = pmfs[v].support
        k = 1 + sum(max(alphabets[p]) for p in pas)
        size = len(sup) * math.prod(len(alphabets[p]) for p in pas)
        total += size
        if total > _TABLE_BUDGET:
            raise _Retry(
                "table_budget", f"structural tables need more than {_TABLE_BUDGET} entries"
            )
        entries: dict[tuple[int, ...], int] = {}
        outs: set[int] = set()
        for combo in product(*(alphabets[p] for p in pas)):
            s = sum(combo)
            for u in sup:
                out = s + k * u
                entries[(*combo, u)] = out
                outs.add(out)
        alphabets[v] = tuple(sorted(outs))
        tables[v] = StructuralTable(pas, entries)
    return tables


def _injection_tables(
    cfg: GeneratorConfig,
    rng: random.Random,
    g: Dag,
    topo: tuple[int, ...],
    pmfs: dict[int, Pmf],
) -> dict[int, StructuralTable]:
    # one random injection of the noise support per parent assignment;
    # re-drawn until every parent actually influences the output somewhere
    amin, amax = cfg.alphabet_sizes
    alphabets: dict[int, tuple[int, ...]] = {}
    tables: dict[int, StructuralTable] = {}
    total = 0
    for v in topo:
        pas = tuple(sorted(g.parents(v)))
        sup = pmfs[v].support
        size = max(len(sup), rng.randint(amin, amax))
        total += len(sup) * math.prod(len(alphabets[p]) for p in pas)
        if total > _TABLE_BUDGET:
            raise _Retry(
                "table_budget", f"structural tables need more than {_TABLE_BUDGET} entries"
            )
        domain = list(product(*(alphabets[p] for p in pas)))
        for _ in range(60):
            maps = {combo: tuple(rng.sample(range(size), len(sup))) for combo in domain}
            if all(_parent_matters(maps, domain, pas, j) for j in range(len(pas))):
                break
        else:
            raise _Retry(
                "parent_dependence", f"node {g.label(v)} would not depend on every parent"
            )
        entries = {
            (*combo, u): maps[combo][i]
            for combo in domain
            for i, u in enumerate(sup)
        }
        alphabets[v] = tuple(sorted({out for m in maps.values() for out in m}))
        tables[v] = StructuralTable(pas, entries)
    return tables


def _parent_matters(maps, domain, pas, j: int) -> bool:
    groups: dict[tuple, tuple] = {}
    for combo in domain:
        key = combo[:j] + combo[j + 1:]
        prev = groups.get(key)
        if prev is None:
            groups[key] = maps[combo]
        elif prev != maps[combo]:
            return True
    return False


def guaranteed_assumptions(profile: str, entropy_mode: str) -> tuple[str, ...]:
    """The assumptions every generated model of this profile and entropy mode
    is verified to satisfy, in registry order."""
    wanted = {"nonconstant_noise", "injective_noise", "faithfulness"}
    if profile == "plus_one":
        wanted.add("injective_noise_plus_one")
    if profile == "sir_faithful":
        wanted.add("directed_faithfulness")
    if entropy_mode != "known":
        wanted.add(f"{entropy_mode}_entropy_order")
    return tuple(name for name in VALIDATORS if name in wanted)


def generate_scm(cfg: GeneratorConfig, seed: int) -> Scm:
    """Generate an SCM matching the profile and entropy mode, or raise.

    Deterministic in (cfg, seed). Every constructed candidate is re-checked
    against ``guaranteed_assumptions``, in registry order but with
    ``_AUDIT_LAST`` last; a candidate failing any of them (in practice
    noise on one value, faithfulness, or directed faithfulness for
    ``sir_faithful``) is discarded and regenerated. The accepted model keeps
    the reports, in registry order, in ``meta.reports``.
    """
    rng = random.Random(seed)
    tally: Counter[str] = Counter()  # failed attempts per kind, in order of first failure
    for attempt in range(1, cfg.max_retries + 1):
        try:
            return _generate_once(cfg, rng, seed, attempt)
        except _Retry as r:
            tally[r.kind] += 1
            last = r.reason
    counts = ", ".join(f"{n} {kind}" for kind, n in tally.items())
    raise GenerationError(
        f"profile={cfg.profile!r} entropy={cfg.entropy_mode!r} nodes={cfg.nodes} "
        f"unsatisfied after {cfg.max_retries} attempts ({counts}; last failure: {last})"
    )


# Audited last: every generated table holds them, whatever the config. Each
# parent assignment maps the noise support to distinct outputs (a sample
# without replacement, or plus_one's noise scaled past every parent sum), so
# a rejection names the failure that registry order names.
_AUDIT_LAST = ("injective_noise", "injective_noise_plus_one")


def _generate_once(
    cfg: GeneratorConfig, rng: random.Random, seed: int, attempt: int
) -> Scm:
    n = cfg.nodes
    labels = _default_labels(n)
    order = list(range(n))
    rng.shuffle(order)
    edges = [
        (order[i], order[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < cfg.edge_prob
    ]
    g = Dag(labels, edges)
    topo = g.topological_order()

    pmfs = _sample_pmfs(cfg, rng, g, topo)
    if cfg.profile == "plus_one":
        tables = _plus_one_tables(g, topo, pmfs)
    else:
        tables = _injection_tables(cfg, rng, g, topo, pmfs)
    m = Scm(g, pmfs, tables)

    # construction is re-verified, never trusted
    audit = Assumptions(m, cfg.enumeration_budget)
    names = guaranteed_assumptions(cfg.profile, cfg.entropy_mode)
    # registry order with _AUDIT_LAST last (sorted is stable); each report
    # is computed once, so meta.reports reuses them
    for name in sorted(names, key=_AUDIT_LAST.__contains__):
        if name == "faithfulness" and "directed_faithfulness" in names:
            audit.noise_oracle()  # one enumeration serves both oracles
        report = audit.report(name)
        if not report.holds:
            raise _Retry(name, f"{name} fails; first witness {report.witnesses[0]}")
    m.meta = ScmMeta(
        cfg.profile, cfg.entropy_mode, seed, attempt, tuple(map(audit.report, names))
    )
    return m


# --- file format --------------------------------------------------------------


class _JsonDecimal(Decimal):
    """A JSON number with a fraction or exponent, shown as it was written."""

    __repr__ = Decimal.__str__


class _JsonBigInt(_JsonDecimal):
    """A JSON integer over the literal bound, kept as written so that the
    field that reads it can fail with its JSON path."""


def _parse_json_int(literal: str) -> int | _JsonBigInt:
    if len(literal.lstrip("-")) > _MAX_LITERAL_DIGITS:
        return _JsonBigInt(literal)
    return int(literal)


def _json_int(raw) -> int:
    if isinstance(raw, _JsonBigInt):
        raise ValueError(f"integer literal exceeds {_MAX_LITERAL_DIGITS} digits")
    # a float, a string or a bool would otherwise coerce into a different model
    if type(raw) is not int:
        raise ValueError(f"expected an integer, got {raw!r}")
    return raw


def _json_str(raw) -> str:
    if not isinstance(raw, str):
        raise ValueError(f"expected a string, got {_json_type(raw)}")
    return raw


def _json_ints(raw) -> tuple[int, ...]:
    if not isinstance(raw, list):
        raise ValueError(f"expected a list of integers, got {raw!r}")
    return tuple(_json_int(x) for x in raw)


# What error messages call a parsed JSON value (NaN and Infinity parse as floats).
_JSON_TYPES = ((type(None), "null"), (bool, "a boolean"), ((int, float, Decimal), "a number"),
               (str, "a string"), (list, "an array"), (dict, "an object"))


def _json_type(raw) -> str:
    return next((name for t, name in _JSON_TYPES if isinstance(raw, t)), type(raw).__name__)


def _json_object(raw) -> dict:
    if not isinstance(raw, dict):
        raise ValueError(f"expected an object, got {_json_type(raw)}")
    return raw


def _json_block(items: Iterable[str], pad: str, brackets: str) -> str:
    """Rendered ``items`` in ``brackets``, one per line at ``pad`` plus two
    spaces, the closing bracket at ``pad``: how ``json.dumps(indent=2)``
    lays out a list or an object. Empty, it is just the brackets."""
    inner = "\n  " + pad
    body = ("," + inner).join(items)
    return brackets[0] + inner + body + "\n" + pad + brackets[1] if body else brackets


def scm_to_text(m: Scm) -> str:
    """The model file: byte for byte ``json.dumps(d, indent=2,
    sort_keys=True)`` and a newline, for the model as the dict d of node
    list, edge list, and noise and function objects keyed by label, written
    without the pure-Python encoder that ``indent`` selects. Strings go
    through ``encode_basestring_ascii``, the escaper ``json.dumps`` uses."""
    quote = json.encoder.encode_basestring_ascii
    nodes = sorted(m.graph.nodes)
    label = {v: quote(m.label(v)) for v in nodes}
    by_label = sorted(nodes, key=m.label)  # sort_keys orders objects keyed by label

    def ints(values: Iterable[int], pad: str) -> str:
        return _json_block(map(str, values), pad, "[]")

    def node(v: NodeId) -> str:
        return _json_block(
            (f'"alphabet": {ints(m.alphabets[v], " " * 6)}', f'"label": {label[v]}'),
            " " * 4, "{}",
        )

    def noise(v: NodeId) -> str:
        pmf = m.noise[v]
        probs = _json_block([quote(str(p)) for p in pmf.probs], " " * 6, "[]")
        body = _json_block(
            (f'"probs": {probs}', f'"support": {ints(pmf.support, " " * 6)}'), " " * 4, "{}"
        )
        return f"{label[v]}: {body}"

    def function(v: NodeId) -> str:
        table = m.functions[v]
        rows = _json_block(
            [
                _json_block(
                    (f'"noise": {key[-1]}', f'"out": {out}',
                     f'"parents": {ints(key[:-1], " " * 10)}'),
                    " " * 8, "{}",
                )
                for key, out in sorted(table.entries.items())
            ],
            " " * 6, "[]",
        )
        parents = _json_block([label[p] for p in table.parent_order], " " * 6, "[]")
        body = _json_block((f'"parent_order": {parents}', f'"table": {rows}'), " " * 4, "{}")
        return f"{label[v]}: {body}"

    edges = [
        _json_block(map(quote, pair), " " * 4, "[]")
        for pair in sorted([m.label(u), m.label(v)] for u, v in m.graph.edges)
    ]
    top = (
        f'"edges": {_json_block(edges, "  ", "[]")}',
        f'"functions": {_json_block(map(function, by_label), "  ", "{}")}',
        f'"nodes": {_json_block(map(node, nodes), "  ", "[]")}',
        f'"noise": {_json_block(map(noise, by_label), "  ", "{}")}',
    )
    return _json_block(top, "", "{}") + "\n"


def scm_from_dict(data: dict) -> Scm:
    """Build an Scm from its JSON form; malformed input raises ``ValueError``
    naming the JSON path at fault."""
    try:
        node_specs = data["nodes"]
        edge_specs = data["edges"]
        noise_specs = data["noise"]
        function_specs = data["functions"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"SCM object is missing section {exc}") from None
    try:
        for where, specs in (("nodes", node_specs), ("edges", edge_specs)):
            if not isinstance(specs, list):
                raise TypeError(f"expected a list, got {_json_type(specs)}")
        labels, declared = [], []
        for i, spec in enumerate(node_specs):
            where = f"nodes[{i}]"
            label = _json_object(spec)["label"]
            where = f"nodes[{i}].label"
            if _json_str(label) in labels:
                raise ValueError(f"duplicate label {label!r}")
            labels.append(label)
            where = f"nodes[{i}].alphabet"
            declared.append(_json_ints(spec["alphabet"]))
        for i, spec in enumerate(edge_specs):
            where = f"edges[{i}]"
            if not isinstance(spec, list) or len(spec) != 2:
                got = _json_type(spec)
                if isinstance(spec, list):
                    got += f" of length {len(spec)}"
                raise ValueError(f"expected an array of two labels, got {got}")
            for j, label in enumerate(spec):
                where = f"edges[{i}][{j}]"
                _json_str(label)
        where = "edges"
        g = Dag.of(labels, edge_specs)
        ids = {lab: i for i, lab in enumerate(labels)}
        noise = {}
        functions = {}
        for lab in labels:
            where = "noise"
            if lab not in _json_object(noise_specs):
                raise ValueError(f"node {lab!r} has no noise entry")
            where = f"noise.{lab}"
            noise_spec = _json_object(noise_specs[lab])
            support, probs = noise_spec["support"], noise_spec["probs"]
            where = f"noise.{lab}.support"
            support = _json_ints(support)
            where = f"noise.{lab}.probs"
            if not isinstance(probs, list):
                raise ValueError(f"expected a list of probabilities, got {probs!r}")
            noise[ids[lab]] = Pmf.of(support, probs)
            where = "functions"
            if lab not in _json_object(function_specs):
                raise ValueError(f"node {lab!r} has no function entry")
            where = f"functions.{lab}"
            fspec = _json_object(function_specs[lab])
            order_specs, rows = fspec["parent_order"], fspec["table"]
            where = f"functions.{lab}.parent_order"
            if not isinstance(order_specs, list):
                raise ValueError(f"expected an array of labels, got {_json_type(order_specs)}")
            parent_order = []
            for j, p in enumerate(order_specs):
                where = f"functions.{lab}.parent_order[{j}]"
                if _json_str(p) not in ids:
                    raise ValueError(f"unknown label {p!r}")
                parent_order.append(ids[p])
            where = f"functions.{lab}.table"
            if not isinstance(rows, list):
                raise ValueError(f"expected an array, got {_json_type(rows)}")
            entries = {}
            for k, row in enumerate(rows):
                row_at = where = f"functions.{lab}.table[{k}]"
                parents, u, out = _json_object(row)["parents"], row["noise"], row["out"]
                where = row_at + ".parents"
                key = _json_ints(parents)
                where = row_at + ".noise"
                key += (_json_int(u),)
                where = row_at + ".out"
                out = _json_int(out)
                where = row_at
                if key in entries:
                    raise ValueError(f"node {lab!r} has duplicate table row {key}")
                entries[key] = out
            functions[ids[lab]] = StructuralTable(tuple(parent_order), entries)
    except KeyError as exc:
        raise ValueError(f"{where}: missing key {exc}") from None
    except ZeroDivisionError:
        raise ValueError(f"{where}: zero denominator") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{where}: {exc}") from None
    m = Scm(g, noise, functions)
    for lab, alphabet in zip(labels, declared):
        computed = m.alphabets[ids[lab]]
        if alphabet != computed:
            raise ValueError(
                f"node {lab!r} declares alphabet {alphabet} "
                f"but its table yields {computed}"
            )
    return m


def parse_scm(text: str) -> Scm:
    """Read an SCM file; a JSON decimal such as ``0.1`` is read exactly (1/10).
    A bare integer, like a probability literal, is bounded to 1000 digits."""
    try:
        data = json.loads(text, parse_float=_JsonDecimal, parse_int=_parse_json_int)
    except json.JSONDecodeError as exc:
        raise ValueError(f"SCM file is not valid JSON: {exc}") from None
    except RecursionError:
        raise ValueError("SCM file nests too deeply") from None
    if not isinstance(data, dict):
        raise ValueError("SCM file must hold a JSON object")
    return scm_from_dict(data)
