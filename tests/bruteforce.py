"""Independent reference implementations used to cross-check the package.

Everything here is written the slow, obvious way on purpose: float
probabilities accumulated in dicts, d-separation by enumerating every
simple path. Agreement with the fast implementations is the test. The
exact projection and per-tuple enumeration, the peeling loops, the
per-candidate discovery rounds, the trace replay on residual graphs,
injectivity scans, the bound-case classifier with the exhaustive per-case
verification suites, the explicit-noise graph, frozenset-keyed batch
planner, uncached descendant searches, faithfulness checks (over every
triple, and the walk over all 2**n subsets that preceded the one per
connected component), graph and layering text parsers and model-file
writer (``json.dumps`` of the model's dict) are the package's earlier
separate implementations, kept as references for the shared or faster
code that replaced them. The oracle-free peeling helpers ``peel``,
``rr``, ``select_all``, ``sources_only``, ``sinks_only`` and
``is_layering`` came from ``graph``, where no command called them;
``discover`` still runs its rounds on ``peel``, the loop that discovery
used before a run's layering was read off its trace. ``layering_violations``
and the layering accessors ``layering_nodes`` and ``positions`` came from
``graph`` when the package's replay dropped its layering pre-check (its
round checks imply a layering), and the set wrapper ``d_connected`` when
``d_separated`` came to call ``d_connected_bits`` directly. ``evaluate``,
the forward simulator, came from ``scm``; every command now reads a model
through its exact enumeration alone.
"""

from __future__ import annotations

import functools
import json
import math
import random
from collections import deque
from collections.abc import Callable, Iterable
from collections.abc import Set as AbstractSet
from itertools import product

from causal_layering.discovery import (
    AssumptionViolation,
    DiscoveryResult,
    IterationTrace,
    KnownNoiseEntropy,
)
from causal_layering.graph import Dag, Layering, NodeId, d_connected_bits, d_separated
from causal_layering.oracle import JointTable
from causal_layering.scm import AssumptionReport, Pmf, Scm, StructuralTable, noise_entropy
from causal_layering.verify import (
    BoundCheckCase,
    BoundKind,
    IndependenceCase,
    TraceCheck,
    Verdict,
)


def evaluate(scm, noise_values) -> dict[int, int]:
    """Forward-simulate one noise assignment: each node, in topological
    order, reads its table at its parents' values and its noise value."""
    values: dict[int, int] = {}
    for v in scm.topological_order:
        table = scm.functions[v]
        values[v] = table.entries[(*(values[p] for p in table.parent_order), noise_values[v])]
    return values


def joint_probs(scm) -> dict[tuple, float]:
    """Forward-simulate every noise combination; float weights."""
    order = sorted(scm.graph.nodes)
    supports = [scm.noise[v].support for v in order]
    probs = [[float(p) for p in scm.noise[v].probs] for v in order]
    out: dict[tuple, float] = {}
    for picks in product(*(range(len(s)) for s in supports)):
        w = 1.0
        noise_vals = {}
        for idx, v in enumerate(order):
            w *= probs[idx][picks[idx]]
            noise_vals[v] = supports[idx][picks[idx]]
        if w == 0.0:
            continue
        values = evaluate(scm, noise_vals)
        key = tuple(values[v] for v in order)
        out[key] = out.get(key, 0.0) + w
    return out


def entropy(joint: dict[tuple, float], keep: tuple[int, ...]) -> float:
    """H of the variables at positions `keep` (indices into the key tuple)."""
    marg: dict[tuple, float] = {}
    for key, w in joint.items():
        sub = tuple(key[i] for i in keep)
        marg[sub] = marg.get(sub, 0.0) + w
    return -sum(p * math.log2(p) for p in marg.values() if p > 0.0)


def as_ids(keep) -> frozenset[int]:
    """The ids of a ``JointTable.marginal`` argument: ids, or a bit mask."""
    if type(keep) is int:
        return frozenset(v for v in range(keep.bit_length()) if keep >> v & 1)
    return frozenset(keep)


def marginal(table: JointTable, keep) -> JointTable:
    """Project a JointTable the first way the package did: a tuple built per
    key by a generator, summed into a dict, and the result passed back
    through the validating public constructor. It reads the table through
    ``items()`` only, over the rows' least common denominator."""
    keep_set = {int(v) for v in keep}
    kept = tuple(v for v in table.variables if v in keep_set)
    idx = tuple(table.variables.index(v) for v in kept)
    rows = table.items()
    denom = math.lcm(*(p.denominator for _, p in rows))
    out: dict[tuple[int, ...], int] = {}
    for key, p in rows:
        sub = tuple(key[i] for i in idx)
        w = p.numerator * (denom // p.denominator)
        prev = out.get(sub)
        out[sub] = w if prev is None else prev + w
    labels = tuple(table.labels[i] for i in idx)
    return JointTable(kept, labels, out, denom)


def marginal_entropies(table: JointTable, cache: dict, sets) -> list[float]:
    """``EntropyOracle.marginal_entropies`` with frozenset memo keys: one set
    size at a time, largest first, each distinct miss in batch order is
    projected from the smallest of the tables projected before it in this
    batch that covers it (the earliest on a tie), or from ``table``. A
    projection is offered to later misses only when it has fewer rows than
    the table it came from. ``cache`` maps frozensets to entropies and may
    be shared between tables over nested variable sets."""
    scope = frozenset(table.variables)
    keys = [frozenset(int(v) for v in s) for s in sets]
    for key in keys:
        if not key <= scope:
            raise ValueError(f"unknown variables {sorted(key - scope)}")
    misses = [key for key in dict.fromkeys(keys) if key not in cache]
    offered: list[tuple[frozenset[int], JointTable]] = []
    for size in sorted({len(key) for key in misses}, reverse=True):
        for key in (key for key in misses if len(key) == size):
            source = table
            for covered, projected in offered:
                if key <= covered and len(projected) < len(source):
                    source = projected
            projected = source.marginal(key)
            cache[key] = projected.entropy_bits()
            if len(projected) < len(source):
                offered.append((key, projected))
    return [cache[key] for key in keys]


def joint_distribution(scm, include_noise: bool = False) -> JointTable:
    """Exact joint table the way the package first enumerated it: every
    noise tuple evaluated through every node, keys as value tuples, and the
    result passed through the validating public constructor."""
    nodes = sorted(scm.graph.nodes)
    variables = list(nodes)
    labels = [scm.graph.label(v) for v in nodes]
    if include_noise:
        variables += [scm.noise_node(v) for v in nodes]
        labels += [scm.noise_label(v) for v in nodes]
    topo = scm.topological_order
    pmfs = [scm.noise[v] for v in topo]
    supports = [p.support for p in pmfs]
    denoms = [math.lcm(*(q.denominator for q in p.probs)) for p in pmfs]
    weights_per_node = [
        tuple(q.numerator * (d // q.denominator) for q in p.probs)
        for p, d in zip(pmfs, denoms)
    ]
    tables = [scm.functions[v] for v in topo]
    acc: dict[tuple[int, ...], int] = {}
    for picks in product(*(range(len(s)) for s in supports)):
        w = 1
        for node_w, i in zip(weights_per_node, picks):
            w *= node_w[i]
        if not w:
            continue
        values: dict[int, int] = {}
        noise_values: dict[int, int] = {}
        for v, table, sup, i in zip(topo, tables, supports, picks):
            u = sup[i]
            noise_values[v] = u
            parent_vals = tuple(values[p] for p in table.parent_order)
            values[v] = table.entries[(*parent_vals, u)]
        key = tuple(values[v] for v in nodes)
        if include_noise:
            key += tuple(noise_values[v] for v in nodes)
        acc[key] = acc.get(key, 0) + w
    return JointTable(variables, labels, acc, math.prod(denoms))


def cond_entropy(joint: dict[tuple, float], target: tuple[int, ...],
                 given: tuple[int, ...]) -> float:
    if not given:
        return entropy(joint, target)
    return entropy(joint, tuple(sorted(set(target) | set(given)))) - entropy(joint, given)


def _collider(path: list[int], i: int, g: Dag) -> bool:
    # path[i] is a collider iff both neighbours point into it
    prev, here, nxt = path[i - 1], path[i], path[i + 1]
    return (prev, here) in g.edges and (nxt, here) in g.edges


def _simple_paths(g: Dag, x: int, y: int):
    # undirected skeleton walk
    nbrs: dict[int, set[int]] = {v: set() for v in g.nodes}
    for a, b in g.edges:
        nbrs[a].add(b)
        nbrs[b].add(a)
    stack = [(x, [x])]
    while stack:
        node, path = stack.pop()
        if node == y:
            yield path
            continue
        for nxt in sorted(nbrs[node]):
            if nxt not in path:
                stack.append((nxt, path + [nxt]))


def path_blocked(g: Dag, path: list[int], zs: frozenset[int]) -> bool:
    for i in range(1, len(path) - 1):
        here = path[i]
        if _collider(path, i, g):
            opened = here in zs or (g.descendants(here) & zs)
            if not opened:
                return True
        elif here in zs:
            return True
    return False


def d_separated_paths(g: Dag, xs: frozenset[int], ys: frozenset[int],
                      zs: frozenset[int]) -> bool:
    """Reference d-separation: every simple path between X and Y is blocked."""
    for x in xs:
        for y in ys:
            for path in _simple_paths(g, x, y):
                if not path_blocked(g, path, zs):
                    return False
    return True


def d_connected(
    g: Dag, xs: Iterable[NodeId], zs: Iterable[NodeId] = ()
) -> frozenset[NodeId]:
    """The nodes outside ``xs`` and ``zs`` that are d-connected to some node
    of ``xs`` given ``zs``; ``d_connected_bits`` on node sets."""
    xs, zs = frozenset(int(v) for v in xs), frozenset(int(v) for v in zs)
    if not xs:
        raise ValueError("the endpoint set must be non-empty")
    for v in xs | zs:
        g._require(v)
    if xs & zs:
        raise ValueError("endpoint and conditioning sets must be disjoint")
    found = d_connected_bits(g, sum(1 << v for v in xs), sum(1 << v for v in zs))
    return frozenset(v for v in g.nodes if found >> v & 1)


def layering_nodes(layering: Layering) -> frozenset[NodeId]:
    """The union of the layers."""
    out: set[int] = set()
    for layer in layering:
        out |= layer
    return frozenset(out)


def positions(layering: Layering) -> dict[NodeId, int]:
    """Each node's layer index."""
    return {v: i for i, layer in enumerate(layering) for v in layer}


def layering_violations(g: Dag, layering: Layering) -> tuple[str, ...]:
    """Reasons ``layering`` fails to be a layering of ``g``; empty if valid.

    A valid layering partitions ``g.nodes`` and every edge goes from a
    strictly earlier layer to a strictly later one.
    """
    reasons: list[str] = []
    covered = layering_nodes(layering)
    missing = g.nodes - covered
    extra = covered - g.nodes
    if missing:
        reasons.append("missing nodes: " + ", ".join(g.label(v) for v in sorted(missing)))
    if extra:
        reasons.append("unknown nodes: " + ", ".join(str(v) for v in sorted(extra)))
    pos = positions(layering)
    for u, v in sorted(g.edges):
        if u in pos and v in pos and pos[u] >= pos[v]:
            reasons.append(
                f"edge {g.label(u)} -> {g.label(v)} not strictly forward "
                f"(layer {pos[u] + 1} vs {pos[v] + 1})"
            )
    return tuple(reasons)


def random_dag(rng: random.Random, n: int, edge_prob: float = 0.4) -> Dag:
    labels = [f"V{i}" for i in range(n)]
    perm = list(range(n))
    rng.shuffle(perm)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < edge_prob:
                edges.append((perm[i], perm[j]))
    return Dag(labels, edges)


def random_scm(rng: random.Random, n: int, edge_prob: float = 0.5) -> Scm:
    """A model on ``random_dag``: noise on 2–3 values with weights 1–5, and
    each structural table drawn entry by entry into 2–4 outputs, so many
    tables are not injective in the noise."""
    g = random_dag(rng, n, edge_prob)
    noise, functions, outputs = {}, {}, {}
    for v in g.topological_order():
        support = tuple(range(rng.randint(2, 3)))
        noise[v] = Pmf.from_weights(support, [rng.randint(1, 5) for _ in support])
        parents = tuple(sorted(g.parents(v)))
        size = rng.randint(2, 4)
        entries = {
            (*combo, u): rng.randrange(size)
            for combo in product(*(outputs[p] for p in parents)) for u in support
        }
        outputs[v] = sorted(set(entries.values()))
        functions[v] = StructuralTable(parents, entries)
    return Scm(g, noise, functions)


def descendants(g: Dag, v: int) -> frozenset[int]:
    """Nodes reachable from ``v`` by directed edges, by a fresh search."""
    seen: set[int] = set()
    frontier = deque(g.children(v))
    while frontier:
        u = frontier.popleft()
        if u not in seen:
            seen.add(u)
            frontier.extend(g.children(u))
    return frozenset(seen)


def ancestors(g: Dag, v: int) -> frozenset[int]:
    """Nodes with a directed path to ``v``: those that have ``v`` as a descendant."""
    return frozenset(u for u in g.nodes if v in descendants(g, u))


def take_k_by_label(g: Dag, k: int = 1):
    """Selector keeping the ``k`` candidates with lexicographically smallest labels."""
    if k < 1:
        raise ValueError("k must be positive")

    def pick(candidates: frozenset[int]) -> frozenset[int]:
        return frozenset(sorted(candidates, key=g.label)[:k])

    return pick


def licensed_combos(holds: dict[str, bool]) -> list[tuple[str, str]]:
    """Reference licensing: the (algorithm, mode) pairs ``check`` runs."""
    combos = []
    if holds["injective_noise"] and holds["nonconstant_noise"]:
        plus_one = holds["injective_noise_plus_one"]
        weak = holds["weak_entropy_order"]
        strict = holds["strict_entropy_order"]
        directed = holds["directed_faithfulness"]
        if plus_one:
            combos.append(("sour", "known"))
            if weak:
                combos.append(("sour", "monotone"))
        if directed:
            combos.append(("sir", "known"))
        if strict or (weak and directed):
            combos.append(("sir", "monotone"))
    return combos


def license_refuses(holds: dict[str, bool], algo: str, mode: str) -> bool:
    """Reference gate: whether ``discover`` refuses the pair without --unsafe."""
    if not (holds["nonconstant_noise"] and holds["injective_noise"]):
        return True
    if algo == "sour":
        return not holds["injective_noise_plus_one"] or (
            mode == "monotone" and not holds["weak_entropy_order"]
        )
    if mode == "known":
        return not holds["directed_faithfulness"]
    return not (
        holds["strict_entropy_order"]
        or (holds["weak_entropy_order"] and holds["directed_faithfulness"])
    )


Groups = tuple[AbstractSet[NodeId], AbstractSet[NodeId]]  # (front or sources, back or sinks)
RemovalSelector = Callable[[frozenset[NodeId], frozenset[NodeId]], Groups]
SetSelector = Callable[[frozenset[NodeId]], AbstractSet[NodeId]]
PeelChooser = Callable[[frozenset[NodeId]], Groups]


def select_all(
    sources: frozenset[NodeId], sinks: frozenset[NodeId]
) -> tuple[frozenset[NodeId], frozenset[NodeId]]:
    """Default removal choice: every source, plus every sink that is not a source."""
    return sources, sinks - sources


def residual_sources(g: Dag, keep: AbstractSet[NodeId]) -> frozenset[NodeId]:
    """The nodes of ``keep`` with no parent in ``keep``: the induced subgraph's sources."""
    return frozenset(keep) - {v for u, v in g.edges if u in keep}


def residual_sinks(g: Dag, keep: AbstractSet[NodeId]) -> frozenset[NodeId]:
    """The nodes of ``keep`` with no child in ``keep``: the induced subgraph's sinks."""
    return frozenset(keep) - {u for u, v in g.edges if v in keep}


def peel(nodes: Iterable[NodeId], choose: PeelChooser) -> Layering:
    """Layer ``nodes`` by repeatedly removing groups at the front or the back.

    Each round ``choose`` sees the remaining nodes and returns (front, back):
    disjoint sets of remaining nodes, not both empty. Front groups extend the
    layering at the front in removal order; back groups extend it at the back
    in reverse order.
    """
    remaining = frozenset(nodes)
    front: list[frozenset[int]] = []
    back: deque[frozenset[int]] = deque()
    while remaining:
        fr_raw, bk_raw = choose(remaining)
        fr, bk = frozenset(fr_raw), frozenset(bk_raw)
        if not (fr or bk):
            raise ValueError("selector returned two empty sets")
        if fr & bk:
            raise ValueError("selector returned overlapping source and sink sets")
        if not (fr | bk) <= remaining:
            raise ValueError("selector returned nodes that are not remaining")
        if fr:
            front.append(fr)
        if bk:
            back.appendleft(bk)
        remaining -= fr | bk
    return Layering(tuple(front) + tuple(back))


def rr(g: Dag, select: RemovalSelector | None = None) -> Layering:
    """Layer a DAG by repeatedly removing chosen sources and sinks.

    Each round the selector sees the residual graph's sources and sinks and
    returns (SR, SN) with SR a set of sources, SN a set of sinks, disjoint,
    not both empty. Removed source groups extend the layering at the front
    in removal order; sink groups extend it at the back in reverse order.
    Any such sequence of choices yields a valid layering.
    """
    chooser = select if select is not None else select_all

    def choose(remaining: frozenset[NodeId]) -> Groups:
        sources, sinks = residual_sources(g, remaining), residual_sinks(g, remaining)
        sr_raw, sn_raw = chooser(sources, sinks)
        sr, sn = frozenset(sr_raw), frozenset(sn_raw)
        if not sr <= sources:
            raise ValueError("selector returned nodes that are not current sources")
        if not sn <= sinks:
            raise ValueError("selector returned nodes that are not current sinks")
        return sr, sn

    return peel(g.nodes, choose)


def sources_only(select: SetSelector | None = None) -> RemovalSelector:
    """Removal selector for source peeling: ``select`` picks among the sources
    (all of them by default) and no sink is taken."""

    def choose(sources: frozenset[NodeId], sinks: frozenset[NodeId]) -> Groups:
        return (select(sources) if select is not None else sources), frozenset()

    return choose


def sinks_only(select: SetSelector | None = None) -> RemovalSelector:
    """Removal selector for sink peeling: ``select`` picks among the sinks
    (all of them by default) and no source is taken."""

    def choose(sources: frozenset[NodeId], sinks: frozenset[NodeId]) -> Groups:
        return frozenset(), (select(sinks) if select is not None else sinks)

    return choose


def is_layering(g: Dag, layering: Layering) -> bool:
    return not layering_violations(g, layering)


def sour_layering(g: Dag, select=None) -> Layering:
    """Reference source peeling: every layer is a source group of the residual."""
    remaining = set(g.nodes)
    layers: list[frozenset[int]] = []
    while remaining:
        candidates = residual_sources(g, remaining)
        sr = frozenset(select(candidates)) if select is not None else candidates
        if not sr:
            raise ValueError("selector returned an empty source set")
        if not sr <= candidates:
            raise ValueError("selector returned nodes that are not current sources")
        layers.append(sr)
        remaining -= sr
    return Layering(tuple(layers))


def sir_layering(g: Dag, select=None) -> Layering:
    """Reference sink peeling, built back to front."""
    remaining = set(g.nodes)
    layers: deque[frozenset[int]] = deque()
    while remaining:
        candidates = residual_sinks(g, remaining)
        sn = frozenset(select(candidates)) if select is not None else candidates
        if not sn:
            raise ValueError("selector returned an empty sink set")
        if not sn <= candidates:
            raise ValueError("selector returned nodes that are not current sinks")
        layers.appendleft(sn)
        remaining -= sn
    return Layering(tuple(layers))


def discover(
    nodes, oracle, mode, removal: str, one_at_a_time: bool = False
) -> tuple[Layering, DiscoveryResult]:
    """Reference discovery rounds: one ``cond_entropy`` query per candidate,
    in node order, each a miss or a hit as the oracle's history has it. The
    layering that ``peel`` builds from the rounds comes with the run."""
    all_nodes = frozenset(nodes)
    trace: list[IterationTrace] = []

    def choose(current: frozenset[int]):
        entropies: dict[int, float] = {}
        for v in sorted(current):
            given = (all_nodes - current) if removal == "sources" else (current - {v})
            entropies[v] = oracle.cond_entropy((v,), given)
        if isinstance(mode, KnownNoiseEntropy):
            qualifying = frozenset(
                v for v in current if abs(entropies[v] - mode.entropies[v]) <= 1e-9
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
            qualifying = frozenset(v for v in current if abs(entropies[v] - extreme) <= 1e-9)
        selected = frozenset({min(qualifying)}) if one_at_a_time else qualifying
        trace.append(IterationTrace(entropies, qualifying, selected))
        return (selected, frozenset()) if removal == "sources" else (frozenset(), selected)

    layering = peel(all_nodes, choose)
    return layering, DiscoveryResult(removal, mode, tuple(trace))


def check_discovery_result(truth: Dag, result: DiscoveryResult) -> TraceCheck:
    """Reference replay: the run's ``layering`` (refused when its rounds
    cannot make one) must be free of ``layering_violations``; each round's
    ``remaining`` set must be the nodes no earlier round selected, its pool
    is the sources (or sinks) of the subgraph induced on that set, rebuilt
    by ``Dag.of`` over its labels, and known mode must qualify that pool
    exactly; and the selections, in order for sources and reversed for
    sinks, must rebuild the layering."""
    removal = result.removal
    try:
        layering = result.layering
    except ValueError as exc:
        return TraceCheck(False, None, f"no layering: {exc}")
    problems = layering_violations(truth, layering)
    if problems:
        return TraceCheck(False, None, "; ".join(problems))
    rebuilt: list[frozenset[int]] = []
    unselected = truth.nodes
    for i, step in enumerate(result.trace, start=1):
        if step.remaining != unselected:
            return TraceCheck(False, i, "remaining set is not the unselected set")
        unselected -= step.selected
        kept = sorted(step.remaining)
        residual = Dag.of(
            [truth.label(v) for v in kept],
            [(truth.label(u), truth.label(v)) for u, v in truth.edges
             if u in step.remaining and v in step.remaining],
        )
        linked = residual.parents if removal == "sources" else residual.children
        pool = frozenset(kept[w] for w in residual.nodes if not linked(w))
        if not step.selected <= pool:
            bad = ", ".join(truth.label(v) for v in sorted(step.selected - pool))
            return TraceCheck(False, i, f"selected non-{removal[:-1]} nodes: {bad}")
        if isinstance(result.mode, KnownNoiseEntropy) and step.qualifying != pool:
            want = ", ".join(truth.label(v) for v in sorted(pool))
            got = ", ".join(truth.label(v) for v in sorted(step.qualifying))
            return TraceCheck(
                False, i, f"qualifying set {{{got}}} is not the residual set {{{want}}}"
            )
        if removal == "sources":
            rebuilt.append(step.selected)
        else:
            rebuilt.insert(0, step.selected)
    if tuple(rebuilt) != layering.layers:
        return TraceCheck(False, None, "trace does not rebuild the layering")
    return TraceCheck(True, None, "")


def check_injective_noise(m) -> AssumptionReport:
    """Reference ``check_injective_noise``: per node, the parent assignments
    scanned in order up to the first under which two noise values give one
    output."""
    witnesses: list[tuple] = []
    for v in sorted(m.graph.nodes):
        table = m.functions[v]
        sup = m.noise[v].support
        found = False
        for combo in product(*(m.alphabets[p] for p in table.parent_order)):
            seen: dict[int, int] = {}
            for u in sup:
                out = table.entries[(*combo, u)]
                if out in seen:
                    witnesses.append((m.label(v), combo, seen[out], u, out))
                    found = True
                    break
                seen[out] = u
            if found:
                break
    return AssumptionReport("injective_noise", tuple(witnesses))


def check_injective_noise_plus_one(m) -> AssumptionReport:
    """Reference ``check_injective_noise_plus_one``: per node, the (parent,
    other parents' values) scanned in order up to the first under which two
    (parent value, noise value) pairs give one output."""
    witnesses: list[tuple] = []
    for v in sorted(m.graph.nodes):
        table = m.functions[v]
        sup = m.noise[v].support
        pas = table.parent_order
        for j, p in enumerate(pas):
            others = [m.alphabets[o] for k, o in enumerate(pas) if k != j]
            found = False
            for other_combo in product(*others):
                seen: dict[int, tuple[int, int]] = {}
                for pv in m.alphabets[p]:
                    combo = other_combo[:j] + (pv,) + other_combo[j:]
                    for u in sup:
                        out = table.entries[(*combo, u)]
                        if out in seen:
                            witnesses.append(
                                (m.label(v), m.label(p), other_combo, seen[out], (pv, u), out)
                            )
                            found = True
                            break
                        seen[out] = (pv, u)
                    if found:
                        break
                if found:
                    break
            if found:
                break
    return AssumptionReport("injective_noise_plus_one", tuple(witnesses))


def subsets(items) -> list[frozenset[int]]:
    """Every subset of ``items``."""
    items = sorted(items)
    return [
        frozenset(u for k, u in enumerate(items) if mask >> k & 1)
        for mask in range(1 << len(items))
    ]


def classify_bound_case(g: Dag, v: int, cond) -> frozenset[BoundKind]:
    """Which guaranteed relations apply to H(v | cond); empty when none do."""
    cond = frozenset(int(x) for x in cond)
    if v in cond:
        raise ValueError("conditioning set must not contain the target node")
    for x in cond:
        g.label(x)  # membership check
    parents = g.parents(v)
    if parents <= cond:
        strict = BoundKind.BELOW_NOISE if descendants(g, v) & cond else BoundKind.EQUALS_NOISE
        return frozenset({BoundKind.AT_MOST_NOISE, strict})
    if any(not descendants(g, p) & (cond | parents) for p in parents - cond):
        return frozenset({BoundKind.ABOVE_NOISE})
    return frozenset()


def extreme_cases(g: Dag) -> set[tuple[int, BoundKind, frozenset[int]]]:
    """(v, kind, S) for the sets that decide each bound kind, found by
    classifying every S: the inclusion-minimal sets of ``at_most_noise``
    and ``below_noise``, the maximal sets of ``above_noise``, and both for
    ``equals_noise``. H(v | S) only falls as S grows, so a kind whose
    relation bounds H from above is decided by its minimal sets, one that
    bounds it from below by its maximal sets."""
    out = set()
    for v in g.nodes:
        by_kind: dict[BoundKind, list[frozenset[int]]] = {}
        for cond in subsets(g.nodes - {v}):
            for kind in classify_bound_case(g, v, cond):
                by_kind.setdefault(kind, []).append(cond)
        for kind, sets in by_kind.items():
            lowest = [s for s in sets if not any(t < s for t in sets)]
            highest = [s for s in sets if not any(s < t for t in sets)]
            picked = {
                BoundKind.AT_MOST_NOISE: lowest,
                BoundKind.EQUALS_NOISE: lowest + highest,
                BoundKind.BELOW_NOISE: lowest,
                BoundKind.ABOVE_NOISE: highest,
            }[kind]
            out |= {(v, kind, s) for s in picked}
    return out


def non_descendants(g: Dag, v: int) -> frozenset[int]:
    """The nodes other than ``v`` that are not its descendants."""
    return g.nodes - descendants(g, v) - {v}


def digit_walk(nodes: list[int]):
    """Every disjoint (X, Y, S) over ``nodes`` with X and Y non-empty, as
    base-4 digit tuples in lexicographic order: digit 1 for X, 2 for Y, 3
    for S, the first node's digit most significant."""
    for digits in product(range(4), repeat=len(nodes)):
        xs = frozenset(v for v, d in zip(nodes, digits) if d == 1)
        ys = frozenset(v for v, d in zip(nodes, digits) if d == 2)
        ss = frozenset(v for v, d in zip(nodes, digits) if d == 3)
        if not xs or not ys:
            continue
        if min(xs) > min(ys):  # (X, Y) and (Y, X) are the same question
            continue
        yield xs, ys, ss


def digits(nodes: list[int], probe) -> tuple[int, ...]:
    """A probe's digit tuple, its sort key in ``digit_walk``."""
    xs, ys, ss = probe
    return tuple(1 if v in xs else 2 if v in ys else 3 if v in ss else 0 for v in nodes)


def faithfulness_probes(nodes: list[int]):
    """Reference (X, Y, S) walk of ``check_faithfulness``: every disjoint
    triple up to six nodes, in ``digit_walk`` order; singleton X and Y
    beyond, pairs x < y in order, then S over the other nodes by counting."""
    n = len(nodes)
    if n <= 6:
        yield from digit_walk(nodes)
        return
    for i, x in enumerate(nodes):
        for y in nodes[i + 1:]:
            rest = [v for v in nodes if v != x and v != y]
            for mask in range(1 << len(rest)):
                ss = frozenset(v for k, v in enumerate(rest) if mask >> k & 1)
                yield frozenset({x}), frozenset({y}), ss


def check_faithfulness(m, oracle, first_witness: bool = False) -> AssumptionReport:
    """Reference faithfulness check: one ``mutual_information`` query and one
    ``d_separated`` sweep per probe."""
    g = m.graph
    nodes = sorted(g.nodes)
    witnesses: list[tuple] = []
    for xs, ys, ss in faithfulness_probes(nodes):
        mi = oracle.mutual_information(xs, ys, ss)
        sep = d_separated(g, xs, ys, ss)
        if sep and mi > 1e-9:
            raise RuntimeError(
                f"d-separated sets show mutual information {mi}; "
                "exact arithmetic is broken"
            )
        if not sep and mi <= 1e-9:
            witnesses.append(
                (
                    tuple(m.label(v) for v in sorted(xs)),
                    tuple(m.label(v) for v in sorted(ys)),
                    tuple(m.label(v) for v in sorted(ss)),
                    mi,
                )
            )
            if first_witness:
                break
    detail = "exhaustive triples" if len(nodes) <= 6 else "singleton pairs only"
    return AssumptionReport("faithfulness", tuple(witnesses), detail)


@functools.cache
def whole_graph_probes(n: int) -> tuple[tuple[int, int, int], ...]:
    """(x, y, S) bitmasks over n sorted nodes, bit k for the k-th: every pair
    of single nodes x < y, with every S over the other nodes, in the base-4
    digit walk's order (``digit_walk`` restricted to single X and Y)."""
    walk = [(0, 0, 0)]
    for k in range(n):  # node k's digit: none, x, y or S
        b = 1 << k
        step = []
        for x, y, s in walk:
            step.append((x, y, s))
            if not x:
                step.append((b, y, s))
            elif not y:  # y comes after x, so x < y
                step.append((x, b, s))
            step.append((x, y, s | b))
        walk = step
    return tuple(t for t in walk if t[1])


def whole_graph_faithfulness(m, oracle) -> AssumptionReport:
    """Reference for ``scm.check_faithfulness``'s walk: every pair of single
    nodes with every S over all the other nodes, components or not, and
    every entropy from one lazy depth-first walk over all 2**n subsets,
    rooted at the oracle's table over the nodes; the same first-witness
    report, raising on mutual information where d-separated, across
    components too."""
    g = m.graph
    n = len(g)  # node ids are 0..n-1, so bit k is node k

    def members(mask: int) -> list[int]:
        return [k for k in range(n) if mask >> k & 1]

    def subsets():
        full, root = (1 << n) - 1, oracle.table
        if len(root.variables) != n:  # the oracle covers more than the nodes
            root = root.marginal(full)
        stack = [(full, 0, root)]
        while stack:
            mask, k, parent = stack.pop()
            table = parent if mask == full else parent.marginal(mask)
            yield mask, table.entropy_bits()
            stack.extend(
                (mask ^ 1 << j, j + 1, table) for j in range(n - 1, k - 1, -1) if mask >> j & 1
            )

    entropies: list[float | None] = [None] * (1 << n)
    walk = subsets()

    def h(mask: int) -> float:
        while entropies[mask] is None:
            s, value = next(walk)
            entropies[s] = value
        return entropies[mask]

    detail = "exhaustive triples" if n <= 6 else "singleton pairs only"
    for xs, ys, ss in whole_graph_probes(n):
        mi = h(xs | ss) + h(ys | ss) - h(ss) - h(xs | ys | ss)
        sep = not (d_connected_bits(g, xs, ss) & ys)
        if sep and mi > 1e-9:
            raise RuntimeError(
                f"d-separated sets show mutual information {mi}; "
                "exact arithmetic is broken"
            )
        if not sep and mi <= 1e-9:
            witness = (*(tuple(m.label(v) for v in members(t)) for t in (xs, ys, ss)), mi)
            return AssumptionReport("faithfulness", (witness,), detail)
    return AssumptionReport("faithfulness", (), detail)


def check_entropy_bounds(m, oracle, tol, assert_above, assert_below):
    """Exhaustive entropy-bound suite: for every node and every conditioning
    set, in order, one classification, one ``cond_entropy`` query, one noise
    entropy, and one case per kind (a set that fits no kind gives none)."""
    g = m.graph
    out = []
    for v in sorted(g.nodes):
        for cond in subsets(g.nodes - {v}):
            kinds = classify_bound_case(g, v, cond)
            if not kinds:
                continue
            measured = oracle.cond_entropy((v,), cond)
            reference = noise_entropy(m, v)
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


def explicit_noise_graph(m) -> Dag:
    """The graph extended with one exogenous noise parent per node."""
    base = m.graph
    n = len(base.labels)
    noise_labels = tuple(m.noise_label(v) for v in range(n))
    clash = set(base.labels) & set(noise_labels)
    if clash:
        raise ValueError(f"noise labels collide with node labels: {sorted(clash)}")
    edges = set(base.edges) | {(n + v, v) for v in base.nodes}
    return Dag(base.labels + noise_labels, edges)


def check_noise_independence(m, oracle, tol):
    """Exhaustive noise-independence suite: for every node v and every set S
    of its non-descendants, one ``d_separated`` sweep on the explicit-noise
    graph and one ``mutual_information`` query (none for the empty set)."""
    noise_graph = explicit_noise_graph(m)
    out = []
    for v in sorted(m.graph.nodes):
        for ss in subsets(non_descendants(m.graph, v)):
            if not ss:
                out.append(IndependenceCase(v, ss, 0.0, Verdict.PASS))
                continue
            separated = d_separated(noise_graph, {m.noise_node(v)}, ss)
            mi = oracle.mutual_information({m.noise_node(v)}, ss)
            ok = separated and mi <= tol
            out.append(IndependenceCase(v, ss, mi, Verdict.PASS if ok else Verdict.FAIL))
    return out


def verdicts(cases, key) -> dict:
    """Each ``key(case)``'s verdict over its cases: FAIL if one fails, else
    PASS if one passes, else SKIP."""
    seen: dict = {}
    for case in cases:
        seen.setdefault(key(case), set()).add(case.verdict)
    return {
        k: Verdict.FAIL if Verdict.FAIL in vs else Verdict.PASS if Verdict.PASS in vs
        else Verdict.SKIP
        for k, vs in seen.items()
    }


def scm_to_dict(m) -> dict:
    """The model as the JSON object of its model file."""
    nodes = [
        {"label": m.label(v), "alphabet": list(m.alphabets[v])}
        for v in sorted(m.graph.nodes)
    ]
    edges = sorted([m.label(u), m.label(v)] for u, v in m.graph.edges)
    noise = {
        m.label(v): {
            "support": list(m.noise[v].support),
            "probs": [str(p) for p in m.noise[v].probs],  # "p/q", or "n" when whole
        }
        for v in sorted(m.graph.nodes)
    }
    functions = {}
    for v in sorted(m.graph.nodes):
        table = m.functions[v]
        rows = [
            {"parents": list(key[:-1]), "noise": key[-1], "out": out}
            for key, out in sorted(table.entries.items())
        ]
        functions[m.label(v)] = {
            "parent_order": [m.label(p) for p in table.parent_order],
            "table": rows,
        }
    return {"nodes": nodes, "edges": edges, "noise": noise, "functions": functions}


def scm_to_text(m) -> str:
    """The model file as the package first wrote it, through ``json.dumps``."""
    return json.dumps(scm_to_dict(m), indent=2, sort_keys=True) + "\n"


def parse_dag(text: str) -> Dag:
    """Read ``graph.render_dag``'s text back."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("nodes:"):
        raise ValueError("graph text must start with a 'nodes:' line")
    labels = [p.strip() for p in lines[0][len("nodes:"):].split(",") if p.strip()]
    edges: list[tuple[str, str]] = []
    for ln in lines[1:]:
        if not ln.startswith("edge:"):
            raise ValueError(f"unrecognized line in graph text: {ln!r}")
        body = ln[len("edge:"):]
        if "->" not in body:
            raise ValueError(f"malformed edge line: {ln!r}")
        a, b = (p.strip() for p in body.split("->", 1))
        edges.append((a, b))
    return Dag.of(labels, edges)


def render_layering(layering: Layering, g: Dag) -> str:
    """``layer <i>: <labels>`` lines, one per layer, in order."""
    lines = []
    for i, layer in enumerate(layering, start=1):
        lines.append(f"layer {i}: " + ", ".join(sorted(g.label(v) for v in layer)))
    return "\n".join(lines) + "\n"


def parse_layering(text: str, g: Dag) -> Layering:
    """Read ``render_layering``'s text back."""
    layers: list[frozenset[int]] = []
    for n, ln in enumerate((ln.strip() for ln in text.splitlines() if ln.strip()), start=1):
        head, _, body = ln.partition(":")
        if head.strip() != f"layer {n}":
            raise ValueError(f"expected 'layer {n}:' line, got {ln!r}")
        labels = [p.strip() for p in body.split(",") if p.strip()]
        layers.append(frozenset(g.labels.index(lab) for lab in labels))
    return Layering(tuple(layers))
