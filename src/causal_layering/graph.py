"""Directed acyclic graphs, layerings, and d-separation.

Nodes are the integer ids ``0..n-1`` of ``n`` unique labels. Everything
is immutable once built.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

NodeId = int


class CycleError(ValueError):
    """The edge set contains a directed cycle."""


class Dag:
    """Immutable DAG whose nodes are the ids ``0..n-1`` of its ``n`` labels."""

    __slots__ = ("_labels", "_nodes", "_edges", "_parents", "_children", "_bits", "_memo")

    def __init__(self, labels: Sequence[str], edges: Iterable[tuple[NodeId, NodeId]] = ()):
        self._labels = tuple(str(x) for x in labels)
        if len(set(self._labels)) != len(self._labels):
            raise ValueError("node labels must be unique")
        self._nodes = frozenset(range(len(self._labels)))

        edge_set: set[tuple[int, int]] = set()
        for u, v in edges:
            u, v = int(u), int(v)
            if u not in self._nodes or v not in self._nodes:
                raise ValueError(f"edge ({u}, {v}) mentions an unknown node")
            if u == v:
                raise ValueError(f"self-loop on node {u}")
            if (v, u) in edge_set:
                raise ValueError(f"edges in both directions between {u} and {v}")
            edge_set.add((u, v))
        self._edges = frozenset(edge_set)

        parents: dict[int, set[int]] = {v: set() for v in self._nodes}
        children: dict[int, set[int]] = {v: set() for v in self._nodes}
        pbits, cbits = [0] * len(self._labels), [0] * len(self._labels)
        for u, v in self._edges:
            children[u].add(v)
            parents[v].add(u)
            cbits[u] |= 1 << v
            pbits[v] |= 1 << u
        self._bits = (tuple(pbits), tuple(cbits))  # by id: bit u per parent / child u
        self._parents = {v: frozenset(s) for v, s in parents.items()}
        self._children = {v: frozenset(s) for v, s in children.items()}
        self._memo: dict[tuple[int, bool], frozenset[int]] = {}
        self.topological_order()  # raises CycleError on a cycle

    @classmethod
    def of(cls, labels: Sequence[str], edges: Iterable[tuple[str, str]] = ()) -> Dag:
        """Build from label pairs, e.g. ``Dag.of("ABC", [("A", "B")])``."""
        labels = [str(x) for x in labels]
        idx = {lab: i for i, lab in enumerate(labels)}
        try:
            id_edges = [(idx[a], idx[b]) for a, b in edges]
        except KeyError as exc:
            raise ValueError(f"edge mentions unknown label {exc.args[0]!r}") from None
        return cls(labels, id_edges)

    @property
    def labels(self) -> tuple[str, ...]:
        return self._labels

    @property
    def nodes(self) -> frozenset[NodeId]:
        return self._nodes

    @property
    def edges(self) -> frozenset[tuple[NodeId, NodeId]]:
        return self._edges

    def __len__(self) -> int:
        return len(self._nodes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dag):
            return NotImplemented
        return self._labels == other._labels and self._edges == other._edges

    def __hash__(self) -> int:
        return hash((self._labels, self._edges))

    def __repr__(self) -> str:
        ns = ",".join(self._labels)
        es = ",".join(f"{self.label(u)}->{self.label(v)}" for u, v in sorted(self._edges))
        return f"Dag([{ns}], [{es}])"

    def _require(self, v: NodeId) -> None:
        if v not in self._nodes:
            raise ValueError(f"unknown node {v}")

    def label(self, v: NodeId) -> str:
        self._require(v)
        return self._labels[v]

    def parents(self, v: NodeId) -> frozenset[NodeId]:
        self._require(v)
        return self._parents[v]

    def children(self, v: NodeId) -> frozenset[NodeId]:
        self._require(v)
        return self._children[v]

    def descendants(self, v: NodeId) -> frozenset[NodeId]:
        """All nodes reachable from ``v`` by directed edges, excluding ``v``.
        Found once per node, on first use, like ``ancestors``."""
        return self._reach(v, self._children)

    def ancestors(self, v: NodeId) -> frozenset[NodeId]:
        """All nodes with a directed path to ``v``, excluding ``v``."""
        return self._reach(v, self._parents)

    def _reach(self, v: NodeId, step: dict[int, frozenset[int]]) -> frozenset[NodeId]:
        self._require(v)
        key = (v, step is self._parents)
        out = self._memo.get(key)
        if out is None:
            seen: set[int] = set()
            stack = list(step[v])
            while stack:
                u = stack.pop()
                if u not in seen:
                    seen.add(u)
                    stack.extend(step[u])
            out = self._memo[key] = frozenset(seen)
        return out

    def components(self) -> tuple[int, ...]:
        """The connected components of the skeleton, as bit masks (bit v for
        node v), ordered by their lowest node."""
        parents, children = self._bits
        rest, out = (1 << len(self._nodes)) - 1, []
        while rest:
            comp = frontier = rest & -rest
            while frontier:
                b = frontier & -frontier
                frontier ^= b
                v = b.bit_length() - 1
                new = (parents[v] | children[v]) & ~comp
                comp |= new
                frontier |= new
            out.append(comp)
            rest &= ~comp
        return tuple(out)

    def unmediated_parents(self, v: NodeId) -> frozenset[NodeId]:
        """Parents of ``v`` with no descendant among the other parents of ``v``."""
        ps = self.parents(v)
        return frozenset(p for p in ps if not (self.descendants(p) & ps))

    def topological_order(self) -> tuple[NodeId, ...]:
        """Kahn's algorithm; ties broken by smallest node id."""
        indeg = {v: len(self._parents[v]) for v in self._nodes}
        ready = [v for v in self._nodes if indeg[v] == 0]
        heapq.heapify(ready)
        out: list[int] = []
        while ready:
            v = heapq.heappop(ready)
            out.append(v)
            for c in self._children[v]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    heapq.heappush(ready, c)
        if len(out) != len(self._nodes):
            raise CycleError("graph contains a directed cycle")
        return tuple(out)


@dataclass(frozen=True)
class Layering:
    """An ordered tuple of non-empty, mutually disjoint node sets."""

    layers: tuple[frozenset[NodeId], ...]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for layer in self.layers:
            if not isinstance(layer, frozenset):
                raise TypeError("layers must be frozensets; use Layering.of(...)")
            if not layer:
                raise ValueError("layers must be non-empty")
            if layer & seen:
                raise ValueError("layers must be disjoint")
            seen |= layer

    @classmethod
    def of(cls, layers: Iterable[Iterable[NodeId]]) -> Layering:
        return cls(tuple(frozenset(int(v) for v in layer) for layer in layers))

    @property
    def nodes(self) -> frozenset[NodeId]:
        out: set[int] = set()
        for layer in self.layers:
            out |= layer
        return frozenset(out)

    def positions(self) -> dict[NodeId, int]:
        return {v: i for i, layer in enumerate(self.layers) for v in layer}

    def __iter__(self):
        return iter(self.layers)

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, i: int) -> frozenset[NodeId]:
        return self.layers[i]


def layering_violations(g: Dag, layering: Layering) -> tuple[str, ...]:
    """Reasons ``layering`` fails to be a layering of ``g``; empty if valid.

    A valid layering partitions ``g.nodes`` and every edge goes from a
    strictly earlier layer to a strictly later one.
    """
    reasons: list[str] = []
    covered = layering.nodes
    missing = g.nodes - covered
    extra = covered - g.nodes
    if missing:
        reasons.append("missing nodes: " + ", ".join(g.label(v) for v in sorted(missing)))
    if extra:
        reasons.append("unknown nodes: " + ", ".join(str(v) for v in sorted(extra)))
    pos = layering.positions()
    for u, v in sorted(g.edges):
        if u in pos and v in pos and pos[u] >= pos[v]:
            reasons.append(
                f"edge {g.label(u)} -> {g.label(v)} not strictly forward "
                f"(layer {pos[u] + 1} vs {pos[v] + 1})"
            )
    return tuple(reasons)


def d_separated(
    g: Dag,
    xs: Iterable[NodeId],
    ys: Iterable[NodeId],
    zs: Iterable[NodeId] = (),
) -> bool:
    """Whether ``xs`` and ``ys`` are d-separated given ``zs``: no node of
    ``ys`` is in ``d_connected(g, xs, zs)``."""
    xs, ys, zs = (frozenset(int(v) for v in s) for s in (xs, ys, zs))
    if not xs or not ys:
        raise ValueError("both endpoint sets must be non-empty")
    for v in xs | ys | zs:
        g._require(v)
    if xs & ys or xs & zs or ys & zs:
        raise ValueError("endpoint and conditioning sets must be pairwise disjoint")
    return not (d_connected(g, xs, zs) & ys)


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


def d_connected_bits(g: Dag, xs: int, zs: int = 0) -> int:
    """``d_connected`` on bit masks (bit v for node v), unchecked.

    Linear-time reachability sweep by the Bayes-ball rules (Shachter 1998),
    one frontier mask per entry direction: an unconditioned node passes a
    ball from a child to its parents and children, and one from a parent to
    its children; a conditioned node bounces a ball from a parent back to
    its parents and blocks one from a child. A collider with a conditioned
    descendant is open because the ball runs down to that descendant and
    bounces back up.
    """
    parents, children = g._bits
    up, down = new_up, new_down = xs, 0  # entered from a child / from a parent
    while new_up or new_down:
        passing = new_up & ~zs
        to_parents, to_children = passing | new_down & zs, passing | new_down & ~zs
        new_up = new_down = 0
        while to_parents:
            b = to_parents & -to_parents
            to_parents ^= b
            new_up |= parents[b.bit_length() - 1]
        while to_children:
            b = to_children & -to_children
            to_children ^= b
            new_down |= children[b.bit_length() - 1]
        new_up &= ~up
        new_down &= ~down
        up |= new_up
        down |= new_down
    return (up | down) & ~(xs | zs)


# --- text formats -----------------------------------------------------------


def render_dag(g: Dag) -> str:
    """One ``nodes:`` header line plus one ``edge:`` line per edge."""
    lines = ["nodes: " + ", ".join(g.labels)]
    for u, v in sorted(g.edges):
        lines.append(f"edge: {g.label(u)} -> {g.label(v)}")
    return "\n".join(lines) + "\n"
