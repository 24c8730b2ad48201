"""Independent reference implementations used to cross-check the package.

Everything here is written the slow, obvious way on purpose: float
probabilities accumulated in dicts, d-separation by enumerating every
simple path. Agreement with the fast implementations is the test.
"""

from __future__ import annotations

import math
import random
from itertools import product

from causal_layering.graph import Dag
from causal_layering.oracle import JointTable


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
        values = scm.evaluate(noise_vals)
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


def marginal(table: JointTable, keep) -> JointTable:
    """Project a JointTable the first way the package did: a tuple built per
    key by a generator, summed into a dict, and the result passed back
    through the validating public constructor."""
    keep_set = {int(v) for v in keep}
    kept = tuple(v for v in table.variables if v in keep_set)
    idx = tuple(table.variables.index(v) for v in kept)
    out: dict[tuple[int, ...], int | float] = {}
    for key, w in table._weights.items():
        sub = tuple(key[i] for i in idx)
        prev = out.get(sub)
        out[sub] = w if prev is None else prev + w
    labels = tuple(table.label_of(v) for v in kept)
    return JointTable(kept, labels, out, table._denom)


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
