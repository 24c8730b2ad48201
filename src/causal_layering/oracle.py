"""Exact joint distributions by noise enumeration, and entropy queries.

Probability arithmetic is exact: every table entry is an integer
numerator over one shared denominator, and floats only appear at the
final logarithm. Entropies are in bits throughout.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable, Mapping
from fractions import Fraction
from itertools import product
from operator import itemgetter
from typing import TYPE_CHECKING

from .graph import NodeId

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from .scm import Dataset, Scm

DEFAULT_ENUMERATION_BUDGET = 1 << 24


class EnumerationBudgetError(RuntimeError):
    """The noise-tuple product is too large to enumerate."""


class JointTable:
    """A finite joint distribution over integer-valued variables.

    Entries map full assignments (tuples aligned with ``variables``) to
    positive probabilities; zero-mass assignments are omitted. Each entry is
    an integer weight over the one positive integer denominator.
    """

    __slots__ = ("_variables", "_labels", "_weights", "_denom")

    def __init__(
        self,
        variables: Iterable[NodeId],
        labels: Iterable[str],
        weights: Mapping[tuple[int, ...], int],
        denom: int,
    ):
        self._variables = tuple(int(v) for v in variables)
        self._labels = tuple(str(s) for s in labels)
        if len(self._variables) != len(self._labels):
            raise ValueError("variables and labels must align")
        if len(set(self._variables)) != len(self._variables):
            raise ValueError("duplicate variables")
        if type(denom) is not int or denom <= 0:
            raise ValueError(f"denominator must be a positive integer, got {denom!r}")
        clean: dict[tuple[int, ...], int] = {}
        for key, w in weights.items():
            if len(key) != len(self._variables):
                raise ValueError(f"assignment {key} does not match variable count")
            if type(w) is not int:
                raise ValueError(f"weight at {key} must be an integer, got {w!r}")
            if w < 0:
                raise ValueError(f"negative probability mass at {key}")
            if w:
                clean[tuple(int(x) for x in key)] = w
        self._weights = clean
        self._denom = denom
        total = sum(clean.values())
        if total != denom:
            raise ValueError(f"probabilities sum to {total}/{denom}, not 1")

    @property
    def variables(self) -> tuple[NodeId, ...]:
        return self._variables

    @property
    def labels(self) -> tuple[str, ...]:
        return self._labels

    def __len__(self) -> int:
        return len(self._weights)

    def prob(self, assignment: tuple[int, ...]) -> Fraction:
        return Fraction(self._weights.get(tuple(assignment), 0), self._denom)

    def items(self) -> list[tuple[tuple[int, ...], Fraction]]:
        """Entries sorted by assignment, probabilities as Fractions."""
        return [(key, self.prob(key)) for key in sorted(self._weights)]

    @classmethod
    def _derived(
        cls,
        variables: tuple[NodeId, ...],
        labels: tuple[str, ...],
        weights: dict[tuple[int, ...], int],
        denom: int,
    ) -> JointTable:
        """A table whose integer weights are positive and sum to ``denom``
        by construction, so nothing needs checking again: a
        projection of a checked table (sums of its positive weights), or an
        exact enumeration (products of validated ``Pmf`` numerators)."""
        table = cls.__new__(cls)
        table._variables = variables
        table._labels = labels
        table._weights = weights
        table._denom = denom
        return table

    def marginal(self, keep: Iterable[NodeId]) -> JointTable:
        keep_set = {int(v) for v in keep}
        unknown = keep_set - set(self._variables)
        if unknown:
            raise ValueError(f"unknown variables {sorted(unknown)}")
        idx = [i for i, v in enumerate(self._variables) if v in keep_set]
        if len(idx) == len(self._variables):
            return self
        out: dict = {}
        if idx:
            project = itemgetter(*idx)
            for key, w in self._weights.items():
                sub = project(key)
                out[sub] = out.get(sub, 0) + w
            if len(idx) == 1:  # itemgetter of one index returns the bare value
                out = {(k,): w for k, w in out.items()}
        else:
            out[()] = sum(self._weights.values())
        return JointTable._derived(
            tuple(self._variables[i] for i in idx),
            tuple(self._labels[i] for i in idx),
            out,
            self._denom,
        )

    def entropy_bits(self) -> float:
        """Shannon entropy of the full table, in bits; 0 log 0 counts as 0.

        The terms are summed with ``math.fsum``, so the result depends only on
        the multiset of weights, not on the order the table was built in.
        """
        d = self._denom
        acc = math.fsum(w * math.log2(w) for w in self._weights.values())
        return math.log2(d) - acc / d


def joint_distribution(
    scm: "Scm",
    include_noise: bool = False,
    budget: int | None = None,
) -> JointTable:
    """Enumerate all noise tuples of an SCM into an exact joint table.

    The enumeration size is the product of noise support sizes, capped by
    ``budget`` (default 2**24). With ``include_noise`` the table also covers
    the noise variables, under the ids given by ``scm.noise_node``.
    """
    cap = DEFAULT_ENUMERATION_BUDGET if budget is None else budget
    nodes = sorted(scm.graph.nodes)
    size = 1
    for v in nodes:
        size *= len(scm.noise[v].support)
    if size > cap:
        raise EnumerationBudgetError(
            f"noise-tuple product {size} exceeds enumeration budget {cap}"
        )

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
        prev = acc.get(key)
        acc[key] = w if prev is None else prev + w
    # the products of each node's numerators sum to the product of its denominators
    return JointTable._derived(tuple(variables), tuple(labels), acc, math.prod(denoms))


def empirical_joint(dataset: "Dataset") -> JointTable:
    """Plug-in joint table from observed rows; exact rationals count/n."""
    if not dataset.rows:
        raise ValueError("dataset has no rows")
    counts = Counter(tuple(row) for row in dataset.rows)
    return JointTable(dataset.variables, dataset.labels, dict(counts), len(dataset.rows))


def render_joint_table(table: JointTable) -> str:
    """Rows ``A=0,B=1 : p`` sorted by assignment; exact probabilities as p/q."""
    lines = []
    for key, p in table.items():
        cells = ",".join(f"{lab}={val}" for lab, val in zip(table.labels, key))
        lines.append(f"{cells} : {p}")
    return "\n".join(lines) + "\n"


class EntropyOracle:
    """Conditional-entropy and independence queries over one joint table.

    Marginal entropies are memoized per variable set. The oracle also keeps
    one slot, the last marginal it projected from the full table: a set
    inside the slot's variables is projected from the slot instead. Queries
    that look up their largest set first (as ``cond_entropy`` and
    ``mutual_information`` do) then scan the full table once each. The
    oracle is single-threaded: cache and slot are plain attributes.
    """

    def __init__(self, table: JointTable):
        self._table = table
        self._scope = frozenset(table.variables)
        self._cache: dict[frozenset[int], float] = {}
        self._slot: tuple[frozenset[int], JointTable] | None = None

    @property
    def variables(self) -> tuple[NodeId, ...]:
        return self._table.variables

    @property
    def table(self) -> JointTable:
        return self._table

    def marginal_entropy(self, variables: Iterable[NodeId] = ()) -> float:
        key = frozenset(int(v) for v in variables)
        if not key <= self._scope:
            raise ValueError(f"unknown variables {sorted(key - self._scope)}")
        value = self._cache.get(key)
        if value is None:
            slot = self._slot
            source = slot[1] if slot is not None and key <= slot[0] else self._table
            table = source.marginal(key)
            value = self._cache[key] = table.entropy_bits()
            if source is self._table:
                self._slot = (key, table)
        return value

    def cond_entropy(
        self, target: Iterable[NodeId], given: Iterable[NodeId] = ()
    ) -> float:
        """H(target | given) in bits, via H(T ∪ G) - H(G), in that order."""
        xs = frozenset(int(v) for v in target)
        ss = frozenset(int(v) for v in given)
        if not xs:
            raise ValueError("target set must be non-empty")
        if xs & ss:
            raise ValueError("target overlaps conditioning set")
        return self.marginal_entropy(xs | ss) - self.marginal_entropy(ss)

    def mutual_information(
        self,
        xs: Iterable[NodeId],
        ys: Iterable[NodeId],
        given: Iterable[NodeId] = (),
    ) -> float:
        """I(X; Y | S) in bits. Tiny negatives are float roundoff."""
        xs = frozenset(int(v) for v in xs)
        ys = frozenset(int(v) for v in ys)
        ss = frozenset(int(v) for v in given)
        if not xs or not ys:
            raise ValueError("both variable sets must be non-empty")
        if xs & ys or xs & ss or ys & ss:
            raise ValueError("variable sets must be pairwise disjoint")
        h_xys = self.marginal_entropy(xs | ys | ss)  # first, so the rest reuse it
        return (
            self.marginal_entropy(xs | ss)
            + self.marginal_entropy(ys | ss)
            - self.marginal_entropy(ss)
            - h_xys
        )
