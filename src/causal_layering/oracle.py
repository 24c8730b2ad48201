"""Exact joint distributions by noise enumeration, and entropy queries.

Probability arithmetic is exact: every table entry is an integer
numerator over one shared denominator, and floats only appear at the
final logarithm. Entropies are in bits throughout. Each node has its own
noise term, so an enumerated table is stored as one block per connected
component of the model's skeleton (see ``JointTable``); the enumeration
budget still caps the product of all noise supports.
"""

from __future__ import annotations

import math
import operator
import random
from bisect import bisect_right
from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from itertools import accumulate, product
from typing import TYPE_CHECKING

from .graph import NodeId

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from .scm import Scm

DEFAULT_ENUMERATION_BUDGET = 1 << 24

# The one decision tolerance, in bits: two entropies within TOL are equal, and
# mutual information at or below TOL is independence.
TOL = 1e-9

Vars = Iterable[NodeId] | int  # ids, or a bit mask with bit v for id v


class EnumerationBudgetError(RuntimeError):
    """The noise-tuple product is too large to enumerate."""


# The float formula in ``JointTable.entropy_bits`` sums w * log2(w) <= d * log2(d);
# below this many bits of d that sum stays far inside float range.
_FLOAT_SAFE_BITS = 1000

# One variable's bit field in a packed key: (shift, mask, sorted alphabet).
_Field = tuple[int, int, tuple[int, ...]]


def _layout(alphabets: Sequence[tuple[int, ...]]) -> tuple[_Field, ...]:
    """Bit fields for assignments over sorted ``alphabets``, one per variable.

    A value is stored as its index in its variable's alphabet, in a field of
    ``max(1, (len(alphabet) - 1).bit_length())`` bits. The first variable
    takes the highest field, so packed keys sort as their decoded tuples do.
    """
    fields: list[_Field] = []
    shift = 0
    for alphabet in reversed(alphabets):
        width = max(1, (len(alphabet) - 1).bit_length())
        fields.append((shift, (1 << width) - 1, alphabet))
        shift += width
    return tuple(reversed(fields))


def _codes(field: _Field) -> dict[int, int]:
    """Each value of a field's alphabet -> its index, shifted into place."""
    shift, _, alphabet = field
    return {x: i << shift for i, x in enumerate(alphabet)}


class JointTable:
    """A finite joint distribution over integer-valued variables.

    Entries map full assignments (tuples aligned with ``variables``) to
    positive probabilities; zero-mass assignments are omitted. Each entry is
    an integer weight over the one positive integer denominator.

    Internally each assignment is one packed ``int`` (see ``_layout``), so a
    projection is a bit mask per row. A derived table keeps its parent's
    columns, so nested projections mask the same keys. A table computes its
    entropy once and keeps it.

    The rows are stored as blocks over disjoint columns, each (key mask,
    weights, denominator): a row ORs one key of each block and multiplies
    their weights. Every value read, the entropy included, comes from the
    multiplied-out rows, the integers a one-block table holds, so it is bit
    for bit that table's.
    """

    # _cols: one (bit of the id, id, label, field, field mask in a key) per
    # variable, in variable order; a negative id has bit 0 and cannot be kept.
    # _own: the bits of the table's ids.
    # _blocks: (key mask, weights, denominator) per block.
    __slots__ = ("_cols", "_own", "_blocks", "_denom", "_entropy")

    def __init__(
        self,
        variables: Iterable[NodeId],
        labels: Iterable[str],
        weights: Mapping[tuple[int, ...], int],
        denom: int,
    ):
        variables = tuple(int(v) for v in variables)
        labels = tuple(str(s) for s in labels)
        if len(variables) != len(labels):
            raise ValueError("variables and labels must align")
        if len(set(variables)) != len(variables):
            raise ValueError("duplicate variables")
        if type(denom) is not int or denom <= 0:
            raise ValueError(f"denominator must be a positive integer, got {denom!r}")
        clean: dict[tuple[int, ...], int] = {}
        for key, w in weights.items():
            if len(key) != len(variables):
                raise ValueError(f"assignment {key} does not match variable count")
            if type(w) is not int:
                raise ValueError(f"weight at {key} must be an integer, got {w!r}")
            if w < 0:
                raise ValueError(f"negative probability mass at {key}")
            if w:
                clean[tuple(int(x) for x in key)] = w
        total = sum(clean.values())
        if total != denom:
            raise ValueError(f"probabilities sum to {total}/{denom}, not 1")
        fields = _layout([tuple(sorted(set(column))) for column in zip(*clean)])
        codes = [_codes(field) for field in fields]
        packed: dict[int, int] = {}
        for key, w in clean.items():
            k = 0
            for code, x in zip(codes, key):
                k |= code[x]
            packed[k] = w
        self._cols = _columns(variables, labels, fields)
        self._own = sum(c[0] for c in self._cols)
        self._blocks = ((sum(c[4] for c in self._cols), packed, denom),)
        self._denom = denom
        self._entropy: float | None = None

    @classmethod
    def _derived(cls, cols: tuple, own: int, blocks: tuple, denom: int) -> JointTable:
        """A table whose blocks' weights are positive and sum to denominators
        whose product is ``denom``, by construction, so nothing needs
        checking again: a projection of a checked table (sums of its positive
        weights), an exact enumeration (products of validated ``Pmf``
        numerators), or counts of rows drawn from a table (positive, summing
        to the number drawn). ``own`` is the bits of the ids in ``cols``."""
        table = cls.__new__(cls)
        table._cols = cols
        table._own = own
        table._blocks = blocks
        table._denom = denom
        table._entropy = None
        return table

    @property
    def _weights(self) -> dict[int, int]:
        """The multiplied-out rows: packed key -> weight."""
        rows = {0: 1}
        for _, ws, _ in self._blocks:
            rows = {k | b: w * v for k, w in rows.items() for b, v in ws.items()}
        return rows

    @property
    def variables(self) -> tuple[NodeId, ...]:
        return tuple(c[1] for c in self._cols)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(c[2] for c in self._cols)

    def __len__(self) -> int:
        return math.prod([len(b[1]) for b in self._blocks])

    def items(self) -> list[tuple[tuple[int, ...], Fraction]]:
        """Entries sorted by assignment, probabilities as Fractions."""
        fields, d = [c[3] for c in self._cols], self._denom
        return [
            (tuple(alphabet[(key >> shift) & mask] for shift, mask, alphabet in fields),
             Fraction(w, d))
            for key, w in sorted(self._weights.items())
        ]

    def marginal(self, keep: Vars) -> JointTable:
        """The marginal on ``keep``: ids, or a bit mask with bit v for id v.

        Only the blocks it cuts are scanned; those it drops fold into one
        constant. A projection that merges no rows keeps the multiset of
        weights, so it takes this table's entropy, when known, as its own.
        """
        keep = _mask(keep)
        if keep & ~self._own:
            raise _unknown(keep, self._own)
        cols = tuple([c for c in self._cols if keep & c[0]])
        if len(cols) == len(self._cols):
            return self
        keep_mask = sum([c[4] for c in cols])
        blocks, dropped = [], 1
        for block in self._blocks:
            block_mask, ws, d = block
            cut = block_mask & keep_mask
            if not cut:
                dropped *= d
            elif cut == block_mask:
                blocks.append(block)
            else:
                out: dict[int, int] = {}
                get = out.get
                for key, w in ws.items():
                    key &= cut
                    out[key] = get(key, 0) + w
                blocks.append((cut, out, d))
        if dropped > 1 or not blocks:
            blocks.append((0, {0: dropped}, dropped))
        table = JointTable._derived(cols, keep, tuple(blocks), self._denom)
        if len(table) == len(self):
            table._entropy = self._entropy
        return table

    def entropy_bits(self) -> float:
        """Shannon entropy of the full table, in bits; 0 log 0 counts as 0.

        The blocks' weights are multiplied out into the rows' integers, and
        the terms are summed with ``math.fsum``, so the result depends only on
        the multiset of weights, not on the order the table was built in. A
        denominator past float range takes each term from ``w / d`` and the
        big-int ``math.log2`` instead of from w * log2(w).
        """
        if self._entropy is None:
            d, ws = self._denom, self._blocks[0][1].values()
            for _, block, _ in self._blocks[1:]:
                ws = [w * v for v in block.values() for w in ws]
            if d.bit_length() <= _FLOAT_SAFE_BITS:
                acc = math.fsum(map(operator.mul, ws, map(math.log2, ws)))
                self._entropy = math.log2(d) - acc / d
            else:
                log_d = math.log2(d)
                self._entropy = math.fsum(w / d * (log_d - math.log2(w)) for w in ws)
        return self._entropy


def _columns(variables, labels, fields) -> tuple:
    """``JointTable._cols`` for aligned ids, labels and fields."""
    return tuple(
        (1 << v if v >= 0 else 0, v, label, field, field[1] << field[0])
        for v, label, field in zip(variables, labels, fields)
    )


def joint_distribution(
    scm: "Scm",
    include_noise: bool = False,
    budget: int | None = None,
) -> JointTable:
    """Enumerate all noise tuples of an SCM into an exact joint table.

    The enumeration size is the product of noise support sizes, capped by
    ``budget`` (default 2**24), though each connected component of the
    skeleton is enumerated on its own, as one block. With ``include_noise``
    the table also covers the noise variables (``N_v`` in ``v``'s block),
    under the ids given by ``scm.noise_node``.

    Partial states are extended one node at a time in topological order:
    each node's step maps its parents' packed field values to the bits and
    weight of each positive-weight noise value, so no node is evaluated
    twice for the same prefix. The last step sums straight into the table.
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
    alphabets = [scm.alphabets[v] for v in nodes]
    if include_noise:
        variables += [scm.noise_node(v) for v in nodes]
        labels += [scm.noise_label(v) for v in nodes]
        alphabets += [tuple(sorted(scm.noise[v].support)) for v in nodes]
    fields = dict(zip(variables, _layout(alphabets)))

    cols = _columns(variables, labels, fields.values())
    key_bits = {c[1]: c[4] for c in cols}
    skeleton = scm.graph.components()
    components: dict[int, list] = {}  # component -> [key mask, steps]
    for v in scm.topological_order:
        pmf, table = scm.noise[v], scm.functions[v]
        d = math.lcm(*(q.denominator for q in pmf.probs))
        code = _codes(fields[v])
        u_code = _codes(fields[scm.noise_node(v)]) if include_noise else {}
        noise = []
        for u, q in zip(pmf.support, pmf.probs):
            w = q.numerator * (d // q.denominator)
            if w:  # a zero weight drops the choice
                noise.append((u, w, u_code.get(u, 0)))
        parents = [fields[p] for p in table.parent_order]
        parent_mask = 0
        for p_shift, mask, _ in parents:
            parent_mask |= mask << p_shift
        choices = {}
        for combo in product(*(_codes(field).items() for field in parents)):
            parent_vals = tuple(x for x, _ in combo)
            choices[sum(bits for _, bits in combo)] = tuple(
                (code[table.entries[(*parent_vals, u)]] | u_bits, w) for u, w, u_bits in noise
            )
        block = components.setdefault(next(c for c in skeleton if c >> v & 1), [0, []])
        block[0] |= key_bits[v] | key_bits.get(scm.noise_node(v), 0)
        block[1].append((parent_mask, choices))

    blocks = []
    for block_mask, steps in components.values():
        states = [(0, 1)]
        for parent_mask, choices in steps[:-1]:
            states = [
                (key | bits, w * nw) for key, w in states for bits, nw in choices[key & parent_mask]
            ]
        acc: dict[int, int] = {}
        get = acc.get
        parent_mask, choices = steps[-1]
        for key, w in states:
            for bits, nw in choices[key & parent_mask]:
                bits |= key
                acc[bits] = get(bits, 0) + w * nw
        # the products of each node's numerators sum to the product of its denominators
        blocks.append((block_mask, acc, sum(acc.values())))
    # a model without nodes has one empty assignment
    blocks = tuple(blocks) or ((0, {0: 1}, 1),)
    return JointTable._derived(
        cols, sum(c[0] for c in cols), blocks, math.prod(b[2] for b in blocks)
    )


def empirical_joint(table: JointTable, n: int, seed: int) -> JointTable:
    """A plug-in table of ``n`` rows drawn i.i.d. from ``table``: each row's
    probability is its count over n, exactly, with ``table``'s columns.

    Each block is drawn on its own, over its keys in sorted order, from
    ``random.Random(seed)``: one draw is the key whose cumulative integer
    weight first exceeds a uniform integer below the block's denominator, so
    no probability becomes a float. A row ORs one draw from each block.
    """
    if n < 1:
        raise ValueError(f"sample size must be positive, got {n}")
    rng = random.Random(seed)
    rows = [0] * n
    for _, ws, d in table._blocks:
        keys = sorted(ws)
        cumulative = list(accumulate(ws[k] for k in keys))
        for i in range(n):
            rows[i] |= keys[bisect_right(cumulative, rng.randrange(d))]
    mask = sum(c[4] for c in table._cols)
    return JointTable._derived(table._cols, table._own, ((mask, dict(Counter(rows)), n),), n)


def render_joint_table(table: JointTable) -> str:
    """Rows ``A=0,B=1 : p`` sorted by assignment; exact probabilities as p/q."""
    lines = []
    for key, p in table.items():
        cells = ",".join(f"{lab}={val}" for lab, val in zip(table.labels, key))
        lines.append(f"{cells} : {p}")
    return "\n".join(lines) + "\n"


def _mask(variables: Vars) -> int:
    """``variables`` as a mask; an ``int`` (not a ``bool``) is one already."""
    if type(variables) is int:
        return variables
    mask = 0
    for v in map(int, variables):
        if v < 0:
            raise ValueError(f"unknown variables [{v}]")
        mask |= 1 << v
    return mask


def _unknown(key: int, own: int) -> ValueError:
    """The error for a mask ``key`` with bits outside ``own``."""
    extra = key & ~own
    ids = [v for v in range(extra.bit_length()) if extra >> v & 1] if extra > 0 else key
    return ValueError(f"unknown variables {ids}")


class EntropyOracle:
    """Conditional-entropy and independence queries over one joint table.

    A variable set is an iterable of ids or a bit mask: an ``int`` means a
    mask (bit v for id v), not a node. Entropies are memoized per mask.
    ``marginal_entropies`` fills the memo for many sets at once and is the
    one place that projects; a ``marginal_entropy`` miss is a one-set batch.
    The oracle keeps its full table and the memo's floats, never a
    projection: the tables a batch projects die when it returns. Callers
    that know their sets in advance (a discovery round, a verification
    suite, the directed-faithfulness audit) batch them first, so their
    later queries are memo hits. An oracle given another's ``memo`` (as
    ``projected`` does) shares it, and still checks every key against its
    own variables. The oracle is single-threaded.
    """

    def __init__(self, table: JointTable, memo: dict[int, float] | None = None):
        if any(v < 0 for v in table.variables):
            raise ValueError(f"variable ids must be non-negative, got {min(table.variables)}")
        self._table = table
        self._outside = ~table._own
        self._cache: dict[int, float] = {} if memo is None else memo

    @property
    def variables(self) -> tuple[NodeId, ...]:
        return self._table.variables

    @property
    def table(self) -> JointTable:
        return self._table

    def marginal_entropy(self, variables: Vars = ()) -> float:
        """H of one set: a memo lookup, and a one-set ``marginal_entropies``
        batch on a miss."""
        key = _mask(variables)
        value = None if key & self._outside else self._cache.get(key)
        if value is None:  # a miss, or unknown variables, which the batch refuses
            value = self.marginal_entropies((key,))[0]
        return value

    def marginal_entropies(self, sets: Iterable[Vars]) -> list[float]:
        """H of each set in ``sets``, in input order, every one memoized.

        The distinct misses are projected largest first, in batch order
        within a size: each from the smallest table this call has already
        projected that covers it (the one projected first on a tie), or from
        the full table when there is none. A projection becomes a source
        only when it has fewer rows than the table it came from; one as long
        scans no faster than that table. Those sources stay alive until the
        call returns, and no longer.
        """
        keys = [_mask(s) for s in sets]
        cache, full = self._cache, self._table
        for key in keys:
            if key & self._outside:
                raise _unknown(key, full._own)
        misses = sorted(dict.fromkeys(k for k in keys if k not in cache),
                        key=int.bit_count, reverse=True)  # stable: batch order within a size
        done: list[tuple[int, JointTable]] = []  # (key, table) of each source projected so far
        for key in misses:
            source = min((t for k, t in done if not key & ~k), key=len, default=full)
            table = source.marginal(key)
            cache[key] = table.entropy_bits()
            if len(table) < len(source):
                done.append((key, table))
        return [cache[key] for key in keys]

    def projected(self, variables: Vars) -> EntropyOracle:
        """An oracle over this table's marginal on ``variables``, sharing this
        oracle's memo: a set's entropy is computed once, whichever asks."""
        return EntropyOracle(self._table.marginal(variables), self._cache)

    def cond_entropy(self, target: Vars, given: Vars = ()) -> float:
        """H(target | given) in bits, via H(T ∪ G) - H(G)."""
        xs, ss = _mask(target), _mask(given)
        if not xs:
            raise ValueError("target set must be non-empty")
        if xs & ss:
            raise ValueError("target overlaps conditioning set")
        return self.marginal_entropy(xs | ss) - self.marginal_entropy(ss)

    def mutual_information(self, xs: Vars, ys: Vars, given: Vars = ()) -> float:
        """I(X; Y | S) in bits. Tiny negatives are float roundoff."""
        xs, ys, ss = _mask(xs), _mask(ys), _mask(given)
        if not xs or not ys:
            raise ValueError("both variable sets must be non-empty")
        if xs & ys or xs & ss or ys & ss:
            raise ValueError("variable sets must be pairwise disjoint")
        return (
            self.marginal_entropy(xs | ss)
            + self.marginal_entropy(ys | ss)
            - self.marginal_entropy(ss)
            - self.marginal_entropy(xs | ys | ss)
        )
