import gc
import math
import random
from itertools import product
from fractions import Fraction

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from causal_layering.oracle import (
    EntropyOracle,
    EnumerationBudgetError,
    JointTable,
    joint_distribution,
    render_joint_table,
)
from causal_layering.graph import Dag
from causal_layering.scm import (
    PROFILES,
    Assumptions,
    GenerationError,
    GeneratorConfig,
    Pmf,
    Scm,
    StructuralTable,
    generate_scm,
    noise_entropy,
)

import bruteforce
from bruteforce import cond_entropy as bf_cond_entropy
from bruteforce import entropy as bf_entropy
from bruteforce import joint_distribution as bf_joint_distribution
from bruteforce import joint_probs
from bruteforce import marginal as bf_marginal
from bruteforce import as_ids

# Entropy of a coin with bias p, computed independently and frozen.
H_EIGHTH = 0.5435644431995964   # p = 1/8
H_QUARTER = 0.8112781244591328  # p = 1/4
H_5_16 = 0.8960382325345574     # p = 5/16

A, B, C = 0, 1, 2


def prob(t: JointTable, key: tuple) -> Fraction:
    """P(key) read off ``t.items()``; 0 for a key it does not list."""
    return dict(t.items()).get(tuple(key), Fraction(0))


def exact_pair() -> JointTable:
    # P(X=0,Y=0)=1/2, P(X=0,Y=1)=1/4, P(X=1,Y=1)=1/4
    return JointTable((0, 1), ("X", "Y"), {(0, 0): 2, (0, 1): 1, (1, 1): 1}, 4)


class TestJointTable:
    def test_prob_and_total(self):
        t = exact_pair()
        assert prob(t, (0, 0)) == Fraction(1, 2)
        assert prob(t, (1, 0)) == 0
        assert sum(p for _, p in t.items()) == 1

    def test_zero_weights_dropped(self):
        t = JointTable((0, 1), ("X", "Y"), {(0, 0): 4, (1, 1): 0}, 4)
        assert len(t) == 1

    def test_rejects_negative_mass(self):
        with pytest.raises(ValueError, match="negative"):
            JointTable((0,), ("X",), {(0,): -1, (1,): 5}, 4)

    def test_rejects_bad_sum_exact(self):
        with pytest.raises(ValueError, match="sum to"):
            JointTable((0,), ("X",), {(0,): 1, (1,): 1}, 4)

    def test_rejects_bad_sum_float(self):
        # float weights are refused whatever they sum to
        with pytest.raises(ValueError, match="denominator must be a positive integer"):
            JointTable((0,), ("X",), {(0,): 0.5, (1,): 0.4}, None)
        with pytest.raises(ValueError, match="must be an integer, got 0.5"):
            JointTable((0,), ("X",), {(0,): 0.5, (1,): 0.4}, 1)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_float_mass(self, bad):
        with pytest.raises(ValueError, match="must be an integer"):
            JointTable((0,), ("X",), {(0,): bad, (1,): bad}, 1)

    @pytest.mark.parametrize("weights, denom, message", [
        ({(0,): 0.5, (1,): 0.5}, 1, "must be an integer, got 0.5"),
        ({(0,): True, (1,): 1}, 2, "must be an integer, got True"),
        ({(0,): 1, (1,): 1}, None, "positive integer, got None"),
        ({(0,): 1, (1,): 1}, 2.0, "positive integer, got 2.0"),
        ({(0,): 1, (1,): 1}, True, "positive integer, got True"),
        ({(0,): 0, (1,): 0}, 0, "positive integer, got 0"),
        ({(0,): -1, (1,): -1}, -2, "positive integer, got -2"),
    ])
    def test_rejects_inexact_weights_and_denominators(self, weights, denom, message):
        with pytest.raises(ValueError, match=message):
            JointTable((0,), ("X",), weights, denom)

    def test_rejects_misaligned_assignment(self):
        with pytest.raises(ValueError, match="variable count"):
            JointTable((0, 1), ("X", "Y"), {(0,): 4}, 4)

    def test_rejects_duplicate_variables(self):
        with pytest.raises(ValueError, match="duplicate"):
            JointTable((0, 0), ("X", "Y"), {(0, 0): 4}, 4)

    def test_marginal_projects(self):
        t = exact_pair()
        mx = t.marginal({0})
        assert prob(mx, (0,)) == Fraction(3, 4)
        assert prob(mx, (1,)) == Fraction(1, 4)
        assert mx.labels == ("X",)

    def test_marginal_identity_is_same_object(self):
        t = exact_pair()
        assert t.marginal({0, 1}) is t

    def test_marginal_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown variables"):
            exact_pair().marginal({7})

    def test_entropy_exact_vs_float(self):
        t = exact_pair()
        assert t.entropy_bits() == pytest.approx(1.5, abs=1e-12)
        # the same table with float weights has no entropy: it is refused
        with pytest.raises(ValueError, match="must be an integer"):
            JointTable((0, 1), ("X", "Y"), {(0, 0): 0.5, (0, 1): 0.25, (1, 1): 0.25}, 1)

    def test_uniform_entropy_is_log(self):
        t = JointTable((0,), ("X",), {(v,): 1 for v in range(8)}, 8)
        assert t.entropy_bits() == pytest.approx(3.0, abs=1e-12)

    def test_render_sorted_rows(self):
        text = render_joint_table(exact_pair())
        assert text == "X=0,Y=0 : 1/2\nX=0,Y=1 : 1/4\nX=1,Y=1 : 1/4\n"

    def test_negative_and_huge_values_round_trip(self):
        big = 10**30
        weights = {(-5, big, 0): 3, (-5, -big, 1): 1, (7, big, 1): 2, (0, 0, -1): 2}
        t = JointTable((4, 1, 9), ("X", "Y", "Z"), weights, 8)
        assert t.items() == sorted((key, Fraction(w, 8)) for key, w in weights.items())
        for key, w in weights.items():
            assert prob(t, key) == Fraction(w, 8)
        yz = t.marginal({1, 9})
        assert yz.items() == [((-big, 1), Fraction(1, 8)), ((0, -1), Fraction(2, 8)),
                              ((big, 0), Fraction(3, 8)), ((big, 1), Fraction(2, 8))]
        y = yz.marginal({1})
        assert y.items() == [((-big,), Fraction(1, 8)), ((0,), Fraction(2, 8)),
                             ((big,), Fraction(5, 8))]
        assert prob(y, (big,)) == Fraction(5, 8) and prob(y, (-big,)) == Fraction(1, 8)
        assert y.entropy_bits() == t.marginal({1}).entropy_bits()

    def test_prob_outside_the_alphabet_is_zero(self):
        t = exact_pair()
        for key in [(2, 0), (0, -1), (-1, 1), (10**30, 0), (0,), (0, 0, 0)]:
            assert prob(t, key) == 0
        assert prob(t.marginal({1}), (5,)) == 0

    def test_entropy_past_float_range(self):
        d = 10**400  # w * log2(w) would overflow a float
        t = JointTable((0,), ("X",), {(0,): d // 2, (1,): d // 4, (2,): d // 4}, d)
        assert t.entropy_bits() == pytest.approx(1.5, abs=1e-12)
        assert t.marginal(()).entropy_bits() == 0.0
        skew = JointTable((0,), ("X",), {(0,): d - 1, (1,): 1}, d)
        assert skew.entropy_bits() == pytest.approx(0.0, abs=1e-12)


@st.composite
def weighted_tables(draw):
    """(variables, weights by assignment, T, S) with S a subset of T."""
    n = draw(st.integers(min_value=1, max_value=5))
    variables = tuple(draw(st.permutations(range(n + 2)))[:n])
    keys = draw(st.lists(st.tuples(*[st.integers(0, 2)] * n), min_size=1, max_size=40,
                         unique=True))
    weights = dict(zip(keys, draw(st.lists(st.integers(1, 10**6), min_size=len(keys),
                                           max_size=len(keys)))))
    in_t = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    big = frozenset(v for v, keep in zip(variables, in_t) if keep)
    small = frozenset(v for v in big if draw(st.booleans()))
    return variables, weights, big, small


@st.composite
def planner_runs(draw):
    """A ``weighted_tables`` table and its observed subset, then 1–5 rounds of
    (ask the noise oracle?, sets of ids, the form each set is passed in, one
    set asked before, for a single lookup). One id lies outside every table."""
    variables, weights, observed_vars, _ = draw(weighted_tables())
    ids = [*variables, max(variables) + 1]
    rounds, asked = [], []
    for _ in range(draw(st.integers(1, 5))):
        use_noisy = draw(st.booleans())
        sets = draw(st.lists(st.lists(st.sampled_from(ids), unique=True), max_size=30))
        forms = draw(st.lists(st.sampled_from([_mask, frozenset, list]),
                              min_size=len(sets), max_size=len(sets)))
        asked += sets
        one = draw(st.sampled_from(asked)) if asked else []
        rounds.append((use_noisy, sets, forms, one))
    return variables, weights, observed_vars, rounds


def _mask(variables) -> int:
    """An ``EntropyOracle`` memo key: bit v for id v."""
    return sum(1 << v for v in variables)


def _exact(variables, weights, order=None) -> JointTable:
    keys = list(weights) if order is None else order
    labels = [f"V{v}" for v in variables]
    return JointTable(variables, labels, {k: weights[k] for k in keys}, sum(weights.values()))


class TestMarginalEngine:
    """The projection path against the reference in ``bruteforce.marginal``."""

    @settings(max_examples=150, deadline=None)
    @given(weighted_tables())
    def test_nested_projection_matches_reference(self, case):
        variables, weights, big, small = case
        t = _exact(variables, weights)
        direct = t.marginal(small)
        via_superset = t.marginal(big).marginal(small)
        reference = bf_marginal(t, small)
        assert via_superset.items() == direct.items() == reference.items()
        assert direct.variables == via_superset.variables == reference.variables
        assert direct.labels == reference.labels
        # derived weights still sum to the shared denominator
        assert sum(p for _, p in direct.items()) == sum(p for _, p in via_superset.items()) == 1

    @settings(max_examples=150, deadline=None)
    @given(weighted_tables(), st.randoms(use_true_random=False))
    def test_entropy_is_bitwise_free_of_source_and_order(self, case, rng):
        variables, weights, big, small = case
        t = _exact(variables, weights)
        keys = list(weights)
        rng.shuffle(keys)
        shuffled = _exact(variables, weights, keys)
        h = t.marginal(small).entropy_bits()
        assert t.marginal(big).marginal(small).entropy_bits() == h
        assert shuffled.marginal(small).entropy_bits() == h
        assert shuffled.marginal(big).marginal(small).entropy_bits() == h
        # a warm oracle answers as a projection from any superset does
        orc = EntropyOracle(shuffled)
        orc.marginal_entropy(big)
        assert orc.marginal_entropy(small) == h

    @settings(max_examples=150, deadline=None)
    @given(weighted_tables(), st.data())
    def test_every_projected_entropy_is_a_fresh_tables(self, case, data):
        """Chains of projections by mask or by ids, from sources whose
        entropy is known or not: each entropy, carried or summed, equals that
        of a new table built from the projection's rows, bit for bit."""
        variables, weights, _, _ = case
        t = _exact(variables, weights)
        tables = [t]
        for _ in range(data.draw(st.integers(1, 8))):
            source = data.draw(st.sampled_from(tables))
            if data.draw(st.booleans()):
                source.entropy_bits()
            known = source._entropy is not None
            keep = frozenset(v for v in source.variables if data.draw(st.booleans()))
            out = source.marginal(data.draw(st.sampled_from([_mask(keep), keep, sorted(keep)])))
            assert out.variables == tuple(v for v in source.variables if v in keep)
            merged = len(out) < len(source)
            assert (out._entropy is not None) == (known and (not merged or out is source))
            rows = {key: p.numerator * (t._denom // p.denominator) for key, p in out.items()}
            fresh = JointTable(out.variables, out.labels, rows, t._denom)
            assert out.entropy_bits().hex() == fresh.entropy_bits().hex()
            tables.append(out)

    @settings(max_examples=100, deadline=None)
    @given(weighted_tables(), st.data())
    def test_unknown_and_negative_ids_are_refused_as_ids_and_in_masks(self, case, data):
        variables, weights, _, _ = case
        t = _exact(variables, weights)
        orc = EntropyOracle(t)
        bad = data.draw(st.integers(-3, 9).filter(lambda v: v not in variables))
        known = data.draw(st.lists(st.sampled_from(variables), unique=True))
        forms = [[*known, bad]]
        if bad >= 0:
            forms.append(_mask(known) | 1 << bad)
        for keep in forms:
            for ask in (t.marginal, orc.marginal_entropy, lambda k: orc.marginal_entropies([k])):
                with pytest.raises(ValueError, match=rf"^unknown variables \[{bad}\]$"):
                    ask(keep)

    @settings(max_examples=100, deadline=None)
    @given(weighted_tables())
    def test_float_tables_stay_near_reference(self, case):
        """Float arithmetic on the same weights, the way ``bruteforce`` does
        it, stays within 1e-12 of the exact projection and its entropy."""
        variables, weights, big, small = case
        total = sum(weights.values())
        floats = {k: w / total for k, w in weights.items()}
        keep = tuple(i for i, v in enumerate(variables) if v in small)
        reference: dict[tuple[int, ...], float] = {}
        for key, p in floats.items():
            sub = tuple(key[i] for i in keep)
            reference[sub] = reference.get(sub, 0.0) + p
        got = _exact(variables, weights).marginal(big).marginal(small)
        assert [k for k, _ in got.items()] == sorted(reference)
        for key, p in got.items():
            assert abs(p - reference[key]) <= 1e-12
        assert abs(got.entropy_bits() - bf_entropy(floats, keep)) <= 1e-12

    @settings(max_examples=50, deadline=None)
    @given(weighted_tables(), st.randoms(use_true_random=False))
    def test_oracle_answers_do_not_depend_on_query_history(self, case, rng):
        variables, weights, _, _ = case
        t = _exact(variables, weights)
        shared = EntropyOracle(t)
        for _ in range(12):
            xs = frozenset(v for v in variables if rng.random() < 0.5)
            ss = frozenset(v for v in variables if v not in xs and rng.random() < 0.5)
            if not xs:
                continue
            assert shared.cond_entropy(xs, ss) == EntropyOracle(t).cond_entropy(xs, ss)

    @settings(max_examples=100, deadline=None)
    @given(weighted_tables(), st.integers(min_value=0, max_value=2**32 - 1))
    def test_a_single_miss_is_projected_from_the_full_table(self, case, seed):
        variables, weights, _, _ = case
        rng = random.Random(seed)
        t = _exact(variables, weights)
        orc = EntropyOracle(t)
        sources: list[JointTable] = []
        original = JointTable.marginal

        def recording(self, keep):
            sources.append(self)
            return original(self, keep)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(JointTable, "marginal", recording)
            for _ in range(30):
                key = frozenset(v for v in variables if rng.random() < rng.random())
                want = original(t, key).entropy_bits()
                missed = _mask(key) not in orc._cache
                sources.clear()
                assert orc.marginal_entropy(key) == want
                assert sources == ([t] if missed else [])
                sources.clear()
                assert orc.marginal_entropy(sorted(key)) == want  # a hit
                assert sources == []


def _generator_entropy(t: JointTable) -> float:
    """``entropy_bits`` as it was first written: a generator per row."""
    ws, d = t._weights.values(), t._denom
    if d.bit_length() <= 1000:
        return math.log2(d) - math.fsum(w * math.log2(w) for w in ws) / d
    log_d = math.log2(d)
    return math.fsum(w / d * (log_d - math.log2(w)) for w in ws)


class TestEntropyBits:
    @settings(max_examples=150, deadline=None)
    @given(weighted_tables())
    def test_matches_the_generator_form(self, case):
        variables, weights, _, small = case
        t = _exact(variables, weights)
        for table in (t, t.marginal(small)):
            assert table.entropy_bits().hex() == _generator_entropy(table).hex()

    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=985, max_value=1015).flatmap(
        lambda bits: st.lists(st.integers(1, 1 << bits), min_size=1, max_size=12)))
    def test_matches_the_generator_form_near_the_float_switch(self, ws):
        t = JointTable((0,), ("X",), {(i,): w for i, w in enumerate(ws)}, sum(ws))
        assert t.entropy_bits().hex() == _generator_entropy(t).hex()


@st.composite
def query_sets(draw, variables, max_size=40):
    return draw(st.lists(
        st.lists(st.sampled_from(variables), unique=True).map(frozenset), max_size=max_size))


class TestBatchEntropies:
    """``marginal_entropies`` against single fresh-oracle queries."""

    @settings(max_examples=100, deadline=None)
    @given(weighted_tables(), st.data())
    def test_answers_are_a_fresh_oracles(self, case, data):
        variables, weights, _, _ = case
        t = _exact(variables, weights)
        orc = EntropyOracle(t)
        for key in data.draw(query_sets(variables, 10)):  # some hits
            orc.marginal_entropy(key)
        sets = data.draw(query_sets(variables))
        got = orc.marginal_entropies(sets)
        assert [h.hex() for h in got] == [EntropyOracle(t).marginal_entropy(s).hex() for s in sets]
        assert all(_mask(s) in orc._cache for s in sets)
        assert orc.marginal_entropies(sets) == got

    @settings(max_examples=100, deadline=None)
    @given(weighted_tables(), st.data())
    def test_each_miss_is_projected_from_the_smallest_covering_table(self, case, data):
        variables, weights, _, _ = case
        t = _exact(variables, weights)
        orc = EntropyOracle(t)
        for key in data.draw(query_sets(variables, 10)):
            orc.marginal_entropy(key)
        sets = data.draw(query_sets(variables))
        misses = dict.fromkeys(s for s in sets if _mask(s) not in orc._cache)
        calls: list[tuple[JointTable, frozenset[int], JointTable]] = []
        original = JointTable.marginal

        def recording(self, keep):
            out = original(self, keep)
            calls.append((self, as_ids(keep), out))
            return out

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(JointTable, "marginal", recording)
            orc.marginal_entropies(sets)
        # largest first, and in batch order within a size
        assert [key for _, key, _ in calls] == sorted(misses, key=len, reverse=True)
        kept: list[tuple[frozenset[int], JointTable]] = []
        for source, key, table in calls:
            covering = [x for covered, x in kept if key <= covered]
            fewest = min(map(len, covering), default=None)
            assert source is next((x for x in covering if len(x) == fewest), t)
            # a table as long as its source scans no faster than that source
            if len(table) < len(source):
                kept.append((key, table))

    def test_the_smaller_one_larger_table_is_the_source(self):
        # over (k%2, k//4, k%3, k) for k < 8: {0, 1} has 4 rows, {0, 2} has 6, the table 8
        t = JointTable((0, 1, 2, 3), "ABCD", {(k % 2, k // 4, k % 3, k): 1 for k in range(8)}, 8)
        sources = []
        original = JointTable.marginal

        def recording(self, keep):
            out = original(self, keep)
            sources.append((len(self), sorted(as_ids(keep)), len(out)))
            return out

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(JointTable, "marginal", recording)
            EntropyOracle(t).marginal_entropies([{0, 2}, {0}, {0, 1}])
        assert sources == [(8, [0, 2], 6), (8, [0, 1], 4), (4, [0], 2)]

    @pytest.mark.parametrize("variables", [(2, 0, 1), (1, 0, 2)])
    def test_a_tie_goes_to_the_table_projected_first(self, variables):
        # every pair of the three binary variables has 4 of the table's 8 rows, so {0}
        # has two equal sources: the one the batch asks first, in either variable order
        t = JointTable(variables, "XYZ", {k: 1 for k in product((0, 1), repeat=3)}, 8)
        for batch in ([{0, 2}, {0, 1}, {0}], [{0, 1}, {0, 2}, {0}]):
            sources = []
            original = JointTable.marginal

            def recording(self, keep):
                out = original(self, keep)
                sources.append((self.variables, as_ids(keep)))
                return out

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(JointTable, "marginal", recording)
                EntropyOracle(t).marginal_entropies(batch)
            source, kept = sources[-1]
            assert kept == {0} and set(source) == batch[0]

    def test_a_source_may_be_any_size_larger(self):
        # over (k%2, k//2%2, 0, k) for k < 8: {0, 1, 2} has 4 rows, the table 8; the
        # batch asks no set of two, and {0} still comes from the smaller table
        t = JointTable((0, 1, 2, 3), "ABCD",
                       {(k % 2, k // 2 % 2, 0, k): 1 for k in range(8)}, 8)
        sources = []
        original = JointTable.marginal

        def recording(self, keep):
            out = original(self, keep)
            sources.append((len(self), sorted(as_ids(keep)), len(out)))
            return out

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(JointTable, "marginal", recording)
            EntropyOracle(t).marginal_entropies([{0, 1, 2}, {0}])
        assert sources == [(8, [0, 1, 2], 4), (4, [0], 2)]

    def test_no_projected_table_outlives_the_call(self):
        t = JointTable((0, 1, 2, 3), "ABCD",
                       {(k % 2, k // 2 % 2, k % 3, k): 1 for k in range(8)}, 8)
        orc = EntropyOracle(t)

        def live() -> int:
            return sum(type(x) is JointTable for x in gc.get_objects())

        alive = []  # the tables alive as each projection is made
        original = JointTable.marginal

        def recording(self, keep):
            alive.append(live())
            return original(self, keep)

        before = live()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(JointTable, "marginal", recording)
            orc.marginal_entropies([{0, 1, 2}, {0, 1}, {1, 2}, {0}, {1}, {2}])
        assert alive[-1] > before  # the batch kept sources while it ran
        assert live() == before

    def test_observed_oracle_shares_the_noise_oracles_memo(self, affine_chain):
        calls = []
        original = JointTable.marginal

        def recording(self, keep):
            calls.append(as_ids(keep))
            return original(self, keep)

        for observed_first in (True, False):
            audit = Assumptions(affine_chain)
            observed, noisy = audit.oracle(), audit.noise_oracle()
            first, second = (observed, noisy) if observed_first else (noisy, observed)
            fresh = EntropyOracle(joint_distribution(affine_chain))
            keys = ({A}, {A, C}, set())
            want = [fresh.marginal_entropy(key) for key in keys]
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(JointTable, "marginal", recording)
                for key, h in zip(keys, want):
                    assert first.marginal_entropy(key) == h
                    calls.clear()
                    assert second.marginal_entropy(key) == h
                    assert calls == []
                first.marginal_entropies([{B}, {B, C}])
                calls.clear()
                second.marginal_entropies([{B}, {B, C}])
                assert calls == []
        with pytest.raises(ValueError, match="unknown variables"):
            observed.marginal_entropy({affine_chain.noise_node(A)})


class TestMaskPlanner:
    """The bit-mask planner against ``bruteforce.marginal_entropies``, the
    same rule over frozenset keys."""

    @staticmethod
    def _run(fn):
        """(result or error text, [(source variables, kept variables)] per projection)."""
        calls: list[tuple[frozenset[int], frozenset[int]]] = []
        original = JointTable.marginal

        def recording(self, keep):
            calls.append((frozenset(self.variables), as_ids(keep)))
            return original(self, keep)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(JointTable, "marginal", recording)
            try:
                out = fn()
            except ValueError as exc:
                out = f"ValueError: {exc}"
        return out, calls

    # Two pinned runs over V0, V1, V2 ask {0, 1}, {0, 2}, then {0}, which
    # both earlier tables cover, each smaller than the full table's six rows:
    # one where {0, 2} has fewer rows than {0, 1} (4 < 5), so the smaller
    # wins against the earlier; one where the two tie at four rows, so the
    # one projected first wins.
    @settings(max_examples=150, deadline=None)
    @given(planner_runs())
    @example(((0, 1, 2), dict.fromkeys(
        [(0, 0, 0), (0, 1, 0), (0, 2, 1), (1, 0, 1), (1, 1, 1), (1, 1, 0)], 1),
        frozenset({0, 1, 2}), [(True, [[0, 1], [0, 2], [0]], [frozenset] * 3, [0])]))
    @example(((0, 1, 2), dict.fromkeys(
        [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1), (1, 1, 0)], 1),
        frozenset({0, 1, 2}), [(True, [[0, 1], [0, 2], [0]], [_mask] * 3, [0])]))
    def test_matches_the_frozenset_planner(self, run):
        variables, weights, observed_vars, rounds = run
        t = _exact(variables, weights)
        noisy = EntropyOracle(t)
        observed = noisy.projected(observed_vars)  # shares the memo, as Assumptions does
        memo: dict[frozenset[int], float] = {}
        ids = [*variables, max(variables) + 1]
        for use_noisy, sets, forms, one in rounds:
            orc = noisy if use_noisy else observed
            batch = [form(s) for form, s in zip(forms, sets)]
            want, want_calls = self._run(lambda: bruteforce.marginal_entropies(
                orc.table, memo, [frozenset(s) for s in sets]))
            got, got_calls = self._run(lambda: orc.marginal_entropies(batch))
            if isinstance(want, list):
                want, got = [h.hex() for h in want], [h.hex() for h in got]
            assert got == want
            assert got_calls == want_calls
            keys = {frozenset(v for v in ids if k >> v & 1): h for k, h in orc._cache.items()}
            assert keys == memo
            for lookup in (noisy, observed):  # one lookup: a memo hit, a miss, or out of scope
                want, _ = self._run(lambda: bruteforce.marginal_entropies(
                    lookup.table, memo, [frozenset(one)])[0])
                got, _ = self._run(lambda: lookup.marginal_entropy(_mask(one)))
                assert got == want

    def test_every_key_is_scope_checked_memo_hits_too(self, affine_chain):
        audit = Assumptions(affine_chain)
        noisy, observed = audit.noise_oracle(), audit.oracle()
        n_a = affine_chain.noise_node(A)
        noisy.marginal_entropies([{n_a}, {n_a, A}, {A}])
        assert _mask({n_a}) in observed._cache
        for query in ({n_a}, _mask({n_a}), frozenset({n_a})):
            with pytest.raises(ValueError, match="unknown variables"):
                observed.marginal_entropy(query)
        with pytest.raises(ValueError, match="unknown variables"):
            observed.mutual_information({n_a}, {A})
        with pytest.raises(ValueError, match="unknown variables"):
            observed.cond_entropy(_mask({A}), _mask({n_a}))

    def test_an_int_is_a_mask_and_a_bool_is_refused(self, affine_chain):
        orc = EntropyOracle(joint_distribution(affine_chain))
        assert orc.marginal_entropy(0b101).hex() == orc.marginal_entropy([A, C]).hex()
        assert orc.marginal_entropy(0) == 0.0
        assert orc.cond_entropy(1 << C, 0b11) == orc.cond_entropy({C}, (A, B))
        assert orc.mutual_information(1 << A, [C]) == orc.mutual_information({A}, {C})
        assert orc.marginal_entropies([1 << B, {B}, [B]]) == [orc.marginal_entropy({B})] * 3
        with pytest.raises(TypeError):
            orc.marginal_entropy(True)
        for bad in (-1, 1 << 9, [-1]):
            with pytest.raises(ValueError, match="unknown variables"):
                orc.marginal_entropy(bad)

    def test_negative_variable_ids_are_refused(self):
        t = JointTable((0, -2), ("X", "Y"), {(0, 0): 1}, 1)
        with pytest.raises(ValueError, match="variable ids must be non-negative, got -2"):
            EntropyOracle(t)


class TestJointDistribution:
    def test_affine_chain_is_exact_over_64(self, affine_chain):
        t = joint_distribution(affine_chain)
        assert all(type(p) is Fraction for _, p in t.items())
        assert sum(p for _, p in t.items()) == 1
        # the scaled-sum map is injective in the noise: one outcome per combination
        assert len(t) == 8
        assert prob(t, (0, 0, 0)) == Fraction(21, 64)

    def test_xor_chain_corner_probability(self, xor_chain):
        t = joint_distribution(xor_chain)
        assert prob(t, (0, 0, 0)) == Fraction(21, 64)

    def test_include_noise_adds_shifted_ids(self, xor_chain):
        t = joint_distribution(xor_chain, include_noise=True)
        assert t.variables == (0, 1, 2, 3, 4, 5)
        assert t.labels == ("A", "B", "C", "N_A", "N_B", "N_C")

    def test_budget_enforced(self, affine_chain):
        with pytest.raises(EnumerationBudgetError, match="exceeds enumeration budget 7"):
            joint_distribution(affine_chain, budget=7)

    def test_exact_enumeration_equals_the_checked_construction(self, affine_chain, xor_chain):
        models = [affine_chain, xor_chain] + [
            generate_scm(GeneratorConfig(nodes=5, profile=profile), seed=seed)
            for profile in ("base", "plus_one") for seed in range(3)
        ]
        for m in models:
            for include_noise in (False, True):
                t = joint_distribution(m, include_noise=include_noise)
                rows = t.items()
                denom = math.lcm(*(p.denominator for _, p in rows))
                weights = {key: p.numerator * (denom // p.denominator) for key, p in rows}
                checked = JointTable(t.variables, t.labels, weights, denom)
                assert (t.variables, t.labels, t.items()) == (
                    checked.variables, checked.labels, checked.items())
                assert sum(p for _, p in rows) == 1
                assert all(p > 0 for _, p in rows)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(PROFILES), st.integers(1, 6), st.integers(0, 10_000),
           st.booleans())
    def test_matches_the_per_tuple_reference(self, profile, n, seed, include_noise):
        try:
            m = generate_scm(GeneratorConfig(nodes=n, profile=profile), seed=seed)
        except GenerationError:  # the generator's documented refusal: no model to compare
            reject()
        t = joint_distribution(m, include_noise=include_noise)
        ref = bf_joint_distribution(m, include_noise=include_noise)
        assert (t.variables, t.labels, t.items()) == (ref.variables, ref.labels, ref.items())

    @pytest.mark.parametrize("include_noise", [False, True])
    def test_zero_mass_and_non_injective_noise_match_the_reference(self, include_noise):
        big = 10**30
        g = Dag.of("ABC", [("A", "B"), ("A", "C"), ("B", "C")])
        noise = {
            0: Pmf.of((0, 1, 2), ("1/2", "0", "1/2")),  # A=10**30 has zero mass
            1: Pmf.of((0, 1, 2), ("1/3", "1/3", "1/3")),  # B folds u=0 and u=2
            2: Pmf.of((-1, 1), ("1/4", "3/4")),  # C is constant whenever B=0
        }
        f_a = {(0,): -3, (1,): big, (2,): 5}
        functions = {
            0: StructuralTable((), f_a),
            1: StructuralTable((0,), {(a, u): (a + u) % 2 for a in f_a.values() for u in range(3)}),
            2: StructuralTable((0, 1), {(a, b, u): b * u for a in f_a.values() for b in (0, 1)
                                        for u in (-1, 1)}),
        }
        m = Scm(g, noise, functions)
        t = joint_distribution(m, include_noise=include_noise)
        ref = bf_joint_distribution(m, include_noise=include_noise)
        assert (t.variables, t.labels, t.items()) == (ref.variables, ref.labels, ref.items())
        assert all(key[0] != big for key, _ in t.items())
        assert t.entropy_bits() == ref.entropy_bits()

    def test_render_affine_chain(self, affine_chain):
        assert render_joint_table(joint_distribution(affine_chain)) == (
            "A=0,B=0,C=0 : 21/64\nA=0,B=0,C=4 : 21/64\nA=0,B=2,C=2 : 7/64\n"
            "A=0,B=2,C=6 : 7/64\nA=1,B=1,C=1 : 3/64\nA=1,B=1,C=5 : 3/64\n"
            "A=1,B=3,C=3 : 1/64\nA=1,B=3,C=7 : 1/64\n"
        )

    def test_agrees_with_forward_simulation(self):
        for seed in range(6):
            m = generate_scm(GeneratorConfig(nodes=4, profile="base"), seed=seed)
            t = joint_distribution(m)
            slow = joint_probs(m)
            assert set(slow) == {key for key, _ in t.items()}
            for key, p in slow.items():
                assert float(prob(t, key)) == pytest.approx(p, abs=1e-12)


@st.composite
def block_models(draw) -> Scm:
    """Models of 1–7 nodes whose skeleton is often disconnected, and edgeless
    in about half the draws; a node's noise has 1–3 values, some of zero mass."""
    n = draw(st.integers(min_value=1, max_value=7))
    edgeless = draw(st.booleans())
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if not edgeless and draw(st.integers(0, 2)) == 0]
    g = Dag([f"V{i}" for i in range(n)], edges)
    noise, functions, alphabets = {}, {}, {}
    for v in range(n):  # 0..n-1 is a topological order
        pas = tuple(sorted(g.parents(v)))
        support = tuple(range(draw(st.integers(1, 3 if n <= 4 else 2))))
        weights = [draw(st.integers(0, 4)) for _ in support]
        if not any(weights):
            weights[0] = 1
        noise[v] = Pmf.from_weights(support, weights)
        entries = {
            (*combo, u): draw(st.integers(0, 2))
            for combo in product(*(alphabets[p] for p in pas))
            for u in support
        }
        alphabets[v] = tuple(sorted(set(entries.values())))
        functions[v] = StructuralTable(pas, entries)
    return Scm(g, noise, functions)


def _one_block(t: JointTable) -> JointTable:
    """The table of ``t``'s multiplied-out rows, built as one block by the
    checking constructor."""
    rows = {key: p.numerator * (t._denom // p.denominator) for key, p in t.items()}
    return JointTable(t.variables, t.labels, rows, t._denom)


def _components(m: Scm) -> int:
    """The number of connected components of ``m``'s skeleton."""
    seen, count = set(), 0
    for v in m.graph.nodes:
        if v not in seen:
            count += 1
            stack = [v]
            while stack:
                u = stack.pop()
                if u not in seen:
                    seen.add(u)
                    stack += m.graph.parents(u) | m.graph.children(u)
    return count


class TestBlockTables:
    """An exact joint table is stored as one block per connected component of
    the skeleton; it must behave, bit for bit, as the one-block table of its
    multiplied-out rows. Block order follows component discovery, so these
    tests also run under two hash seeds in CI."""

    @settings(max_examples=15, deadline=None)
    @given(block_models(), st.booleans())
    def test_every_projection_matches_the_one_block_table(self, m, include_noise):
        t = joint_distribution(m, include_noise=include_noise)
        assert len(t._blocks) == _components(m)
        assert len(t) == len(_one_block(t)) and t.items() == _one_block(t).items()
        # the same rows in the same packed layout, so equal rows are equal items
        flat = JointTable._derived(
            t._cols, t._own, ((sum(c[4] for c in t._cols), t._weights, t._denom),), t._denom
        )
        # no value may depend on the order of the blocks
        reordered = JointTable._derived(t._cols, t._own, t._blocks[::-1], t._denom)
        for mask in range(1 << len(t.variables)):  # ids are 0..len - 1
            got, want = t.marginal(mask), flat.marginal(mask)
            assert got.entropy_bits().hex() == want.entropy_bits().hex()
            assert reordered.marginal(mask).entropy_bits().hex() == want.entropy_bits().hex()
            assert len(got) == len(want)
            assert got._cols == want._cols and got._weights == want._blocks[0][1]
        # the planner projects nested tables, some of which carry their
        # source's entropy; every value must still be bitwise the flat one
        masks = range(1 << len(t.variables))
        got = EntropyOracle(t).marginal_entropies(masks)
        want = EntropyOracle(_one_block(t)).marginal_entropies(masks)
        assert [h.hex() for h in got] == [h.hex() for h in want]

    @staticmethod
    def two_components() -> Scm:
        """A -> B and an isolated C, whose noise has a zero-mass value."""
        g = Dag.of("ABC", [("A", "B")])
        noise = {
            0: Pmf.of((0, 1), ("1/4", "3/4")),
            1: Pmf.of((0, 1, 2), ("1/3", "1/3", "1/3")),
            2: Pmf.of((5, 6, 7), ("1/2", "0", "1/2")),
        }
        functions = {
            0: StructuralTable((), {(0,): 0, (1,): 1}),
            1: StructuralTable((0,), {(a, u): (a + u) % 2 for a in (0, 1) for u in range(3)}),
            2: StructuralTable((), {(5,): 3, (6,): 4, (7,): 9}),
        }
        return Scm(g, noise, functions)

    def test_flat_expansion_matches_the_one_block_table(self):
        # items, prob, len and rendering read the lazily multiplied-out rows
        m = self.two_components()
        for t in (joint_distribution(m), joint_distribution(m, include_noise=True),
                  joint_distribution(m).marginal({B, C}), joint_distribution(m).marginal({B})):
            flat = _one_block(t)
            assert len(t._blocks) > 1
            assert len(t) == len(flat) == len(t._weights)
            assert t.items() == flat.items()
            assert render_joint_table(t) == render_joint_table(flat)
            # every value a column takes, and one it never takes
            values = [{key[i] for key, _ in flat.items()} | {-1} for i in range(len(t.variables))]
            for key in product(*values):
                assert prob(t, key) == prob(flat, key)
            assert prob(t, ()) == prob(flat, ()) == 0

    def test_projections_keep_uncut_blocks_and_fold_dropped_ones(self):
        m = self.two_components()
        t = joint_distribution(m)
        ab, c = t._blocks
        assert (len(ab[1]), ab[2]) == (4, 12) and (list(c[1].values()), c[2]) == ([1, 1], 2)
        assert t.marginal({A, C})._blocks[1] is c  # C is not cut
        # dropping C folds its block into one constant factor
        assert t.marginal({A, B})._blocks == (ab, (0, {0: 2}, 2))
        assert t.marginal(())._blocks == ((0, {0: 24}, 24),)
        assert t.marginal(()).entropy_bits() == 0.0
        assert t.marginal({A, B, C}) is t
        # the entropy is carried only when no block merges rows
        t.entropy_bits()
        assert t.marginal({A, B})._entropy is None  # C's two rows merge
        assert t.marginal({A, C})._entropy is None  # B's rows merge
        noisy = joint_distribution(m, include_noise=True)
        n_a = m.noise_node(A)
        assert noisy.marginal(0b111111 ^ 1 << n_a)._entropy is None  # nothing to carry yet
        noisy.entropy_bits()
        assert noisy.marginal(0b111111 ^ 1 << n_a)._entropy == noisy._entropy  # A = N_A


class TestEntropyOracle:
    def test_affine_chain_pinned_entropies(self, affine_chain):
        orc = EntropyOracle(joint_distribution(affine_chain))
        assert orc.marginal_entropy({A}) == pytest.approx(H_EIGHTH, abs=1e-12)
        assert orc.marginal_entropy({B}) == pytest.approx(
            H_EIGHTH + H_QUARTER, abs=1e-12
        )
        assert orc.marginal_entropy({C}) == pytest.approx(
            H_EIGHTH + H_QUARTER + 1.0, abs=1e-12
        )
        assert orc.cond_entropy({B}, {A}) == pytest.approx(H_QUARTER, abs=1e-12)
        assert orc.cond_entropy({C}, {A}) == pytest.approx(H_QUARTER + 1.0, abs=1e-12)
        assert orc.cond_entropy({C}, {A, B}) == pytest.approx(1.0, abs=1e-12)
        assert orc.mutual_information({A}, {C}) == pytest.approx(H_EIGHTH, abs=1e-12)

    def test_xor_chain_pinned_entropies(self, xor_chain):
        orc = EntropyOracle(joint_distribution(xor_chain))
        assert orc.marginal_entropy({A}) == pytest.approx(H_EIGHTH, abs=1e-12)
        assert orc.marginal_entropy({B}) == pytest.approx(H_5_16, abs=1e-12)
        assert orc.marginal_entropy({C}) == pytest.approx(1.0, abs=1e-12)
        assert orc.cond_entropy({B}, {A}) == pytest.approx(H_QUARTER, abs=1e-12)
        assert orc.cond_entropy({C}, {A, B}) == pytest.approx(1.0, abs=1e-12)
        # uniform top-layer noise wipes out all signal downstream: the
        # endpoints of the chain are exactly independent
        assert orc.mutual_information({A}, {C}) == pytest.approx(0.0, abs=1e-12)
        # ... and conditioning on the collider side does not change H(B | .)
        assert orc.cond_entropy({B}, {A, C}) == pytest.approx(H_QUARTER, abs=1e-12)

    def test_empty_given_set_is_marginal(self, affine_chain):
        orc = EntropyOracle(joint_distribution(affine_chain))
        assert orc.cond_entropy({B}) == orc.marginal_entropy({B})
        assert orc.marginal_entropy() == 0.0

    def test_validation(self, affine_chain):
        orc = EntropyOracle(joint_distribution(affine_chain))
        with pytest.raises(ValueError, match="non-empty"):
            orc.cond_entropy(set(), {A})
        with pytest.raises(ValueError, match="overlaps"):
            orc.cond_entropy({A}, {A, B})
        with pytest.raises(ValueError, match="unknown variables"):
            orc.marginal_entropy({9})
        with pytest.raises(ValueError, match="pairwise disjoint"):
            orc.mutual_information({A}, {B}, {A})

    def test_memoization_returns_identical_floats(self, affine_chain):
        orc = EntropyOracle(joint_distribution(affine_chain))
        first = orc.marginal_entropy({A, B})
        assert orc.marginal_entropy({B, A}) == first

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_chain_rule_and_monotonicity(self, seed):
        m = generate_scm(GeneratorConfig(nodes=4, profile="base"), seed=seed)
        orc = EntropyOracle(joint_distribution(m))
        rng = random.Random(seed)
        nodes = sorted(m.graph.nodes)
        xs = frozenset(rng.sample(nodes, 2))
        rest = [v for v in nodes if v not in xs]
        ss = frozenset(v for v in rest if rng.random() < 0.5)
        # chain rule: H(X, S) = H(S) + H(X | S)
        joint = orc.marginal_entropy(xs | ss)
        assert joint == pytest.approx(
            orc.marginal_entropy(ss) + orc.cond_entropy(xs, ss), abs=1e-9
        )
        # conditioning can only reduce entropy
        assert orc.cond_entropy(xs, ss) <= orc.marginal_entropy(xs) + 1e-9
        # adding variables can only increase joint entropy
        assert joint + 1e-9 >= orc.marginal_entropy(xs)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_matches_reference_simulation(self, seed):
        m = generate_scm(GeneratorConfig(nodes=4, profile="base"), seed=seed)
        orc = EntropyOracle(joint_distribution(m))
        slow = joint_probs(m)
        rng = random.Random(seed)
        nodes = sorted(m.graph.nodes)
        v = rng.choice(nodes)
        ss = tuple(sorted(u for u in nodes if u != v and rng.random() < 0.5))
        fast = orc.cond_entropy({v}, ss)
        assert fast == pytest.approx(bf_cond_entropy(slow, (v,), ss), abs=1e-9)
        assert orc.marginal_entropy(nodes) == pytest.approx(
            bf_entropy(slow, tuple(nodes)), abs=1e-9
        )

