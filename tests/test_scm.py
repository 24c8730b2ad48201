import functools
import math
import random
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from itertools import product
from unittest import mock

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from causal_layering import scm as scm_module
from causal_layering.graph import Dag, d_connected_bits, d_separated
from causal_layering.oracle import EntropyOracle, JointTable, joint_distribution
from causal_layering.presets import xor_model
from causal_layering.scm import (
    ENTROPY_MODES,
    PROFILES,
    Assumptions,
    GenerationError,
    GeneratorConfig,
    Pmf,
    Scm,
    StructuralTable,
    _faithfulness_probes,
    check_directed_faithfulness,
    check_faithfulness,
    check_injective_noise,
    check_injective_noise_plus_one,
    check_noise_entropy_order,
    check_nonconstant_noise,
    generate_scm,
    guaranteed_assumptions,
    noise_entropy,
    parse_scm,
    scm_from_dict,
    scm_to_text,
)

import bruteforce
from bruteforce import check_faithfulness as bf_check_faithfulness
from bruteforce import check_injective_noise as bf_check_injective_noise
from bruteforce import check_injective_noise_plus_one as bf_check_injective_noise_plus_one
from bruteforce import digit_walk, digits, explicit_noise_graph, whole_graph_faithfulness
from bruteforce import scm_to_dict
from bruteforce import scm_to_text as bf_scm_to_text
from bruteforce import whole_graph_probes
from test_oracle import block_models

H_EIGHTH = 0.5435644431995964
H_QUARTER = 0.8112781244591328

A, B, C = 0, 1, 2


class TestPmf:
    def test_of_coerces_strings_and_ints(self):
        p = Pmf.of((0, 1, 2), ("1/2", "1/4", "1/4"))
        assert all(type(q) is Fraction for q in p.probs)
        assert p.probs == (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))
        q = Pmf.of((0,), (1,))
        assert q.probs == (1,)

    def test_of_reads_decimals_exactly_and_refuses_floats(self):
        p = Pmf.of((0, 1, 2), (Decimal("0.1"), "0.2", "7/10"))
        assert p.probs == (Fraction(1, 10), Fraction(1, 5), Fraction(7, 10))
        with pytest.raises(ValueError, match="float probability 0.5 is inexact"):
            Pmf.of((0, 1), (0.5, Fraction(1, 2)))
        with pytest.raises(ValueError, match="float probability 0.25 is inexact"):
            Pmf.bernoulli(0.25)

    # the CLI tests cover "1e-100000000", "1e+100000000" and a long denominator
    @pytest.mark.parametrize("literal", [
        "9" * 5000 + "/1", Decimal("1e-100000000"), Decimal("1" * 1001),
    ], ids=["long-numerator", "tiny-decimal", "long-decimal"])
    def test_of_refuses_oversized_literals(self, literal):
        with pytest.raises(ValueError, match="literal exceeds 1000 digits"):
            Pmf.of((0, 1), (literal, "1"))

    @pytest.mark.parametrize("literal", ["abc", "1/2/3", "NaN", "-Infinity", True, None])
    def test_of_refuses_other_literals(self, literal):
        with pytest.raises(ValueError, match="invalid probability|finite|Invalid literal"):
            Pmf.of((0, 1), (literal, "1"))

    def test_from_weights(self):
        p = Pmf.from_weights((3, 5), (1, 3))
        assert dict(zip(p.support, p.probs)) == {3: Fraction(1, 4), 5: Fraction(3, 4)}

    @given(st.lists(st.integers(0, 2**80), min_size=1, max_size=8).filter(any))
    def test_weights_score_bitwise_as_their_pmf(self, weights):
        # the generator scores each noise draw from its weights before building it
        total = sum(weights)
        expected = Pmf.from_weights(range(len(weights)), weights).entropy_bits()
        assert scm_module._entropy_bits(w / total for w in weights) == expected

    @given(st.lists(st.integers(0, 2**80), min_size=1, max_size=8).filter(any))
    def test_from_weights_is_the_validated_construction(self, weights):
        total = sum(weights)
        built = Pmf(tuple(range(len(weights))), tuple(Fraction(w, total) for w in weights))
        assert Pmf.from_weights(range(len(weights)), weights) == built

    def test_bernoulli(self):
        p = Pmf.bernoulli(Fraction(1, 4))
        assert p.support == (0, 1)
        assert p.probs == (Fraction(3, 4), Fraction(1, 4))
        assert p.entropy_bits() == pytest.approx(H_QUARTER, abs=1e-12)

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="sum to"):
            Pmf.of((0, 1), ("1/2", "1/4"))

    def test_rejects_duplicate_support(self):
        with pytest.raises(ValueError, match="distinct"):
            Pmf.of((0, 0), ("1/2", "1/2"))

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            Pmf.of((0, 1), ("3/2", "-1/2"))

    @pytest.mark.parametrize("probs", [(math.nan, math.nan), (math.inf, 0.0)])
    def test_rejects_non_finite(self, probs):
        with pytest.raises(ValueError, match="finite"):
            Pmf.of((0, 1), probs)

    def test_rejects_mixed_types_in_raw_constructor(self):
        with pytest.raises(TypeError, match="probs must be Fractions"):
            Pmf((0, 1), (Fraction(1, 2), 0.5))
        with pytest.raises(TypeError, match="probs must be Fractions"):
            Pmf((0, 1), (0.5, 0.5))

    def test_positive_support_drops_zero_mass(self):
        p = Pmf.of((0, 1, 2), ("1/2", "0", "1/2"))
        assert p.positive_support() == (0, 2)

    def test_entropy_uniform(self):
        p = Pmf.from_weights((0, 1, 2, 3), (1, 1, 1, 1))
        assert p.entropy_bits() == pytest.approx(2.0, abs=1e-12)


class TestStructuralTable:
    def test_outputs_sorted_unique(self):
        # a node's alphabet is its table's outputs, sorted, without repeats
        t = StructuralTable((), {(0,): 3, (1,): 1, (2,): 3})
        m = Scm(Dag.of("A"), {0: Pmf.from_weights((0, 1, 2), (1, 1, 1))}, {0: t})
        assert m.alphabets[0] == (1, 3)


def tiny_chain(noise_b=None) -> Scm:
    g = Dag.of("AB", [("A", "B")])
    noise = {
        0: Pmf.bernoulli(Fraction(1, 4)),
        1: noise_b or Pmf.bernoulli(Fraction(1, 2)),
    }
    functions = {
        0: StructuralTable((), {(0,): 0, (1,): 1}),
        1: StructuralTable((0,), {(0, 0): 0, (0, 1): 1, (1, 0): 2, (1, 1): 3}),
    }
    return Scm(g, noise, functions)


@st.composite
def random_models(draw) -> Scm:
    """Small models with random tables: faithful or not, injective or not."""
    n = draw(st.integers(min_value=1, max_value=7))
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if draw(st.booleans())]
    g = Dag([f"V{i}" for i in range(n)], edges)
    noise, functions, alphabets = {}, {}, {}
    for v in range(n):  # 0..n-1 is a topological order
        pas = tuple(sorted(g.parents(v)))
        noise[v] = Pmf.from_weights((0, 1), [draw(st.integers(1, 4)) for _ in range(2)])
        entries = {
            (*combo, u): draw(st.integers(0, 2))
            for combo in product(*(alphabets[p] for p in pas))
            for u in (0, 1)
        }
        alphabets[v] = tuple(sorted(set(entries.values())))
        functions[v] = StructuralTable(pas, entries)
    return Scm(g, noise, functions)


@st.composite
def scrambled_models(draw) -> Scm:
    """Models whose tables start one-to-one in (parents, noise), are folded
    onto a few outputs, and then have some outputs copied onto other keys."""
    n = draw(st.integers(min_value=1, max_value=5))
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if draw(st.booleans())]
    g = Dag([f"V{i}" for i in range(n)], edges)
    noise, functions, alphabets = {}, {}, {}
    for v in range(n):  # 0..n-1 is a topological order
        pas = tuple(sorted(g.parents(v)))
        support = tuple(range(draw(st.integers(2, 3))))
        noise[v] = Pmf.from_weights(support, [draw(st.integers(1, 4)) for _ in support])
        keys = [(*combo, u) for combo in product(*(alphabets[p] for p in pas)) for u in support]
        fold = draw(st.integers(2, 8))
        outs = [k % fold for k in draw(st.permutations(range(len(keys))))]
        for _ in range(draw(st.integers(0, 2))):
            src, dst = draw(st.integers(0, len(keys) - 1)), draw(st.integers(0, len(keys) - 1))
            outs[dst] = outs[src]
        entries = dict(zip(keys, outs))
        alphabets[v] = tuple(sorted(set(outs)))
        functions[v] = StructuralTable(pas, entries)
    return Scm(g, noise, functions)


@st.composite
def planted_collision_models(draw) -> Scm:
    """Models whose tables are one-to-one in (parents, noise) except for a few
    planted collisions: a row takes the output of a row that differs from it
    in the noise value alone, or in one parent's value and the noise value."""
    n = draw(st.integers(min_value=1, max_value=5))
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if draw(st.booleans())]
    g = Dag([f"V{i}" for i in range(n)], edges)
    noise, functions, alphabets = {}, {}, {}
    for v in range(n):  # 0..n-1 is a topological order
        pas = tuple(sorted(g.parents(v)))
        support = tuple(range(draw(st.integers(2, 3))))
        noise[v] = Pmf.from_weights(support, [draw(st.integers(1, 4)) for _ in support])
        keys = [(*combo, u) for combo in product(*(alphabets[p] for p in pas)) for u in support]
        entries = dict(zip(keys, draw(st.permutations(range(len(keys))))))
        for _ in range(draw(st.integers(0, 3))):
            src = draw(st.sampled_from(keys))
            dst = list(src)
            dst[-1] = draw(st.sampled_from(support))
            if pas and draw(st.booleans()):
                j = draw(st.integers(0, len(pas) - 1))
                dst[j] = draw(st.sampled_from(alphabets[pas[j]]))
            entries[tuple(dst)] = entries[src]
        alphabets[v] = tuple(sorted(set(entries.values())))
        functions[v] = StructuralTable(pas, entries)
    return Scm(g, noise, functions)


class TestScmValidation:
    def test_alphabets_derived_from_outputs(self):
        m = tiny_chain()
        assert m.alphabets[0] == (0, 1)
        assert m.alphabets[1] == (0, 1, 2, 3)

    def test_noise_ids_and_labels(self):
        m = tiny_chain()
        assert m.noise_node(1) == 3
        assert m.noise_label(1) == "N_B"

    def test_rejects_noise_coverage_mismatch(self):
        g = Dag.of("AB", [("A", "B")])
        with pytest.raises(ValueError, match="noise map"):
            Scm(g, {0: Pmf.bernoulli(Fraction(1, 2))}, {})

    def test_rejects_noncanonical_parent_order(self):
        g = Dag.of("ABC", [("A", "C"), ("B", "C")])
        noise = {v: Pmf.bernoulli(Fraction(1, 2)) for v in range(3)}
        funcs = {
            0: StructuralTable((), {(0,): 0, (1,): 1}),
            1: StructuralTable((), {(0,): 0, (1,): 1}),
            2: StructuralTable((1, 0), {k: 0 for k in
                                        [(a, b, u) for a in (0, 1) for b in (0, 1) for u in (0, 1)]}),
        }
        with pytest.raises(ValueError, match="canonical"):
            Scm(g, noise, funcs)

    def test_rejects_missing_table_entry(self):
        g = Dag.of("AB", [("A", "B")])
        noise = {0: Pmf.bernoulli(Fraction(1, 2)), 1: Pmf.bernoulli(Fraction(1, 2))}
        funcs = {
            0: StructuralTable((), {(0,): 0, (1,): 1}),
            1: StructuralTable((0,), {(0, 0): 0, (0, 1): 1, (1, 0): 1}),  # (1,1) missing
        }
        with pytest.raises(ValueError, match="missing entry"):
            Scm(g, noise, funcs)

    def test_rejects_extra_table_entries(self):
        g = Dag.of("A")
        noise = {0: Pmf.bernoulli(Fraction(1, 2))}
        funcs = {0: StructuralTable((), {(0,): 0, (1,): 1, (9,): 4})}
        with pytest.raises(ValueError, match="outside its domain"):
            Scm(g, noise, funcs)

    def test_evaluate_propagates(self):
        m = tiny_chain()
        assert bruteforce.evaluate(m, {0: 1, 1: 1}) == {0: 1, 1: 3}


class TestExplicitNoiseGraph:
    def test_adds_one_noise_parent_per_node(self):
        m = tiny_chain()
        g = explicit_noise_graph(m)
        assert g.nodes == {0, 1, 2, 3}
        assert (2, 0) in g.edges and (3, 1) in g.edges and (0, 1) in g.edges
        assert g.label(2) == "N_A"

    def test_rejects_label_collision(self):
        g = Dag.of(["N_A", "A"], [])
        noise = {v: Pmf.bernoulli(Fraction(1, 2)) for v in range(2)}
        funcs = {v: StructuralTable((), {(0,): 0, (1,): 1}) for v in range(2)}
        m = Scm(g, noise, funcs)
        with pytest.raises(ValueError, match="collide"):
            explicit_noise_graph(m)


class TestAssumptionChecks:
    def test_injective_noise_holds_on_presets(self, affine_chain, xor_chain):
        assert check_injective_noise(affine_chain).holds
        assert check_injective_noise(xor_chain).holds

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(random_models(), scrambled_models(), planted_collision_models()))
    def test_injectivity_reports_match_the_reference_scans(self, m):
        assert check_injective_noise(m) == bf_check_injective_noise(m)
        assert check_injective_noise_plus_one(m) == bf_check_injective_noise_plus_one(m)

    def test_injective_noise_violation_witnessed(self):
        g = Dag.of("A")
        m = Scm(g, {0: Pmf.of((0, 1, 2), ("1/2", "1/4", "1/4"))},
                {0: StructuralTable((), {(0,): 0, (1,): 1, (2,): 1})})
        report = check_injective_noise(m)
        assert not report.holds
        assert report.witnesses[0] == ("A", (), 1, 2, 1)

    def test_plus_one_holds_on_affine(self, affine_chain):
        assert check_injective_noise_plus_one(affine_chain).holds

    def test_plus_one_fails_on_xor(self, xor_chain):
        # flipping parent and noise together leaves xor unchanged
        report = check_injective_noise_plus_one(xor_chain)
        assert not report.holds
        assert report.witnesses[0][0] == "B"

    def test_plus_one_vacuous_without_parents(self):
        g = Dag.of("AB")
        noise = {v: Pmf.bernoulli(Fraction(1, 2)) for v in range(2)}
        funcs = {v: StructuralTable((), {(0,): 0, (1,): 1}) for v in range(2)}
        assert check_injective_noise_plus_one(Scm(g, noise, funcs)).holds

    def test_nonconstant_noise(self):
        m = tiny_chain(noise_b=Pmf.of((0, 1), ("1", "0")))
        report = check_nonconstant_noise(m)
        assert not report.holds
        assert report.witnesses == (("B",),)
        assert check_nonconstant_noise(tiny_chain()).holds

    def test_entropy_order_on_affine(self, affine_chain):
        # noise entropies rise along the chain: h(1/8) < h(1/4) < 1
        assert check_noise_entropy_order(affine_chain, "weak").holds
        assert check_noise_entropy_order(affine_chain, "strict").holds

    def test_entropy_order_violation(self):
        # child noise less entropic than parent noise
        m = tiny_chain(noise_b=Pmf.bernoulli(Fraction(1, 8)))
        weak = check_noise_entropy_order(m, "weak")
        assert not weak.holds
        assert weak.witnesses[0][:2] == ("A", "B")
        assert not check_noise_entropy_order(m, "strict").holds

    def test_entropy_order_strict_rejects_ties(self):
        m = tiny_chain(noise_b=Pmf.bernoulli(Fraction(1, 4)))
        assert check_noise_entropy_order(m, "weak").holds
        assert not check_noise_entropy_order(m, "strict").holds

    def test_entropy_order_rejects_unknown_mode(self, affine_chain):
        with pytest.raises(ValueError, match="unknown entropy order mode"):
            check_noise_entropy_order(affine_chain, "loose")

    def test_directed_faithfulness_holds_on_affine(self, affine_chain):
        report = check_directed_faithfulness(affine_chain, Assumptions(affine_chain).noise_oracle())
        assert report.holds

    def test_directed_faithfulness_fails_on_xor(self, xor_chain):
        # uniform noise on C makes C independent of everything upstream
        report = check_directed_faithfulness(xor_chain, Assumptions(xor_chain).noise_oracle())
        assert not report.holds
        witnessed = {(w[0], w[1]) for w in report.witnesses}
        assert ("N_A", "C") in witnessed and ("N_B", "C") in witnessed

    def test_faithfulness_fails_on_affine_by_decoding(self, affine_chain):
        # C = B + 4*N_C decodes B exactly, so conditioning on C makes B
        # deterministic and hence independent of A despite d-connection
        report = check_faithfulness(affine_chain, Assumptions(affine_chain).oracle())
        assert not report.holds
        assert report.detail == "exhaustive triples"
        assert report.witnesses == ((("A",), ("B",), ("C",), 0.0),)

    def test_faithfulness_holds_on_generated_base(self):
        m = generate_scm(GeneratorConfig(nodes=4, profile="base"), seed=0)
        report = check_faithfulness(m, Assumptions(m).oracle())
        assert report.holds
        assert report.detail == "exhaustive triples"

    def test_faithfulness_fails_on_xor(self, xor_chain):
        # the chain ends in uniform noise, so B and C (and A and C) are
        # exactly independent despite being d-connected
        report = check_faithfulness(xor_chain, Assumptions(xor_chain).oracle())
        assert not report.holds
        assert report.witnesses == ((("B",), ("C",), (), 0.0),)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_first_witness_stops_at_the_full_checks_first_witness(self, data):
        # no probe after the witness sweeps the graph: the (x, S) sweeps are
        # those of the probes up to the witness, or of every probe if it
        # holds, where the probes are the whole walk's inside one component
        m = data.draw(st.one_of(random_models(), block_models()))
        n = len(m.graph)
        home = {1 << v: c for c in m.graph.components() for v in range(n) if c >> v & 1}
        swept = []

        def counted(g, xs, ss):
            swept.append((xs, ss))
            return d_connected_bits(g, xs, ss)

        with mock.patch.object(scm_module, "d_connected_bits", counted):
            report = check_faithfulness(m, Assumptions(m).oracle())
        probes = [(xs, ys, ss) for xs, ys, ss in whole_graph_probes(n)
                  if not (ys | ss) & ~home[xs]]
        if not report.holds:
            ids = {m.label(v): v for v in m.graph.nodes}
            witness = tuple(sum(1 << ids[lab] for lab in part) for part in report.witnesses[0][:3])
            probes = probes[:probes.index(witness) + 1]
        assert swept == list(dict.fromkeys((xs, ss) for xs, _, ss in probes))

    def assert_faithfulness_matches_the_reference(self, m) -> bool:
        """Against the exhaustive reference: the same verdict and detail, and
        as the one witness the first of the reference's witnesses with single
        X and Y in digit-walk order; up to six nodes, where the reference
        walks digits too, the reference's first-witness report. MI floats
        compare bitwise (by repr). Returns whether the model is faithful."""
        report = check_faithfulness(m, Assumptions(m).oracle())
        assert repr(report) == repr(whole_graph_faithfulness(m, Assumptions(m).oracle()))
        full = bf_check_faithfulness(m, Assumptions(m).oracle())
        assert (report.assumption, report.holds, report.detail) == (
            full.assumption, full.holds, full.detail)
        labels = [m.label(v) for v in sorted(m.graph.nodes)]
        pairs = [w for w in full.witnesses if len(w[0]) == len(w[1]) == 1]
        pairs.sort(key=lambda w: digits(labels, w[:3]))  # beyond six nodes, x < y then S
        assert repr(report.witnesses) == repr(tuple(pairs[:1]))
        if len(labels) <= 6:
            first = bf_check_faithfulness(m, Assumptions(m).oracle(), first_witness=True)
            assert repr(report) == repr(first)
        return report.holds

    def test_faithfulness_probes_follow_the_reference_walk(self):
        # the digit walk over triples, restricted to single X and Y inside
        # one component and S inside it too: one component, every node on
        # its own, and random partitions
        rng = random.Random(5)
        for n in range(1, 9):
            walk = [probe for probe in digit_walk(list(range(n)))
                    if len(probe[0]) == len(probe[1]) == 1]
            partitions = [[0] * n, list(range(n))]
            partitions += [[rng.randrange(3) for _ in range(n)] for _ in range(4)]
            for part in partitions:
                home = tuple(sum(1 << j for j in range(n) if part[j] == part[k])
                             for k in range(n))
                expected = tuple(
                    tuple(sum(1 << v for v in nodes) for nodes in probe)
                    for probe in walk
                    if len({part[v] for nodes in probe for v in nodes}) == 1
                )
                assert _faithfulness_probes(home) == expected
            assert whole_graph_probes(n) == _faithfulness_probes(((1 << n) - 1,) * n)

    def test_faithfulness_matches_the_reference_on_the_chains(self, affine_chain, xor_chain):
        assert not self.assert_faithfulness_matches_the_reference(affine_chain)
        assert not self.assert_faithfulness_matches_the_reference(xor_chain)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_faithfulness_matches_the_reference_on_random_models(self, data):
        m = data.draw(random_models())
        if data.draw(st.booleans()):  # the same model read back from its file
            m = parse_scm(scm_to_text(m))
        self.assert_faithfulness_matches_the_reference(m)

    def test_faithfulness_matches_the_reference_on_generator_candidates(self, monkeypatch):
        # with the generator's faithfulness gate bypassed, unfaithful
        # candidates come out as well
        guaranteed = scm_module.guaranteed_assumptions
        monkeypatch.setattr(
            scm_module, "guaranteed_assumptions",
            lambda profile, mode: tuple(
                name for name in guaranteed(profile, mode) if name != "faithfulness"
            ),
        )
        unfaithful = 0
        for profile in PROFILES:
            for n in range(1, 8):
                for seed in range(3):
                    m = generate_scm(GeneratorConfig(nodes=n, profile=profile), seed=seed)
                    unfaithful += not self.assert_faithfulness_matches_the_reference(m)
        assert unfaithful > 0

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_faithfulness_matches_the_whole_graph_walk(self, data):
        # the same report, MI floats compared bitwise (by repr), as the walk
        # over all 2**n subsets, which also probes every pair across
        # components and raises if one shows mutual information; on models
        # whose skeleton is often disconnected or edgeless, and on generator
        # candidates with the faithfulness gate bypassed
        if data.draw(st.booleans()):
            m = data.draw(block_models())
        else:
            cfg = GeneratorConfig(
                nodes=data.draw(st.integers(1, 7)),
                profile=data.draw(st.sampled_from(PROFILES)),
                entropy_mode=data.draw(st.sampled_from(ENTROPY_MODES)),
                edge_prob=data.draw(st.sampled_from([0.1, 0.35])),
            )
            guaranteed = scm_module.guaranteed_assumptions(cfg.profile, cfg.entropy_mode)
            ungated = tuple(name for name in guaranteed if name != "faithfulness")
            with mock.patch.object(scm_module, "guaranteed_assumptions", lambda *_: ungated):
                try:
                    m = generate_scm(cfg, data.draw(st.integers(0, 2**16)))
                except GenerationError:
                    reject()
        reference = repr(whole_graph_faithfulness(m, Assumptions(m).oracle()))
        audit = Assumptions(m)
        assert repr(check_faithfulness(m, audit.noise_oracle())) == reference
        assert repr(check_faithfulness(m, audit.oracle())) == reference

    def test_mutual_information_where_d_separated_raises(self, monkeypatch):
        # in the collider A -> C <- B, A and B are d-separated given nothing;
        # with entropies that are not additive, I(A; B) reads 2 - sqrt(2).
        # The probes before it, (B, C) and (A, C), are d-connected and read
        # the same, so they pass
        g = Dag(["A", "B", "C"], [(0, 2), (1, 2)])
        coin = Pmf.bernoulli(Fraction(1, 2))
        identity = StructuralTable((), {(0,): 0, (1,): 1})
        code = StructuralTable(
            (0, 1), {(a, b, u): a + 2 * b + 4 * u for a in (0, 1) for b in (0, 1) for u in (0, 1)})
        m = Scm(g, {0: coin, 1: coin, 2: coin}, {0: identity, 1: identity, 2: code})
        table = joint_distribution(m)
        monkeypatch.setattr(JointTable, "entropy_bits", lambda t: math.sqrt(len(t.variables)))

        for check in (check_faithfulness, bf_check_faithfulness, whole_graph_faithfulness):
            with pytest.raises(RuntimeError, match="exact arithmetic is broken"):
                check(m, EntropyOracle(table))

    @staticmethod
    def projections(monkeypatch) -> list[tuple[int, int]]:
        """(variables of the source, of the result) of each projection made."""
        made: list[tuple[int, int]] = []
        original = JointTable.marginal

        def recording(self, keep):
            out = original(self, keep)
            if out is not self:
                made.append((len(self.variables), len(out.variables)))
            return out

        monkeypatch.setattr(JointTable, "marginal", recording)
        return made

    @staticmethod
    def walk_projections(m: Scm) -> Counter:
        """(variables of the source, of the result) of each projection an
        accepted model's audit makes: each component with a pair projects
        each proper subset once from one more node, and, when the skeleton
        has several components, its root from the n nodes."""
        sizes = [c.bit_count() for c in m.graph.components()]
        made = Counter()
        for k in sizes:
            if k > 1:
                made.update({(j + 1, j): math.comb(k, j) for j in range(k)})
                if len(sizes) > 1:
                    made[len(m.graph), k] += 1
        return made

    @pytest.mark.parametrize("n", [6, 7])
    def test_faithfulness_projects_each_subset_once_from_one_more_node(self, monkeypatch, n):
        models = [
            generate_scm(GeneratorConfig(nodes=n, profile=profile), seed=seed)
            for profile in PROFILES for seed in (3, 4)
        ]
        made = self.projections(monkeypatch)
        several = 0
        for m in models:
            oracle = EntropyOracle(joint_distribution(m))
            made.clear()
            assert check_faithfulness(m, oracle).holds
            assert Counter(made) == self.walk_projections(m)
            assert len(made) <= 2**n - 1
            several += len(m.graph.components()) > 1
        assert several

    def test_first_witness_projects_no_more_than_the_full_check(self, monkeypatch):
        # an accepted model needs every table of its components' walks; the
        # entropy walks stop with the probes, so some rejection projects fewer
        guaranteed = scm_module.guaranteed_assumptions
        monkeypatch.setattr(
            scm_module, "guaranteed_assumptions",
            lambda profile, mode: tuple(
                name for name in guaranteed(profile, mode) if name != "faithfulness"
            ),
        )
        candidates = [
            generate_scm(GeneratorConfig(nodes=n, profile=profile), seed=seed)
            for profile in PROFILES for n in (5, 6) for seed in range(4)
        ]
        made = self.projections(monkeypatch)
        rejected = []
        for m in candidates:
            made.clear()
            holds = check_faithfulness(m, EntropyOracle(joint_distribution(m))).holds
            full = self.walk_projections(m)
            if holds:
                assert Counter(made) == full
            else:
                assert not Counter(made) - full
                rejected.append(len(made) < full.total())
        assert any(rejected)

    @staticmethod
    def coarse_pair() -> Scm:
        """A -> B with support-4 noise into binary outputs: 16 noise tuples,
        4 observed rows."""
        g = Dag(["A", "B"], [(0, 1)])
        noise = {v: Pmf.from_weights(range(4), [1, 2, 3, 4]) for v in (0, 1)}
        functions = {
            0: StructuralTable((), {(u,): u % 2 for u in range(4)}),
            1: StructuralTable(
                (0,), {(a, u): (a + u // 2) % 2 for a in (0, 1) for u in range(4)}
            ),
        }
        return Scm(g, noise, functions)

    def test_faithfulness_reads_the_nodes_of_an_oracle_over_the_noise_too(self):
        m = self.coarse_pair()
        audit = Assumptions(m)
        report = check_faithfulness(m, audit.oracle())
        assert repr(check_faithfulness(m, audit.noise_oracle())) == repr(report)
        assert report == bf_check_faithfulness(m, audit.noise_oracle())

    def test_observed_oracle_projects_the_one_enumeration(self):
        m = self.coarse_pair()
        audit = Assumptions(m)
        observed = audit.oracle()
        assert len(audit.noise_oracle().table) == 16
        assert observed.table.items() == joint_distribution(m).items()
        assert audit.oracle() is observed
        direct = EntropyOracle(joint_distribution(m))
        for vs in ((), (0,), (1,), (0, 1)):
            assert observed.marginal_entropy(vs) == direct.marginal_entropy(vs)

    def test_report_witness_discipline(self):
        from causal_layering.scm import AssumptionReport

        with pytest.raises(ValueError, match="cannot carry witnesses"):
            AssumptionReport("x", True, (("w",),))
        with pytest.raises(ValueError, match="needs at least one witness"):
            AssumptionReport("x", False, ())


class TestGenerator:
    def test_config_validation(self):
        with pytest.raises(ValueError, match="nodes"):
            GeneratorConfig(nodes=0)
        with pytest.raises(ValueError, match="edge_prob"):
            GeneratorConfig(nodes=3, edge_prob=1.5)
        with pytest.raises(ValueError, match="unknown profile"):
            GeneratorConfig(nodes=3, profile="fancy")
        with pytest.raises(ValueError, match="unknown entropy mode"):
            GeneratorConfig(nodes=3, entropy_mode="up")
        with pytest.raises(ValueError, match="ordered positive pair"):
            GeneratorConfig(nodes=3, noise_support_sizes=(3, 2))
        with pytest.raises(ValueError, match="max_retries"):
            GeneratorConfig(nodes=3, max_retries=0)

    def test_deterministic_per_seed(self):
        cfg = GeneratorConfig(nodes=5, profile="base", entropy_mode="weak")
        one = generate_scm(cfg, seed=9)
        two = generate_scm(cfg, seed=9)
        assert scm_to_text(one) == scm_to_text(two)
        other = generate_scm(cfg, seed=10)
        assert scm_to_text(other) != scm_to_text(one)

    def test_meta_recorded(self):
        cfg = GeneratorConfig(nodes=4, profile="plus_one", entropy_mode="strict")
        m = generate_scm(cfg, seed=2)
        assert m.meta.profile == "plus_one"
        assert m.meta.entropy_mode == "strict"
        assert m.meta.seed == 2
        assert m.meta.attempts >= 1
        assert [r.assumption for r in m.meta.reports] == list(
            guaranteed_assumptions("plus_one", "strict"))
        assert all(r.holds for r in m.meta.reports)

    @pytest.mark.parametrize("profile", ["base", "plus_one", "sir_faithful"])
    def test_profiles_deliver_their_guarantees(self, profile):
        for seed in range(4):
            m = generate_scm(GeneratorConfig(nodes=5, profile=profile), seed=seed)
            assert check_injective_noise(m).holds
            assert check_nonconstant_noise(m).holds
            assert check_faithfulness(m, Assumptions(m).oracle()).holds
            if profile == "plus_one":
                assert check_injective_noise_plus_one(m).holds
            if profile == "sir_faithful":
                assert check_directed_faithfulness(m, Assumptions(m).noise_oracle()).holds

    @pytest.mark.parametrize("profile", PROFILES)
    def test_each_candidate_enumerates_at_most_once(self, monkeypatch, profile):
        # noise columns only for the profile whose audits query noise
        flags: list[bool] = []
        original = scm_module._oracle.joint_distribution

        def counted(m, include_noise=False, budget=None):
            flags.append(include_noise)
            return original(m, include_noise=include_noise, budget=budget)

        monkeypatch.setattr(scm_module._oracle, "joint_distribution", counted)
        for seed in range(4):
            flags.clear()
            m = generate_scm(GeneratorConfig(nodes=5, profile=profile), seed=seed)
            assert 1 <= len(flags) <= m.meta.attempts
            assert set(flags) == {profile == "sir_faithful"}

    @pytest.mark.parametrize("mode", ["weak", "strict"])
    def test_entropy_modes_deliver_order(self, mode):
        for seed in range(4):
            m = generate_scm(
                GeneratorConfig(nodes=5, profile="base", entropy_mode=mode), seed=seed
            )
            assert check_noise_entropy_order(m, mode).holds

    def test_audit_order_and_singleton_probes_keep_every_model(self, monkeypatch):
        # against the exhaustive faithfulness reference, audited in registry
        # order: the same models, attempts and reports, and the same error
        # where ten attempts run out (the reference is slow at seven nodes)
        configs = [
            (GeneratorConfig(nodes=n, profile=profile, entropy_mode=ENTROPY_MODES[seed % 3],
                             max_retries=10), seed)
            for profile in PROFILES for n in range(2, 8) for seed in range(10)
        ]

        def run() -> list[tuple]:
            out = []
            for cfg, seed in configs:
                try:
                    m = generate_scm(cfg, seed)
                except GenerationError as exc:
                    # beyond six nodes the reference walks pairs in another
                    # order, so the witness its error names may differ
                    out.append(str(exc) if cfg.nodes <= 6 else "unsatisfied")
                    continue
                out.append((scm_to_text(m), m.meta.attempts, repr(m.meta.reports)))
            return out

        fast = run()
        monkeypatch.setattr(scm_module, "check_faithfulness",
                            functools.partial(bf_check_faithfulness, first_witness=True))
        monkeypatch.setattr(scm_module, "_AUDIT_LAST", ())
        assert run() == fast

    def test_a_zero_strict_gap_names_the_entropy_failure(self, monkeypatch):
        # a gap of 0 lets a descendant's noise match its ancestor's entropy;
        # this candidate is unfaithful too, and registry order names the
        # entropy order first
        monkeypatch.setattr(scm_module, "_STRICT_ENTROPY_GAP", 0)
        cfg = GeneratorConfig(nodes=4, noise_support_sizes=(2, 2), entropy_mode="strict",
                              max_retries=1)
        reason = ("strict_entropy_order fails; first witness "
                  "('D', 'A', 0.9999435071707974, 0.9999435071707974)")
        for audit_last in (scm_module._AUDIT_LAST, ()):
            monkeypatch.setattr(scm_module, "_AUDIT_LAST", audit_last)
            with pytest.raises(GenerationError) as exc:
                generate_scm(cfg, 121)
            assert str(exc.value) == (
                "profile='base' entropy='strict' nodes=4 unsatisfied after 1 attempts "
                f"(1 strict_entropy_order; last failure: {reason})"
            )

    def test_injection_tables_check_the_budget_before_building_a_domain(self, monkeypatch):
        # binary noise and outputs on a complete DAG: node k's parent domain
        # has 2**k assignments and its table 2**(k+1) entries, so the tables
        # pass 20 entries at node 3, before its domain of 8 is built
        monkeypatch.setattr(scm_module, "_TABLE_BUDGET", 20)
        built: list[int] = []

        def counted(*alphabets):
            built.append(math.prod(map(len, alphabets)))
            return product(*alphabets)

        monkeypatch.setattr(scm_module, "product", counted)
        cfg = GeneratorConfig(nodes=6, edge_prob=1.0, noise_support_sizes=(2, 2),
                              alphabet_sizes=(2, 2), max_retries=2)
        with pytest.raises(GenerationError, match="structural tables need more than 20"):
            generate_scm(cfg, seed=0)
        assert built == [1, 2, 4] * 2
        assert sum(2 * size for size in built[:3]) <= 20

    def test_unsatisfiable_config_raises_with_context(self, monkeypatch):
        monkeypatch.setattr(scm_module, "_TABLE_BUDGET", 8)
        cfg = GeneratorConfig(nodes=6, edge_prob=1.0, profile="plus_one", max_retries=3)
        with pytest.raises(GenerationError) as exc:
            generate_scm(cfg, seed=0)
        assert str(exc.value) == (
            "profile='plus_one' entropy='known' nodes=6 unsatisfied after 3 attempts "
            "(3 table_budget; last failure: structural tables need more than 8 entries)"
        )

    def test_failures_are_tallied_by_kind_in_order_of_first_occurrence(self, monkeypatch):
        kinds = iter(["faithfulness", "table_budget", "faithfulness", "noise_pmf"])

        def failing(cfg, rng, seed, attempt):
            kind = next(kinds)
            raise scm_module._Retry(kind, f"{kind} at attempt {attempt}")

        monkeypatch.setattr(scm_module, "_generate_once", failing)
        with pytest.raises(GenerationError) as exc:
            generate_scm(GeneratorConfig(nodes=2, max_retries=4), seed=0)
        assert str(exc.value) == (
            "profile='base' entropy='known' nodes=2 unsatisfied after 4 attempts "
            "(2 faithfulness, 1 table_budget, 1 noise_pmf; last failure: noise_pmf at attempt 4)"
        )


class TestSerialization:
    def test_round_trip_presets(self, affine_chain, xor_chain):
        for m in (affine_chain, xor_chain):
            back = parse_scm(scm_to_text(m))
            assert back.graph == m.graph
            assert back.noise == m.noise
            assert {v: t.entries for v, t in back.functions.items()} == {
                v: dict(t.entries) for v, t in m.functions.items()
            }

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000),
           st.sampled_from(["base", "plus_one"]))
    def test_round_trip_generated(self, seed, profile):
        m = generate_scm(GeneratorConfig(nodes=4, profile=profile), seed=seed)
        assert scm_to_text(parse_scm(scm_to_text(m))) == scm_to_text(m)

    @settings(max_examples=150, deadline=None)
    @given(random_models(), st.data())
    def test_writer_matches_json_dumps(self, m, data):
        """``scm_to_text`` against ``json.dumps`` of the model's dict, with
        labels that need escaping: quotes, backslashes, control characters
        and non-ASCII text, and labels whose order is not the node order."""
        tricky = st.sampled_from(
            ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "☃", "𝄞"])
        label = st.text(st.one_of(tricky, st.characters()), max_size=6)
        n = len(m.graph.labels)
        labels = data.draw(st.lists(label, min_size=n, max_size=n, unique=True))
        relabeled = Scm(Dag(labels, m.graph.edges), m.noise, m.functions)
        assert scm_to_text(relabeled) == bf_scm_to_text(relabeled)

    def test_writer_matches_json_dumps_without_edges(self):
        whole = Pmf.of((-3,), (1,))  # one support point: probability "1"
        coin = Pmf.of((0, 1), ("1/3", "2/3"))
        one_node = Scm(Dag.of("A"), {0: whole}, {0: StructuralTable((), {(-3,): 10**30})})
        edgeless = Scm(
            Dag(["b", "A", "\u00e9"], []),
            {0: coin, 1: whole, 2: coin},
            {0: StructuralTable((), {(0,): 1, (1,): 0}),
             1: StructuralTable((), {(-3,): -7}),
             2: StructuralTable((), {(0,): 0, (1,): 0})},
        )
        for m in (one_node, edgeless):
            assert scm_to_text(m) == bf_scm_to_text(m)
            assert scm_to_text(parse_scm(scm_to_text(m))) == scm_to_text(m)

    def test_rejects_bad_json(self):
        with pytest.raises(ValueError, match="not valid JSON"):
            parse_scm("{nope")
        with pytest.raises(ValueError, match="JSON object"):
            parse_scm("[1, 2]")

    def test_rejects_missing_sections(self):
        with pytest.raises(ValueError, match="missing section"):
            scm_from_dict({"nodes": []})

    def test_rejects_duplicate_table_rows(self, affine_chain):
        data = scm_to_dict(affine_chain)
        rows = data["functions"]["A"]["table"]
        rows.append(dict(rows[0]))
        with pytest.raises(ValueError, match="duplicate table row"):
            scm_from_dict(data)

    def test_rejects_wrong_declared_alphabet(self, affine_chain):
        data = scm_to_dict(affine_chain)
        data["nodes"][0]["alphabet"] = [0, 1, 2]
        with pytest.raises(ValueError, match="declares alphabet"):
            scm_from_dict(data)

    def test_rejects_missing_noise_entry(self, affine_chain):
        data = scm_to_dict(affine_chain)
        del data["noise"]["B"]
        with pytest.raises(ValueError, match="no noise entry"):
            scm_from_dict(data)

    def test_decimal_probabilities_are_read_exactly(self):
        g = Dag.of("A")
        m = Scm(g, {0: Pmf.of((0, 1), ("1/10", "9/10"))},
                {0: StructuralTable((), {(0,): 0, (1,): 1})})
        text = scm_to_text(m)
        back = parse_scm(text.replace('"1/10"', "0.1").replace('"9/10"', "0.90"))
        assert back.noise[0].probs == (Fraction(1, 10), Fraction(9, 10))
        assert scm_to_text(back) == text
        with pytest.raises(ValueError, match="noise.A.probs: probabilities sum to 9/10, not 1"):
            parse_scm(text.replace('"1/10"', "0.1").replace('"9/10"', "0.8"))


class TestXorModel:
    def test_requires_binary_noise(self):
        g = Dag.of("AB", [("A", "B")])
        noise = {0: Pmf.bernoulli(Fraction(1, 2)),
                 1: Pmf.of((0, 1, 2), ("1/2", "1/4", "1/4"))}
        with pytest.raises(ValueError, match="needs .0, 1. noise"):
            xor_model(g, noise)

    def test_collider_xor(self):
        g = Dag.of("ABC", [("A", "C"), ("B", "C")])
        noise = {v: Pmf.bernoulli(Fraction(1, 2)) for v in range(3)}
        m = xor_model(g, noise)
        # C = A xor B xor N_C
        assert bruteforce.evaluate(m, {0: 1, 1: 1, 2: 1})[2] == 1
        assert bruteforce.evaluate(m, {0: 1, 1: 0, 2: 0})[2] == 1


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_generated_noise_respects_dsep_independence(seed):
    """Spot-check: d-separated singletons in generated models measure independent."""
    m = generate_scm(GeneratorConfig(nodes=5, profile="base"), seed=seed)
    orc = EntropyOracle(joint_distribution(m))
    nodes = sorted(m.graph.nodes)
    rng = random.Random(seed)
    for _ in range(5):
        x, y = rng.sample(nodes, 2)
        rest = [v for v in nodes if v not in (x, y)]
        ss = frozenset(v for v in rest if rng.random() < 0.5)
        if d_separated(m.graph, {x}, {y}, ss):
            assert orc.mutual_information({x}, {y}, ss) <= 1e-9
        else:
            # faithfulness was verified exhaustively at generation time
            assert orc.mutual_information({x}, {y}, ss) > 1e-9
