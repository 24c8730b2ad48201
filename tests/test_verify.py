import contextlib
import random
from itertools import product

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from causal_layering.discovery import (
    AssumptionViolation,
    DiscoveryResult,
    IterationTrace,
    KnownNoiseEntropy,
    MonotoneEntropy,
    sir_discover,
    sour_discover,
)
from causal_layering.graph import Dag, Layering
from causal_layering.oracle import EntropyOracle, joint_distribution
from causal_layering.scm import (
    PROFILES,
    AssumptionReport,
    Assumptions,
    GenerationError,
    GeneratorConfig,
    Pmf,
    Scm,
    StructuralTable,
    generate_scm,
    noise_entropy,
)
from causal_layering.verify import (
    BoundKind,
    Verdict,
    check_call_bound,
    check_discovery_result,
    check_entropy_bounds,
    check_noise_independence,
    classify_bound_case,
    render_bound_report,
    render_independence_report,
)

import bruteforce
from bruteforce import bound_cases, independence_cases, random_dag

A, B, C = 0, 1, 2


def diamond() -> Dag:
    return Dag.of("ABCD", [("A", "B"), ("A", "C"), ("B", "D"), ("C", "D")])


class TestClassifyBoundCase:
    def test_parents_conditioned_no_descendant(self):
        g = diamond()
        kinds = classify_bound_case(g, 1, {0})  # B given A
        assert kinds == {BoundKind.AT_MOST_NOISE, BoundKind.EQUALS_NOISE}

    def test_parents_conditioned_with_descendant(self):
        g = diamond()
        kinds = classify_bound_case(g, 1, {0, 3})  # B given A and D
        assert kinds == {BoundKind.AT_MOST_NOISE, BoundKind.BELOW_NOISE}

    def test_source_always_equals_without_descendants(self):
        g = diamond()
        assert classify_bound_case(g, 0, set()) == {
            BoundKind.AT_MOST_NOISE,
            BoundKind.EQUALS_NOISE,
        }

    def test_unconditioned_parent_gives_above(self):
        g = diamond()
        # D with nothing conditioned: parents B, C unconditioned, their
        # descendant sets do not meet S or {B, C}
        assert classify_bound_case(g, 3, set()) == {BoundKind.ABOVE_NOISE}

    def test_no_clause_when_parent_descendant_interferes(self):
        # chain A -> B -> C: H(B | C) fits no clause because B's only
        # parent A reaches C, which is conditioned
        g = Dag.of("ABC", [("A", "B"), ("B", "C")])
        assert classify_bound_case(g, 1, {2}) == frozenset()

    def test_mediated_parent_blocks_above(self):
        # A -> B, A -> C, B -> C: C given {} has parent A whose descendant B
        # is also a parent, but B itself qualifies (no descendant among
        # parents, none conditioned)
        g = Dag.of("ABC", [("A", "B"), ("A", "C"), ("B", "C")])
        assert classify_bound_case(g, 2, set()) == {BoundKind.ABOVE_NOISE}

    def test_rejects_target_in_conditioning(self):
        with pytest.raises(ValueError, match="must not contain"):
            classify_bound_case(diamond(), 1, {1})


class TestEntropyBounds:
    def test_affine_chain_all_clauses_pass(self, affine_chain):
        orc = EntropyOracle(joint_distribution(affine_chain))
        cases = check_entropy_bounds(affine_chain, orc)
        assert not any(c.verdict is Verdict.FAIL for c in cases)
        seen = {c.kind for c in cases if c.verdict is Verdict.PASS}
        # plus-one injectivity and directed faithfulness both hold, so every
        # clause is exercised somewhere
        assert seen >= {
            BoundKind.AT_MOST_NOISE,
            BoundKind.EQUALS_NOISE,
            BoundKind.BELOW_NOISE,
            BoundKind.ABOVE_NOISE,
        }

    def test_xor_chain_strict_clauses_skipped(self, xor_chain):
        orc = EntropyOracle(joint_distribution(xor_chain))
        cases = check_entropy_bounds(xor_chain, orc)
        assert not any(c.verdict is Verdict.FAIL for c in cases)
        for c in cases:
            if c.kind in (BoundKind.ABOVE_NOISE, BoundKind.BELOW_NOISE):
                assert c.verdict is Verdict.SKIP

    def test_xor_middle_node_rides_the_boundary(self, xor_chain):
        # H(B | A, C) equals the noise entropy exactly: the at-most clause
        # passes while the strict below clause is correctly skipped
        orc = EntropyOracle(joint_distribution(xor_chain))
        cases = check_entropy_bounds(xor_chain, orc)
        hits = [c for c in cases if c.node == B and c.cond == frozenset({A, C})]
        assert {c.kind for c in hits} == {BoundKind.AT_MOST_NOISE, BoundKind.BELOW_NOISE}
        for c in hits:
            assert c.measured == pytest.approx(noise_entropy(xor_chain, B), abs=1e-9)
            want = Verdict.PASS if c.kind is BoundKind.AT_MOST_NOISE else Verdict.SKIP
            assert c.verdict is want

    def test_generated_profiles_exercise_their_clause(self):
        for seed in range(3):
            plus = generate_scm(GeneratorConfig(nodes=5, profile="plus_one"), seed=seed)
            cases = check_entropy_bounds(plus, EntropyOracle(joint_distribution(plus)))
            assert not any(c.verdict is Verdict.FAIL for c in cases)
            assert any(
                c.kind is BoundKind.ABOVE_NOISE and c.verdict is Verdict.PASS
                for c in cases
            )

            sir = generate_scm(GeneratorConfig(nodes=5, profile="sir_faithful"), seed=seed)
            cases = check_entropy_bounds(sir, EntropyOracle(joint_distribution(sir)))
            assert not any(c.verdict is Verdict.FAIL for c in cases)
            assert any(
                c.kind is BoundKind.BELOW_NOISE and c.verdict is Verdict.PASS
                for c in cases
            )


class TestNoiseIndependence:
    def test_chains_pass_exhaustively(self, affine_chain, xor_chain):
        for m in (affine_chain, xor_chain):
            cases = check_noise_independence(m, Assumptions(m).noise_oracle())
            assert cases
            assert all(c.verdict is Verdict.PASS for c in cases)

    def test_case_counts_exhaustive(self, affine_chain):
        # chain A->B->C: non-descendant pools have sizes 0, 1, 2 -> 1+2+4 sets
        cases = check_noise_independence(affine_chain, Assumptions(affine_chain).noise_oracle())
        assert len(cases) == 7


class ZeroOracle:
    """Answers every query with 0.0, so a suite's case list costs no enumeration."""

    def cond_entropy(self, target, given):
        return 0.0

    def mutual_information(self, xs, ys, zs=()):
        return 0.0

    def marginal_entropies(self, sets):
        return [0.0 for _ in sets]


class TestCaseLists:
    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(min_value=1, max_value=8),
        st.floats(min_value=0.0, max_value=0.9),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=0, max_value=60),
    )
    def test_suites_draw_the_reference_cases(self, n, p, seed, cases):
        g = random_dag(random.Random(seed), n, p)
        m = Scm(  # each node copies its noise, so every table is total over any parents
            g,
            {v: Pmf.of((0, 1), ("1/2", "1/2")) for v in g.nodes},
            {
                v: StructuralTable(
                    tuple(sorted(g.parents(v))),
                    {(*combo, u): u for combo in product(*((0, 1),) * len(g.parents(v)))
                     for u in (0, 1)},
                )
                for v in g.nodes
            },
        )
        audit = Assumptions(m, reports=[
            AssumptionReport("injective_noise_plus_one", True),
            AssumptionReport("directed_faithfulness", True),
        ])
        bounds = check_entropy_bounds(m, ZeroOracle(), cases, seed % 7, assumptions=audit)
        expected = [
            (v, s)
            for v, s in bound_cases(g, cases, seed % 7)
            for _ in range(max(1, len(classify_bound_case(g, v, s))))
        ]
        assert [(c.node, c.cond) for c in bounds] == expected
        indep = check_noise_independence(m, ZeroOracle(), cases, seed % 7)
        assert [(c.node, c.cond) for c in indep] == independence_cases(g, cases, seed % 7)


def _bitwise(cases) -> list[tuple]:
    """Each case's fields, floats by their exact bits."""
    return [
        tuple(x.hex() if isinstance(x, float) else x for x in vars(c).values()) for c in cases
    ]


class TestBatchedSuites:
    """The suites against the per-case loops in ``bruteforce``."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(PROFILES),
        st.integers(min_value=2, max_value=7),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=1, max_value=120),
        st.integers(min_value=0, max_value=50),
        st.booleans(),
    )
    @example("sir_faithful", 7, 0, 200, 3, True)  # sampled cases
    @example("base", 5, 1, 200, 0, False)  # exhaustive cases
    def test_suites_match_the_per_case_reference(self, profile, n, seed, cases, case_seed, warm):
        try:
            m = generate_scm(
                GeneratorConfig(nodes=n, profile=profile, edge_prob=0.4, max_retries=3), seed
            )
        except GenerationError:  # the generator's documented refusal: no model to compare
            reject()
        audit = Assumptions(m, reports=m.meta.reports)
        if warm:  # discovery queries first, as ``check`` makes them after the suites
            for run in (sour_discover, sir_discover):
                with contextlib.suppress(AssumptionViolation):
                    run(m.graph.nodes, audit.oracle(), MonotoneEntropy())
        above = audit.holds("injective_noise_plus_one")
        below = audit.holds("directed_faithfulness")
        bounds = check_entropy_bounds(m, audit.oracle(), cases, case_seed, assumptions=audit)
        indep = check_noise_independence(m, audit.noise_oracle(), cases, case_seed)

        reference = Assumptions(m)
        expected_bounds = bruteforce.check_entropy_bounds(
            m, reference.oracle(), cases, case_seed, 1e-9, above, below
        )
        expected_indep = bruteforce.check_noise_independence(
            m, reference.noise_oracle(), cases, case_seed, 1e-9
        )
        assert _bitwise(bounds) == _bitwise(expected_bounds)
        assert _bitwise(indep) == _bitwise(expected_indep)


class TestDiscoveryReplay:
    def run_sour(self, m):
        orc = EntropyOracle(joint_distribution(m))
        known = KnownNoiseEntropy({v: noise_entropy(m, v) for v in m.graph.nodes})
        return sour_discover(m.graph.nodes, orc, known)

    def test_passes_on_affine(self, affine_chain):
        result = self.run_sour(affine_chain)
        check = check_discovery_result(
            affine_chain.graph, result, "sources", expect_exact_selection=True
        )
        assert check.ok, check.reason

    def test_catches_invalid_layering_from_unlicensed_run(self, xor_chain):
        orc = EntropyOracle(joint_distribution(xor_chain))
        known = KnownNoiseEntropy({v: noise_entropy(xor_chain, v) for v in range(3)})
        result = sir_discover(xor_chain.graph.nodes, orc, known)
        check = check_discovery_result(xor_chain.graph, result, "sinks")
        assert not check.ok
        assert "not strictly forward" in check.reason

    def test_catches_non_source_selection(self):
        g = Dag.of("AB", [("A", "B")])
        trace = (
            IterationTrace(frozenset({0, 1}), {0: 1.0, 1: 2.0},
                           frozenset({1}), frozenset({1})),
            IterationTrace(frozenset({0}), {0: 1.0},
                           frozenset({0}), frozenset({0})),
        )
        fake = DiscoveryResult(Layering.of([[1], [0]]), 3, trace)
        # the layering itself is already broken (edge runs backward), so
        # fabricate one that covers the graph but comes from bad selections
        check = check_discovery_result(g, fake, "sources")
        assert not check.ok

        trace2 = (
            IterationTrace(frozenset({0, 1}), {0: 1.0, 1: 2.0},
                           frozenset({1}), frozenset({1})),
            IterationTrace(frozenset({0}), {0: 1.0},
                           frozenset({0}), frozenset({0})),
        )
        fake2 = DiscoveryResult(Layering.of([[0], [1]]), 3, trace2)
        check2 = check_discovery_result(g, fake2, "sources")
        assert not check2.ok
        assert check2.failed_iteration == 1
        assert "selected non-source" in check2.reason and "B" in check2.reason

    def test_catches_inexact_qualifying_set(self):
        g = Dag.of("AB")
        trace = (
            IterationTrace(frozenset({0, 1}), {0: 1.0, 1: 1.0},
                           frozenset({0}), frozenset({0})),
            IterationTrace(frozenset({1}), {1: 1.0},
                           frozenset({1}), frozenset({1})),
        )
        result = DiscoveryResult(Layering.of([[0], [1]]), 3, trace)
        loose = check_discovery_result(g, result, "sources")
        assert loose.ok
        strict = check_discovery_result(g, result, "sources", expect_exact_selection=True)
        assert not strict.ok
        assert "is not the residual set" in strict.reason

    def test_catches_trace_layering_mismatch(self):
        g = Dag.of("AB")
        result = DiscoveryResult(Layering.of([[0, 1]]), 2, ())
        check = check_discovery_result(g, result, "sources")
        assert not check.ok
        assert check.reason == "trace does not rebuild the layering"

    def test_rejects_bad_removal_keyword(self, affine_chain):
        result = self.run_sour(affine_chain)
        with pytest.raises(ValueError, match="removal"):
            check_discovery_result(affine_chain.graph, result, "middles")


class TestCallBound:
    def test_boundary(self):
        result = DiscoveryResult(Layering.of([[0]]), 6, ())
        assert check_call_bound(result, 3)
        assert not check_call_bound(DiscoveryResult(Layering.of([[0]]), 7, ()), 3)


class TestRendering:
    def test_bound_report_lines(self, xor_chain):
        orc = EntropyOracle(joint_distribution(xor_chain))
        cases = check_entropy_bounds(xor_chain, orc)
        labels = {v: xor_chain.label(v) for v in range(3)}
        text = render_bound_report(cases, labels)
        assert "at_most_noise v=B S={A,C} H=0.811278124 Hnoise=0.811278124 PASS" in text
        assert "below_noise v=B S={A,C} H=0.811278124 Hnoise=0.811278124 SKIP" in text
        assert text.rstrip("\n").splitlines()[-1].startswith("summary: ")

    def test_independence_report_lines(self, affine_chain):
        cases = check_noise_independence(affine_chain, Assumptions(affine_chain).noise_oracle())
        labels = {v: affine_chain.label(v) for v in range(3)}
        text = render_independence_report(cases, labels)
        assert "noise_independence v=A S={} dsep=true" in text
        assert text.rstrip("\n").splitlines()[-1] == "summary: 7 pass, 0 fail, 0 skip"
