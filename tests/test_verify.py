import contextlib
import dataclasses
import random
from itertools import product

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from causal_layering.discovery import (
    LICENSES,
    AssumptionViolation,
    DiscoveryResult,
    IterationTrace,
    KnownNoiseEntropy,
    MonotoneEntropy,
    sir_discover,
    sour_discover,
)
from causal_layering.graph import Dag, Layering
from causal_layering.oracle import EntropyOracle, JointTable, joint_distribution
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
    render_bound_report,
    render_independence_report,
)

import bruteforce
from bruteforce import classify_bound_case, random_dag, random_scm

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
        # H(B | A) and H(B | A, C) equal the noise entropy exactly: the
        # at-most clause passes while the strict below clause is correctly
        # skipped
        orc = EntropyOracle(joint_distribution(xor_chain))
        cases = check_entropy_bounds(xor_chain, orc)
        hits = {(c.kind, c.cond): c for c in cases if c.node == B}
        at_most = hits[BoundKind.AT_MOST_NOISE, frozenset({A})]
        below = hits[BoundKind.BELOW_NOISE, frozenset({A, C})]
        for c in (at_most, below):
            assert c.measured == pytest.approx(noise_entropy(xor_chain, B), abs=1e-9)
        assert (at_most.verdict, below.verdict) == (Verdict.PASS, Verdict.SKIP)

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
        # chain A->B->C: one case per node, S its non-descendants {}, {A}, {A, B}
        cases = check_noise_independence(affine_chain, Assumptions(affine_chain).noise_oracle())
        assert [(c.node, c.cond) for c in cases] == [
            (A, frozenset()), (B, frozenset({A})), (C, frozenset({A, B}))
        ]


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
    )
    def test_suites_draw_the_reference_cases(self, n, p, seed):
        # the extreme sets are each kind's inclusion-minimal or -maximal
        # conditioning sets, found by classifying every set; the
        # independence suite asks each node's non-descendants once
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
        bounds = [(c.node, c.kind, c.cond) for c in
                  check_entropy_bounds(m, ZeroOracle(), assumptions=audit)]
        assert len(set(bounds)) == len(bounds)
        assert set(bounds) == bruteforce.extreme_cases(g)
        assert [v for v, _, _ in bounds] == sorted(v for v, _, _ in bounds)
        indep = check_noise_independence(m, ZeroOracle())
        assert [(c.node, c.cond) for c in indep] == [
            (v, bruteforce.non_descendants(g, v)) for v in sorted(g.nodes)
        ]


def _bitwise(case) -> tuple:
    """A case's fields, floats by their exact bits."""
    return tuple(x.hex() if isinstance(x, float) else x for x in vars(case).values())


class TestBatchedSuites:
    """The suites against the exhaustive per-case loops in ``bruteforce``."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(PROFILES),
        st.integers(min_value=2, max_value=7),
        st.integers(min_value=0, max_value=10_000),
        st.booleans(),
    )
    @example("sir_faithful", 7, 0, True)
    @example("base", 5, 1, False)
    def test_suites_match_the_per_case_reference(self, profile, n, seed, warm):
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
        bounds = check_entropy_bounds(m, audit.oracle(), assumptions=audit)
        indep = check_noise_independence(m, audit.noise_oracle())

        # every record is the reference's record for its (v, S, kind), bit for bit
        reference = Assumptions(m)
        expected_bounds = bruteforce.check_entropy_bounds(m, reference.oracle(), 1e-9, above, below)
        expected_indep = bruteforce.check_noise_independence(m, reference.noise_oracle(), 1e-9)
        assert {_bitwise(c) for c in bounds} <= {_bitwise(c) for c in expected_bounds}
        assert {_bitwise(c) for c in indep} <= {_bitwise(c) for c in expected_indep}
        assert bruteforce.verdicts(bounds, _node_kind) == bruteforce.verdicts(
            expected_bounds, _node_kind)
        assert bruteforce.verdicts(indep, _node) == bruteforce.verdicts(expected_indep, _node)


def _node_kind(case) -> tuple:
    return case.node, case.kind


def _node(case) -> int:
    return case.node


def reweighted(table: JointTable, spread: int, seed: int) -> JointTable:
    """``table``'s rows, each reweighted by an integer from 0 to ``spread``
    drawn in row order by ``random.Random(seed)``: a distribution on part of
    ``table``'s support, with few rows and no noise independence, as a
    plug-in table over a small sample is. Every weight 0 keeps the first row."""
    rng = random.Random(seed)
    keys = [key for key, _ in table.items()]
    weights = {key: rng.randint(0, spread) for key in keys}
    if not any(weights.values()):
        weights[keys[0]] = 1
    return JointTable(table.variables, table.labels, weights, sum(weights.values()))


class TestExtremeSets:
    """Each (node, kind) verdict on the extreme sets equals the verdict of the
    exhaustive per-case suite over every conditioning set, with both strict
    clauses asserted. An oracle over the model's exact table reweighted
    (``reweighted``) makes every kind fail somewhere: monotonicity holds for
    any distribution, so the extreme sets decide there too."""

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(min_value=2, max_value=6),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from([0, 1, 2, 5]),
    )
    # Every example fails equals_noise, all but the last above_noise, and the
    # first two below_noise. Each fails the kind named on the one set named,
    # so the test fails when that set is dropped.
    @example(3, 1.0, 8, 0)  # below_noise: the first descendant
    @example(3, 0.5, 4, 0)  # below_noise: the last descendant
    @example(4, 0.5, 5, 0)  # above_noise: the first unmediated parent
    @example(3, 0.5, 18, 0)  # above_noise: the last unmediated parent
    @example(3, 0.5, 62, 1)  # equals_noise: S = nd, on a reweighted table
    @example(2, 0.5, 10, 1)  # at_most_noise fails, on a reweighted table
    def test_verdicts_match_the_exhaustive_suite(self, n, p, seed, spread):
        m = random_scm(random.Random(seed), n, p)
        audit = Assumptions(m, reports=[
            AssumptionReport("injective_noise_plus_one", True),
            AssumptionReport("directed_faithfulness", True),
        ])
        exact = Assumptions(m)
        orc = exact.oracle()
        if spread:
            orc = EntropyOracle(reweighted(orc.table, spread, seed))
        got = bruteforce.verdicts(check_entropy_bounds(m, orc, assumptions=audit), _node_kind)
        want = bruteforce.verdicts(
            bruteforce.check_entropy_bounds(m, orc, 1e-9, True, True), _node_kind)
        assert got == want
        noisy = exact.noise_oracle()
        assert bruteforce.verdicts(check_noise_independence(m, noisy), _node) == (
            bruteforce.verdicts(bruteforce.check_noise_independence(m, noisy, 1e-9), _node))

    def test_noise_independence_fails_on_dependent_noise(self):
        # A -> B, with a noise table in which N_B copies B's parent A
        m = Scm(
            Dag.of("AB", [("A", "B")]),
            {v: Pmf.of((0, 1), ("1/2", "1/2")) for v in (A, B)},
            {A: StructuralTable((), {(0,): 0, (1,): 1}),
             B: StructuralTable((A,), {(a, u): a ^ u for a in (0, 1) for u in (0, 1)})},
        )
        rows = {(0, 0, 0, 0): 1, (1, 0, 1, 1): 1}  # (A, B, N_A, N_B)
        noisy = EntropyOracle(JointTable((0, 1, 2, 3), ("A", "B", "N_A", "N_B"), rows, 2))
        got = bruteforce.verdicts(check_noise_independence(m, noisy), _node)
        assert got == bruteforce.verdicts(
            bruteforce.check_noise_independence(m, noisy, 1e-9), _node)
        assert got == {A: Verdict.PASS, B: Verdict.FAIL}

    @pytest.mark.parametrize("rows", [
        {(0, 0): 1, (1, 1): 1, (0, 2): 1, (1, 3): 1},  # H(B) = 2 bits, H(B | A) = 1 bit
        {(0, 0): 1, (1, 1): 1},  # H(B) = 1 bit, H(B | A) = 0
    ])
    def test_equals_noise_is_decided_at_both_ends(self, rows):
        # A and B unlinked, B's noise 1 bit: S = {} and S = {A} are both
        # equals_noise sets of B, and each oracle fails only one of them
        m = Scm(
            Dag.of("AB"),
            {v: Pmf.of((0, 1), ("1/2", "1/2")) for v in (A, B)},
            {v: StructuralTable((), {(0,): 0, (1,): 1}) for v in (A, B)},
        )
        orc = EntropyOracle(JointTable((A, B), ("A", "B"), rows, len(rows)))
        got = check_entropy_bounds(m, orc)
        want = bruteforce.check_entropy_bounds(m, orc, 1e-9, True, True)
        equals = {c.cond: c.verdict for c in got if (c.node, c.kind) == (B, BoundKind.EQUALS_NOISE)}
        assert sorted(equals.values(), key=str) == [Verdict.FAIL, Verdict.PASS]
        assert bruteforce.verdicts(got, _node_kind) == bruteforce.verdicts(want, _node_kind)


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

    def test_remaining_sets_must_be_the_unselected_nodes(self):
        # edgeless A, B peeled as {A} then {B}, each round qualifying only
        # what it selects; the traces differ in their remaining sets alone
        g = Dag.of("AB")

        def replay(remaining, exact=True):
            trace = tuple(
                IterationTrace(frozenset(rest), {v: 1.0 for v in rest},
                               frozenset({v}), frozenset({v}))
                for v, rest in zip((A, B), remaining)
            )
            result = DiscoveryResult(Layering.of([[A], [B]]), 3, trace)
            check = check_discovery_result(g, result, "sources", expect_exact_selection=exact)
            return check.ok, check.failed_iteration, check.reason

        assert replay(({A, B}, {B})) == (
            False, 1, "qualifying set {A} is not the residual set {A, B}")
        # leaving B out of round 1 made {A} look like the exact source set
        assert replay(({A}, {B})) == (
            False, 1, "remaining set {A} is not the unselected set {A, B}")
        assert replay(({A, B}, {A, B}), exact=False) == (
            False, 2, "remaining set {A, B} is not the unselected set {B}")
        assert replay(({A, B}, {B}), exact=False) == (True, None, "")

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


def moved_node_runs(result: DiscoveryResult, removal: str, rng: random.Random):
    """The run with one selected node moved to another round's selection (a
    round left empty is dropped), each ``remaining`` set rebuilt from the
    selections before it; once with the layering those selections give and
    once with the run's own."""
    selections = [set(step.selected) for step in result.trace]
    if len(selections) < 2:
        return []
    i, j = rng.sample(range(len(selections)), 2)
    v = rng.choice(sorted(selections[i]))
    selections[i].remove(v)
    selections[j].add(v)
    remaining, trace = frozenset().union(*selections), []
    for step, chosen in zip(result.trace, map(frozenset, selections)):
        if chosen:
            trace.append(dataclasses.replace(step, remaining=remaining, selected=chosen))
            remaining -= chosen
    groups = [step.selected for step in trace]
    layering = Layering(tuple(groups if removal == "sources" else reversed(groups)))
    return [DiscoveryResult(lay, result.oracle_calls, tuple(trace))
            for lay in (layering, result.layering)]


def shrunk_qualifying_run(result: DiscoveryResult, rng: random.Random) -> DiscoveryResult:
    """The run with one node dropped from one round's qualifying set."""
    trace = list(result.trace)
    i = rng.randrange(len(trace))
    v = rng.choice(sorted(trace[i].qualifying))
    trace[i] = dataclasses.replace(trace[i], qualifying=trace[i].qualifying - {v})
    return DiscoveryResult(result.layering, result.oracle_calls, tuple(trace))


class TestReplayReference:
    """The replay against its residual-graph reference in ``bruteforce``."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(PROFILES),
        st.integers(min_value=2, max_value=7),
        st.integers(min_value=0, max_value=10_000),
        st.randoms(use_true_random=False),
    )
    def test_replay_matches_the_residual_graph_reference(self, profile, n, seed, rng):
        try:
            m = generate_scm(
                GeneratorConfig(nodes=n, profile=profile, edge_prob=0.4, max_retries=3), seed
            )
        except GenerationError:  # the generator's documented refusal: no model to compare
            reject()
        audit = Assumptions(m, reports=m.meta.reports)
        known = KnownNoiseEntropy({v: noise_entropy(m, v) for v in m.graph.nodes})
        for algo, mode in LICENSES:  # every pair, licensed or not
            removal = "sources" if algo == "sour" else "sinks"
            run = sour_discover if algo == "sour" else sir_discover
            try:
                result = run(m.graph.nodes, audit.oracle(),
                             known if mode == "known" else MonotoneEntropy())
            except AssumptionViolation:
                continue
            runs = [result, *moved_node_runs(result, removal, rng),
                    shrunk_qualifying_run(result, rng)]
            for replayed, exact in product(runs, (False, True)):
                got = check_discovery_result(m.graph, replayed, removal, exact)
                want = bruteforce.check_discovery_result(m.graph, replayed, removal, exact)
                assert got == want, (algo, mode, exact, replayed)


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
        assert "at_most_noise v=B S={A} H=0.811278124 Hnoise=0.811278124 PASS" in text
        assert "below_noise v=B S={A,C} H=0.811278124 Hnoise=0.811278124 SKIP" in text
        assert text.rstrip("\n").splitlines()[-1].startswith("summary: ")

    def test_independence_report_lines(self, affine_chain):
        cases = check_noise_independence(affine_chain, Assumptions(affine_chain).noise_oracle())
        labels = {v: affine_chain.label(v) for v in range(3)}
        text = render_independence_report(cases, labels)
        assert "noise_independence v=A S={} mi=0.000e+00 PASS" in text
        assert text.rstrip("\n").splitlines()[-1] == "summary: 3 pass, 0 fail, 0 skip"
