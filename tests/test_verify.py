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
from causal_layering.graph import Dag
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
            AssumptionReport("injective_noise_plus_one"),
            AssumptionReport("directed_faithfulness"),
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
            AssumptionReport("injective_noise_plus_one"),
            AssumptionReport("directed_faithfulness"),
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


def forged(removal: str, mode, *rounds) -> DiscoveryResult:
    """A run of the given rounds, each (measured nodes, qualifying, selected);
    every measured entropy reads 1.0."""
    trace = tuple(
        IterationTrace(dict.fromkeys(measured, 1.0), frozenset(qualifying), frozenset(selected))
        for measured, qualifying, selected in rounds
    )
    return DiscoveryResult(removal, mode, trace)


class TestDiscoveryReplay:
    def run_sour(self, m):
        orc = EntropyOracle(joint_distribution(m))
        known = KnownNoiseEntropy({v: noise_entropy(m, v) for v in m.graph.nodes})
        return sour_discover(m.graph.nodes, orc, known)

    def test_passes_on_affine(self, affine_chain):
        check = check_discovery_result(affine_chain.graph, self.run_sour(affine_chain))
        assert check.ok, check.reason

    def test_catches_invalid_layering_from_unlicensed_run(self, xor_chain):
        orc = EntropyOracle(joint_distribution(xor_chain))
        known = KnownNoiseEntropy({v: noise_entropy(xor_chain, v) for v in range(3)})
        result = sir_discover(xor_chain.graph.nodes, orc, known)
        check = check_discovery_result(xor_chain.graph, result)
        # round 1 takes B with the sink C; its layering would put B -> C in one layer
        assert (check.ok, check.failed_iteration, check.reason) == (
            False, 1, "selected non-sink nodes: B")

    def test_catches_non_source_selection(self):
        g = Dag.of("AB", [("A", "B")])
        fake = forged("sources", MonotoneEntropy(), ({A, B}, {B}, {B}), ({A}, {A}, {A}))
        check = check_discovery_result(g, fake)
        assert not check.ok
        assert check.failed_iteration == 1
        assert check.reason == "selected non-source nodes: B"

    def test_catches_inexact_qualifying_set(self):
        g = Dag.of("AB")
        rounds = (({A, B}, {A}, {A}), ({B}, {B}, {B}))
        loose = check_discovery_result(g, forged("sources", MonotoneEntropy(), *rounds))
        assert loose.ok
        known = KnownNoiseEntropy({A: 1.0, B: 1.0})
        strict = check_discovery_result(g, forged("sources", known, *rounds))
        assert not strict.ok
        assert "is not the residual set" in strict.reason

    def test_remaining_sets_must_be_the_unselected_nodes(self):
        # edgeless A, B peeled as {A} then {B}, each round qualifying only
        # what it selects; the traces differ in the nodes each round measured
        g = Dag.of("AB")

        def replay(measured, mode):
            result = forged("sources", mode, *(
                (rest, {v}, {v}) for v, rest in zip((A, B), measured)))
            check = check_discovery_result(g, result)
            return check.ok, check.failed_iteration, check.reason

        known, monotone = KnownNoiseEntropy({A: 1.0, B: 1.0}), MonotoneEntropy()
        assert replay(({A, B}, {B}), known) == (
            False, 1, "qualifying set {A} is not the residual set {A, B}")
        # leaving B out of round 1 made {A} look like the exact source set
        assert replay(({A}, {B}), known) == (
            False, 1, "remaining set {A} is not the unselected set {A, B}")
        assert replay(({A, B}, {A, B}), monotone) == (
            False, 2, "remaining set {A, B} is not the unselected set {B}")
        assert replay(({A, B}, {B}), monotone) == (True, None, "")

    def test_catches_unknown_nodes(self):
        # node 2 is not in the graph of A, B: a verdict, not a lookup error
        g = Dag.of("AB")
        runs = {
            "selected": (({A, B}, {A}, {A}), ({B}, {B, 2}, {B, 2})),
            "measured": (({A, B}, {A}, {A}), ({B, 2}, {B}, {B})),
        }
        for rounds in runs.values():
            check = check_discovery_result(g, forged("sources", MonotoneEntropy(), *rounds))
            assert (check.ok, check.failed_iteration, check.reason) == (
                False, 2, "unknown nodes: 2")

    def test_rejects_bad_removal_keyword(self, affine_chain):
        result = dataclasses.replace(self.run_sour(affine_chain), removal="middles")
        check = check_discovery_result(affine_chain.graph, result)
        assert (check.ok, check.failed_iteration, check.reason) == (
            False, None, "removal must be 'sources' or 'sinks', not 'middles'")


def moved_node_run(result: DiscoveryResult, rng: random.Random) -> DiscoveryResult | None:
    """The run with one selected node moved to another round's selection (a
    round left empty is dropped), each round's measured nodes rebuilt from
    the selections before it; None for a run of one round."""
    selections = [set(step.selected) for step in result.trace]
    if len(selections) < 2:
        return None
    i, j = rng.sample(range(len(selections)), 2)
    v = rng.choice(sorted(selections[i]))
    selections[i].remove(v)
    selections[j].add(v)
    remaining, trace = frozenset().union(*selections), []
    for step, chosen in zip(result.trace, map(frozenset, selections)):
        if chosen:
            entropies = {u: step.entropies.get(u, 0.0) for u in sorted(remaining)}
            trace.append(dataclasses.replace(step, entropies=entropies, selected=chosen))
            remaining -= chosen
    return dataclasses.replace(result, trace=tuple(trace))


def shrunk_qualifying_run(result: DiscoveryResult, rng: random.Random) -> DiscoveryResult:
    """The run with one node dropped from one round's qualifying set."""
    trace = list(result.trace)
    i = rng.randrange(len(trace))
    v = rng.choice(sorted(trace[i].qualifying))
    trace[i] = dataclasses.replace(trace[i], qualifying=trace[i].qualifying - {v})
    return dataclasses.replace(result, trace=tuple(trace))


def empty_round_run(result: DiscoveryResult, rng: random.Random) -> DiscoveryResult:
    """The run with a round inserted that measures the nodes of the round it
    precedes (or, at the end, none) and selects nothing."""
    i = rng.randrange(len(result.trace) + 1)
    entropies = dict(result.trace[i].entropies) if i < len(result.trace) else {}
    empty = IterationTrace(entropies, frozenset(), frozenset())
    return dataclasses.replace(result, trace=(*result.trace[:i], empty, *result.trace[i:]))


def remeasured_run(result: DiscoveryResult, rng: random.Random) -> DiscoveryResult | None:
    """The run with one node that an earlier round selected measured again
    in a later round; None for a run of one round."""
    if len(result.trace) < 2:
        return None
    trace = list(result.trace)
    i = rng.randrange(1, len(trace))
    v = rng.choice(sorted(trace[i - 1].selected))
    trace[i] = dataclasses.replace(trace[i], entropies={**trace[i].entropies, v: 0.0})
    return dataclasses.replace(result, trace=tuple(trace))


def forgeries(result: DiscoveryResult, rng: random.Random) -> list[DiscoveryResult]:
    """The moved-node run, the shrunk-qualifying run, the run without its
    last round, the empty-round run and the remeasured run, in that order;
    a run of one round has no moved-node or remeasured run."""
    runs = [moved_node_run(result, rng), shrunk_qualifying_run(result, rng),
            dataclasses.replace(result, trace=result.trace[:-1]), empty_round_run(result, rng),
            remeasured_run(result, rng)]
    return [run for run in runs if run is not None]


class TestReplayReference:
    """The replay against its reference in ``bruteforce``: a layering check
    first, then the residual-graph pools and the rebuild of the layering."""

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
            run = sour_discover if algo == "sour" else sir_discover
            try:
                result = run(m.graph.nodes, audit.oracle(),
                             known if mode == "known" else MonotoneEntropy())
            except AssumptionViolation:
                continue
            for replayed in (result, *forgeries(result, rng)):
                got = check_discovery_result(m.graph, replayed)
                want = bruteforce.check_discovery_result(m.graph, replayed)
                assert got.ok == want.ok, (algo, mode, replayed, got, want)

    def test_each_forgery_fails_both_replays(self, affine_chain):
        # each round of the affine chain selects one node, so every forgery
        # breaks the run: here A moves to round 3, so B is taken first; round
        # 2 qualifies nothing; the third round goes; an empty round precedes
        # it; round 3 measures B, which round 2 took
        result = sour_discover(
            affine_chain.graph.nodes, EntropyOracle(joint_distribution(affine_chain)),
            KnownNoiseEntropy({v: noise_entropy(affine_chain, v) for v in range(3)}))
        reasons = []
        for forgery in forgeries(result, random.Random(2)):
            assert not bruteforce.check_discovery_result(affine_chain.graph, forgery).ok
            got = check_discovery_result(affine_chain.graph, forgery)
            reasons.append((got.ok, got.failed_iteration, got.reason))
        assert reasons == [
            (False, 1, "selected non-source nodes: B"),
            (False, 2, "qualifying set {} is not the residual set {B}"),
            (False, None, "missing nodes: C"),
            (False, 3, "selected no node"),
            (False, 3, "remaining set {B, C} is not the unselected set {C}"),
        ]


class TestCallBound:
    def test_boundary(self):
        rounds = [({A, B, C}, {A}, {A}), ({B, C}, {B}, {B}), ({C}, {C}, {C})]
        assert check_call_bound(forged("sources", MonotoneEntropy(), *rounds), 3)
        rounds[1] = ({A, B, C}, {B}, {B})  # 3 + 3 + 1 measurements
        assert not check_call_bound(forged("sources", MonotoneEntropy(), *rounds), 3)


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
