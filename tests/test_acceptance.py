"""End-to-end acceptance battery.

Each test exercises one shipping criterion at its stated tolerance and
budget, and registers a one-line verdict that is printed in the terminal
summary after the run.
"""

import random
import time
from fractions import Fraction
from itertools import product

import pytest

from causal_layering.cli import main as cli_main
from causal_layering.discovery import (
    KnownNoiseEntropy,
    MonotoneEntropy,
    licensed_pairs,
    sir_discover,
    sour_discover,
)
from causal_layering.graph import d_separated
from causal_layering.oracle import EntropyOracle, joint_distribution
from causal_layering.presets import xor_model
from causal_layering.scm import (
    Assumptions,
    GeneratorConfig,
    Pmf,
    check_injective_noise_plus_one,
    generate_scm,
    guaranteed_assumptions,
    noise_entropy,
    scm_to_text,
)
from causal_layering.verify import (
    BoundKind,
    Verdict,
    check_call_bound,
    check_discovery_result,
    check_entropy_bounds,
    check_noise_independence,
)

from bruteforce import cond_entropy as bf_cond_entropy
from bruteforce import (
    d_separated_paths,
    joint_probs,
    random_dag,
    rr,
    sinks_only,
    sources_only,
    take_k_by_label,
)
from conftest import ACCEPTANCE_LINES

TOL = 1e-9


def record(num: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    ACCEPTANCE_LINES.append(f"criterion {num}: {verdict} — {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def model_battery(profile: str, entropy_mode: str, count: int, nmax: int):
    rng = random.Random(2024)
    models = []
    for i in range(count):
        cfg = GeneratorConfig(
            nodes=rng.randint(2, nmax),
            edge_prob=0.3,
            noise_support_sizes=(2, 3),
            profile=profile,
            entropy_mode=entropy_mode,
            max_retries=400,
        )
        models.append(generate_scm(cfg, seed=i))
    return models


def run_discovery(m, algo: str, mode_name: str):
    orc = EntropyOracle(joint_distribution(m))
    if mode_name == "known":
        mode = KnownNoiseEntropy({v: noise_entropy(m, v) for v in m.graph.nodes})
    else:
        mode = MonotoneEntropy()
    run = sour_discover if algo == "sour" else sir_discover
    return run(m.graph.nodes, orc, mode)


@pytest.fixture(scope="module")
def discovery_runs():
    """All discovery batteries, shared by criteria 5-7.

    Each battery runs every (algorithm, mode) pair that the assumptions its
    generating profile guarantees license.
    """
    t0 = time.time()
    # single-parent-injective models get rare past six nodes
    batteries = (("plus_one", "weak", 6), ("sir_faithful", "weak", 7), ("base", "strict", 7))
    runs = []
    for profile, entropy_mode, nmax in batteries:
        pairs = licensed_pairs(set(guaranteed_assumptions(profile, entropy_mode)).__contains__)
        for m in model_battery(profile, entropy_mode, 200, nmax):
            for algo, mode_name in pairs:
                result = run_discovery(m, algo, mode_name)
                runs.append((f"{profile}/{entropy_mode}", m, algo, mode_name, result))
    return {"runs": runs, "elapsed": time.time() - t0}


def test_criterion_1_peeling_always_yields_layerings():
    """500 random DAGs up to 10 nodes, three removal policies, under 5s."""
    t0 = time.time()
    rng = random.Random(7)
    densities = [k / 10 for k in range(1, 10)]
    checked = 0
    ok = True
    for i in range(500):
        g = random_dag(rng, rng.randint(1, 10), rng.choice(densities))
        for lay in (
            rr(g),
            rr(g, sources_only(take_k_by_label(g, 1))),
            rr(g, sinks_only(take_k_by_label(g, 2))),
        ):
            from causal_layering.graph import layering_violations

            if layering_violations(g, lay):
                ok = False
            checked += 1
    elapsed = time.time() - t0
    ok = ok and elapsed < 5.0
    record(1, ok, f"{checked} peeling runs on 500 random DAGs valid in {elapsed:.2f}s")


def test_criterion_2_dsep_matches_path_enumeration():
    """200 graphs up to 5 nodes; every disjoint (X, Y, S) triple agrees."""
    t0 = time.time()
    rng = random.Random(13)
    triples = 0
    mismatches = 0
    for i in range(200):
        g = random_dag(rng, rng.randint(2, 5), rng.uniform(0.1, 0.9))
        nodes = sorted(g.nodes)
        for digits in product(range(4), repeat=len(nodes)):
            xs = frozenset(v for v, d in zip(nodes, digits) if d == 1)
            ys = frozenset(v for v, d in zip(nodes, digits) if d == 2)
            ss = frozenset(v for v, d in zip(nodes, digits) if d == 3)
            if not xs or not ys:
                continue
            triples += 1
            if d_separated(g, xs, ys, ss) != d_separated_paths(g, xs, ys, ss):
                mismatches += 1
    elapsed = time.time() - t0
    ok = mismatches == 0 and elapsed < 60.0
    record(2, ok, f"{triples} d-separation triples on 200 graphs, "
                  f"{mismatches} mismatches, {elapsed:.1f}s")


def test_criterion_3_noise_independence():
    """100 generated models up to 5 nodes: noise ⫫ non-descendants, exhaustively."""
    t0 = time.time()
    rng = random.Random(3)
    cases = 0
    fails = 0
    for i in range(100):
        m = generate_scm(
            GeneratorConfig(nodes=rng.randint(2, 5), profile="base"), seed=i
        )
        for case in check_noise_independence(m, Assumptions(m).noise_oracle()):
            cases += 1
            if case.verdict is not Verdict.PASS:
                fails += 1
    elapsed = time.time() - t0
    ok = fails == 0 and elapsed < 60.0
    record(3, ok, f"{cases} noise-independence cases on 100 models, "
                  f"{fails} failures, {elapsed:.1f}s")


def test_criterion_4_entropy_bounds():
    """100 models per strict profile: every applicable bound holds at 1e-9."""
    t0 = time.time()
    rng = random.Random(4)
    fails = 0
    asserted_strict = {"plus_one": 0, "sir_faithful": 0}
    want_kind = {"plus_one": BoundKind.ABOVE_NOISE,
                 "sir_faithful": BoundKind.BELOW_NOISE}
    total = 0
    for profile in ("plus_one", "sir_faithful"):
        for i in range(100):
            m = generate_scm(
                GeneratorConfig(nodes=rng.randint(2, 5), edge_prob=0.4,
                                profile=profile),
                seed=i,
            )
            orc = EntropyOracle(joint_distribution(m))
            for case in check_entropy_bounds(m, orc):
                total += 1
                if case.verdict is Verdict.FAIL:
                    fails += 1
                if (case.kind is want_kind[profile]
                        and case.verdict is Verdict.PASS):
                    asserted_strict[profile] += 1
    elapsed = time.time() - t0
    ok = (fails == 0
          and asserted_strict["plus_one"] > 0
          and asserted_strict["sir_faithful"] > 0
          and elapsed < 60.0)
    record(4, ok, f"{total} bound cases on 200 models, {fails} failures, "
                  f"{asserted_strict['plus_one']} above-noise and "
                  f"{asserted_strict['sir_faithful']} below-noise strict cases "
                  f"asserted, {elapsed:.1f}s")


def test_criterion_5_discovery_recovers_layerings(discovery_runs):
    """600 generated models, licensed algorithm/mode pairs, replay-verified."""
    bad = []
    for name, m, algo, mode_name, result in discovery_runs["runs"]:
        removal = "sources" if algo == "sour" else "sinks"
        check = check_discovery_result(m.graph, result, removal)
        if not check.ok:
            bad.append((name, algo, mode_name, check.reason))
    elapsed = discovery_runs["elapsed"]
    count = len(discovery_runs["runs"])
    ok = not bad and elapsed < 120.0
    detail = f"{count} discovery runs replay-verified in {elapsed:.1f}s"
    if bad:
        detail += f"; first failure {bad[0]}"
    record(5, ok, detail)


def test_criterion_6_known_mode_selects_exactly(discovery_runs):
    """In known mode the qualifying set equals the residual source/sink set."""
    checked = 0
    bad = []
    for name, m, algo, mode_name, result in discovery_runs["runs"]:
        if mode_name != "known":
            continue
        removal = "sources" if algo == "sour" else "sinks"
        check = check_discovery_result(
            m.graph, result, removal, expect_exact_selection=True
        )
        checked += 1
        if not check.ok:
            bad.append((name, algo, check.reason))
    ok = not bad and checked > 0
    detail = f"{checked} known-mode runs selected the exact residual sets"
    if bad:
        detail += f"; first failure {bad[0]}"
    record(6, ok, detail)


def test_criterion_7_call_budget(discovery_runs):
    """Never more than n(n+1)/2 oracle calls; n calls on an edgeless graph."""
    over = [
        (name, algo, mode_name, result.oracle_calls)
        for name, m, algo, mode_name, result in discovery_runs["runs"]
        if not check_call_bound(result, len(m.graph.nodes))
    ]
    # an edgeless graph resolves in one round: exactly n measurements
    from causal_layering.graph import Dag

    g = Dag.of("ABCDEF")
    m = xor_model(g, {v: Pmf.bernoulli(Fraction(1, 2)) for v in range(6)})
    known = KnownNoiseEntropy({v: noise_entropy(m, v) for v in range(6)})
    orc = EntropyOracle(joint_distribution(m))
    flat_sour = sour_discover(m.graph.nodes, orc, known)
    flat_sir = sir_discover(m.graph.nodes, orc, known)
    flat_ok = flat_sour.oracle_calls == 6 and flat_sir.oracle_calls == 6
    ok = not over and flat_ok
    detail = (f"{len(discovery_runs['runs'])} runs within the n(n+1)/2 budget; "
              f"edgeless 6-node graph used exactly 6 calls")
    if over:
        detail += f"; first overrun {over[0]}"
    record(7, ok, detail)


def test_criterion_8_reference_chains(affine_chain, xor_chain):
    """Both 3-node chains resolve to ({A},{B},{C}) in every licensed mode,
    and oracle answers match forward simulation within 1e-9."""
    singles = (frozenset({0}), frozenset({1}), frozenset({2}))
    ok = True
    notes = []

    # affine chain: all four algorithm/mode pairs are licensed
    for algo in ("sour", "sir"):
        for mode_name in ("known", "monotone"):
            result = run_discovery(affine_chain, algo, mode_name)
            if result.layering.layers != singles:
                ok = False
                notes.append(f"affine {algo}/{mode_name} gave {result.layering.layers}")

    # xor chain: monotone sink peeling is licensed by the strict entropy order
    result = run_discovery(xor_chain, "sir", "monotone")
    if result.layering.layers != singles:
        ok = False
        notes.append(f"xor sir/monotone gave {result.layering.layers}")

    # oracle agreement with the slow reference on every (target, given) pair
    worst = 0.0
    for m in (affine_chain, xor_chain):
        orc = EntropyOracle(joint_distribution(m))
        slow = joint_probs(m)
        nodes = sorted(m.graph.nodes)
        for v in nodes:
            rest = [u for u in nodes if u != v]
            for mask in range(1 << len(rest)):
                ss = tuple(u for k, u in enumerate(rest) if mask >> k & 1)
                gap = abs(
                    orc.cond_entropy({v}, ss) - bf_cond_entropy(slow, (v,), ss)
                )
                worst = max(worst, gap)
    if worst > TOL:
        ok = False
        notes.append(f"oracle mismatch {worst:.2e}")

    detail = ("both chains resolved to ({A},{B},{C}) in licensed modes; "
              f"worst oracle gap {worst:.1e}")
    if notes:
        detail += "; " + "; ".join(notes)
    record(8, ok, detail)


def test_criterion_9_xor_violations_detected(tmp_path, xor_chain, capsys):
    """Parity models are flagged: the plus-one check fails with a witness and
    the CLI refuses unlicensed source peeling with exit code 2."""
    rng = random.Random(9)
    flagged = 0
    total = 0
    for i in range(20):
        g = random_dag(rng, rng.randint(2, 5), 0.6)
        if not g.edges:
            continue
        m = xor_model(
            g, {v: Pmf.bernoulli(Fraction(1, rng.choice((2, 4, 8)))) for v in g.nodes}
        )
        total += 1
        report = check_injective_noise_plus_one(m)
        if not report.holds and report.witnesses:
            flagged += 1
    scm_path = tmp_path / "xor.json"
    scm_path.write_text(scm_to_text(xor_chain))
    codes = []
    for mode_name in ("known", "monotone"):
        code = cli_main(["discover", "--scm", str(scm_path),
                         "--algo", "sour", "--mode", mode_name])
        err = capsys.readouterr().err
        codes.append(code if "injective_noise_plus_one" in err else -1)
    gate_ok = codes == [2, 2]
    ok = flagged == total and total >= 10 and gate_ok
    record(9, ok, f"{flagged}/{total} parity models witnessed against "
                  f"single-parent injectivity; CLI refusal exit codes {codes}")
