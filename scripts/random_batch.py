"""Batch experiment over randomly generated ground-truth models.

For each generation profile this draws a batch of models, runs every
algorithm/mode pair the profile licenses, replays the traces against the
ground truth, and prints recovery rates plus oracle-call statistics.

Usage:  python3 scripts/random_batch.py [--models N] [--max-nodes N] [--seed S]
"""

import argparse
import random
import time
from dataclasses import dataclass, field

from causal_layering import (
    EntropyOracle,
    GeneratorConfig,
    KnownNoiseEntropy,
    MonotoneEntropy,
    check_call_bound,
    check_discovery_result,
    generate_scm,
    joint_distribution,
    noise_entropy,
    sir_discover,
    sour_discover,
)
from causal_layering.discovery import licensed_pairs
from causal_layering.scm import guaranteed_assumptions

ENTROPY_FOR = {"plus_one": "weak", "sir_faithful": "weak", "base": "strict"}


@dataclass
class Tally:
    runs: int = 0
    valid: int = 0
    calls: list = field(default_factory=list)
    budgets: list = field(default_factory=list)


def run_batch(profile: str, count: int, max_nodes: int, seed: int) -> dict:
    rng = random.Random(seed)
    guaranteed = set(guaranteed_assumptions(profile, ENTROPY_FOR[profile]))
    pairs = licensed_pairs(guaranteed.__contains__)
    tallies: dict = {}
    for i in range(count):
        cfg = GeneratorConfig(
            nodes=rng.randint(2, max_nodes),
            edge_prob=0.3,
            profile=profile,
            entropy_mode=ENTROPY_FOR[profile],
            max_retries=400,
        )
        m = generate_scm(cfg, seed=seed * 100_000 + i)
        oracle = EntropyOracle(joint_distribution(m))
        n = len(m.graph.nodes)
        for algo, mode_name in pairs:
            if mode_name == "known":
                mode = KnownNoiseEntropy(
                    {v: noise_entropy(m, v) for v in m.graph.nodes}
                )
            else:
                mode = MonotoneEntropy()
            run = sour_discover if algo == "sour" else sir_discover
            result = run(m.graph.nodes, oracle, mode)
            removal = "sources" if algo == "sour" else "sinks"
            check = check_discovery_result(
                m.graph, result, removal,
                expect_exact_selection=(mode_name == "known"),
            )
            key = f"{algo}/{mode_name}"
            t = tallies.setdefault(key, Tally())
            t.runs += 1
            t.valid += check.ok and check_call_bound(result, n)
            t.calls.append(result.oracle_calls)
            t.budgets.append(n * (n + 1) // 2)
    return tallies


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--models", type=int, default=60, help="models per profile")
    ap.add_argument("--max-nodes", type=int, default=6)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    for profile in ENTROPY_FOR:
        t0 = time.time()
        tallies = run_batch(profile, args.models, args.max_nodes, args.seed)
        dt = time.time() - t0
        print(f"profile {profile} ({args.models} models, {dt:.1f}s)")
        for key, t in sorted(tallies.items()):
            avg = sum(t.calls) / len(t.calls)
            cap = sum(t.budgets) / len(t.budgets)
            print(
                f"  {key:14s} {t.valid}/{t.runs} replay-verified, "
                f"mean calls {avg:.1f} (budget {cap:.1f})"
            )
    print("\nall layerings above were replayed against the ground-truth graph")


if __name__ == "__main__":
    main()
