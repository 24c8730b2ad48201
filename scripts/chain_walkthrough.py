"""Walk the three-node affine chain through the full pipeline.

Prints the ground-truth model, the exact joint distribution, each peeling
round with its oracle measurements, and the replayed verification verdicts.
Run with:  python3 scripts/chain_walkthrough.py
"""

from causal_layering import (
    EntropyOracle,
    KnownNoiseEntropy,
    MonotoneEntropy,
    check_call_bound,
    check_discovery_result,
    check_entropy_bounds,
    joint_distribution,
    noise_entropy,
    render_bound_report,
    render_dag,
    render_discovery_report,
    render_joint_table,
    sir_discover,
    sour_discover,
)
from causal_layering.presets import affine_chain3


def main() -> None:
    m = affine_chain3()
    g = m.graph
    labels = g.labels

    print("ground truth")
    print("------------")
    print(render_dag(g))
    for v in g.nodes:
        print(f"H(N_{labels[v]}) = {noise_entropy(m, v):.9f} bits")
    print()

    table = joint_distribution(m)
    print("joint distribution (exact)")
    print("--------------------------")
    print(render_joint_table(table))
    print()

    oracle = EntropyOracle(table)
    known = KnownNoiseEntropy({v: noise_entropy(m, v) for v in g.nodes})

    for name, run, mode in (
        ("source peeling, known noise entropies", sour_discover, known),
        ("sink peeling, monotone comparison", sir_discover, MonotoneEntropy()),
    ):
        result = run(g.nodes, oracle, mode)
        print(name)
        print("-" * len(name))
        print(render_discovery_report(result, labels))
        check = check_discovery_result(g, result)
        budget_ok = check_call_bound(result, len(g.nodes))
        print(f"replay check: {'ok' if check.ok else check.reason}")
        print(f"call budget:  {'within n(n+1)/2' if budget_ok else 'EXCEEDED'}")
        print()

    print("entropy bound audit")
    print("-------------------")
    print(render_bound_report(check_entropy_bounds(m, oracle), labels))


if __name__ == "__main__":
    main()
