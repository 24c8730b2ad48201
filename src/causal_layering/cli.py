"""Command line front end: generate, discover, check.

Exit codes: 0 success, 1 usage or file errors, 2 a required assumption is
violated (or discovery aborts on one), 3 a verification suite failed.
Running an unlicensed algorithm/model combination requires ``--unsafe``
and marks the output as carrying no correctness guarantee.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys
from pathlib import Path

from . import scm as _scm
from . import verify as _verify
from .discovery import (
    LICENSES,
    AssumptionViolation,
    KnownNoiseEntropy,
    MonotoneEntropy,
    license_failures,
    licensed_pairs,
    render_discovery_report,
    sir_discover,
    sour_discover,
)
from .oracle import (
    EnumerationBudgetError,
    joint_distribution,  # noqa: F401  perfbench/test_perfbench.py traces this binding
)
from .scm import (
    VALIDATORS,
    Assumptions,
    GenerationError,
    GeneratorConfig,
    check_faithfulness,  # noqa: F401  perfbench/test_perfbench.py traces this binding
    generate_scm,
    noise_entropy,
    parse_scm,
    scm_to_text,
)

BUDGET_ENV = "CAUSAL_LAYERING_BUDGET"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to exit code 2
        raise _UsageError(message)


@functools.cache  # parse_args leaves the parser as it found it
def _build_parser() -> _Parser:
    parser = _Parser(prog="causal-layering", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an SCM file plus assumption report")
    gen.add_argument("--nodes", type=int, required=True)
    gen.add_argument("--edge-prob", type=float, default=0.35)
    gen.add_argument("--profile", choices=_scm.PROFILES, default="base")
    gen.add_argument("--entropy", choices=_scm.ENTROPY_MODES, default="known")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--noise-support", type=int, nargs=2, default=(2, 3),
                     metavar=("MIN", "MAX"))
    gen.add_argument("--alphabet", type=int, nargs=2, default=(2, 4),
                     metavar=("MIN", "MAX"))
    gen.add_argument("--retries", type=int, default=60)
    gen.add_argument("--out", type=Path, required=True)
    gen.add_argument("--report", type=Path, default=None,
                     help="sidecar report path (default: OUT.report.txt)")
    gen.add_argument("--machine", action="store_true")

    disc = sub.add_parser("discover", help="run layering discovery on an SCM file")
    disc.add_argument("--scm", type=Path, required=True)
    disc.add_argument("--algo", choices=("sour", "sir"), required=True)
    disc.add_argument("--mode", choices=("known", "monotone"), required=True)
    disc.add_argument("--budget", type=int, default=None,
                      help=f"noise enumeration budget (default from ${BUDGET_ENV})")
    disc.add_argument("--one-at-a-time", action="store_true")
    disc.add_argument("--unsafe", action="store_true",
                      help="run even when the required assumptions fail")
    disc.add_argument("--machine", action="store_true")
    disc.add_argument("--out", type=Path, default=None)

    chk = sub.add_parser("check", help="verify oracle bounds and discovery on an SCM file")
    chk.add_argument("--scm", type=Path, required=True)
    chk.add_argument("--budget", type=int, default=None)
    chk.add_argument("--seed", type=int, default=0, help="accepted and ignored")
    chk.add_argument("--machine", action="store_true")

    return parser


def _enumeration_budget(args) -> int | None:
    if getattr(args, "budget", None) is not None:
        return args.budget
    raw = os.environ.get(BUDGET_ENV)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise _UsageError(f"${BUDGET_ENV} must be an integer, got {raw!r}") from None


def _emit(text: str, out: Path | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_text(text)


def _load_scm(path: Path) -> _scm.Scm:
    return parse_scm(path.read_text())


def _report_line(report: _scm.AssumptionReport) -> str:
    status = "holds" if report.holds else "fails"
    line = f"{report.assumption}: {status}"
    if report.detail:
        line += f" ({report.detail})"
    if report.witnesses:
        line += f"; witness {report.witnesses[0]}"
        if len(report.witnesses) > 1:
            line += f" and {len(report.witnesses) - 1} more"
    return line


def _layering_text(layering, labels) -> str:
    """Layers joined by ``;``, each layer's sorted labels joined by ``,``."""
    return ";".join(",".join(sorted(labels[v] for v in layer)) for layer in layering)


def _cmd_gen(args) -> int:
    cfg = GeneratorConfig(
        nodes=args.nodes,
        edge_prob=args.edge_prob,
        noise_support_sizes=tuple(args.noise_support),
        alphabet_sizes=tuple(args.alphabet),
        profile=args.profile,
        entropy_mode=args.entropy,
        max_retries=args.retries,
    )
    budget = _enumeration_budget(args)  # gen has no --budget flag: the variable only
    if budget is not None:
        cfg = dataclasses.replace(cfg, enumeration_budget=budget)
    report_path = args.report or args.out.with_name(args.out.name + ".report.txt")
    if os.path.realpath(report_path) == os.path.realpath(args.out):  # one file for both
        raise _UsageError(f"--report names the model file {args.out}")
    try:
        model = generate_scm(cfg, args.seed)
    except GenerationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    args.out.write_text(scm_to_text(model))

    # reuses the generator's reports; lists directed faithfulness only where guaranteed
    meta = model.meta
    audit = Assumptions(model, reports=meta.reports)
    lines = [
        f"profile: {meta.profile}",
        f"entropy_mode: {meta.entropy_mode}",
        f"seed: {meta.seed}",
        f"attempts: {meta.attempts}",
        f"faithfulness_scope: {audit.report('faithfulness').detail}",
    ]
    lines += [
        _report_line(audit.report(name))
        for name in VALIDATORS
        if name != "directed_faithfulness" or args.profile == "sir_faithful"
    ]
    report_path.write_text("\n".join(lines) + "\n")

    if args.machine:
        print(f"scm={args.out}")
        print(f"report={report_path}")
    else:
        print(f"wrote {args.out} and {report_path}")
    return 0


def _run_pair(model, orc, algo, mode_name, one_at_a_time=False):
    if mode_name == "known":
        mode = KnownNoiseEntropy({v: noise_entropy(model, v) for v in model.graph.nodes})
    else:
        mode = MonotoneEntropy()
    run = sour_discover if algo == "sour" else sir_discover
    return run(model.graph.nodes, orc, mode, one_at_a_time=one_at_a_time)


def _cmd_discover(args) -> int:
    model = _load_scm(args.scm)
    budget = _enumeration_budget(args)
    audit = Assumptions(model, budget)
    guarantee = "validated"
    failing = license_failures(args.algo, args.mode, audit.holds)
    if failing:
        if not args.unsafe:
            rule = " or ".join(
                " + ".join(names) for names in LICENSES[(args.algo, args.mode)]
            )
            print(f"refusing to run: {args.algo}/{args.mode} needs {rule}", file=sys.stderr)
            for name in failing:
                print(f"  {_report_line(audit.report(name))}", file=sys.stderr)
            print("re-run with --unsafe to proceed anyway", file=sys.stderr)
            return 2
        guarantee = "none"

    try:
        result = _run_pair(model, audit.oracle(), args.algo, args.mode, args.one_at_a_time)
    except AssumptionViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    labels = {v: model.label(v) for v in model.graph.nodes}
    if args.machine:
        lines = [
            f"algo={args.algo}",
            f"mode={args.mode}",
            f"layering={_layering_text(result.layering, labels)}",
            f"oracle_calls={result.oracle_calls}",
            f"guarantee={guarantee}",
        ]
        text = "\n".join(lines) + "\n"
    else:
        text = render_discovery_report(result, labels)
        if guarantee == "none":
            text += "warning: assumptions unchecked, no correctness guarantee\n"
    _emit(text, args.out)
    return 0


def _cmd_check(args) -> int:
    model = _load_scm(args.scm)
    budget = _enumeration_budget(args)
    audit = Assumptions(model, budget)
    noisy = audit.noise_oracle()  # the command's one enumeration, with noise columns
    orc = audit.oracle()  # its observed marginal, shared below
    labels = {v: model.label(v) for v in model.graph.nodes}
    n = len(model.graph.nodes)
    failed = False
    out: list[str] = []

    bound_cases = _verify.check_entropy_bounds(model, orc, assumptions=audit)
    out.append("== entropy bounds ==")
    out.append(_verify.render_bound_report(bound_cases, labels).rstrip("\n"))
    failed |= any(c.verdict is _verify.Verdict.FAIL for c in bound_cases)

    indep_cases = _verify.check_noise_independence(model, noisy)
    out.append("== noise independence ==")
    out.append(_verify.render_independence_report(indep_cases, labels).rstrip("\n"))
    failed |= any(c.verdict is _verify.Verdict.FAIL for c in indep_cases)

    out.append("== discovery ==")
    pairs = licensed_pairs(audit.holds)
    if not pairs:
        out.append("no licensed algorithm/mode combination; discovery skipped")
    for algo, mode_name in pairs:
        try:
            result = _run_pair(model, orc, algo, mode_name)
        except AssumptionViolation as exc:
            out.append(f"discovery {algo}/{mode_name}: FAIL ({exc})")
            failed = True
            continue
        replay = _verify.check_discovery_result(model.graph, result)
        calls_ok = _verify.check_call_bound(result, n)
        ok = replay.ok and calls_ok
        failed |= not ok
        layering = _layering_text(result.layering, labels)
        detail = "" if replay.ok else f" ({replay.reason})"
        if not calls_ok:
            detail += f" (oracle calls {result.oracle_calls} over bound)"
        out.append(
            f"discovery {algo}/{mode_name}: layering {layering} "
            f"calls {result.oracle_calls} {'PASS' if ok else 'FAIL'}{detail}"
        )

    verdict = "FAIL" if failed else "PASS"
    out.append(f"overall: {verdict}")
    if args.machine:
        print(f"overall={verdict.lower()}")
    else:
        print("\n".join(out))
    return 3 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)

    try:
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "discover":
            return _cmd_discover(args)
        return _cmd_check(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except EnumerationBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
