"""Regenerate the benchmark corpus and its manifest, byte for byte.

    python3 perfbench/make_corpus.py          # rewrite perfbench/corpus/
    python3 perfbench/make_corpus.py --check  # regenerate elsewhere and compare

Every ``check`` model is written by ``causal-layering gen`` with the flags
and seed recorded in the manifest, next to its sha256, its ``check``
verdict at the default ``--seed``, and the layering and oracle-call count
that ``check`` reports for each licensed (algo, mode) pair. For the ``gen`` pool the manifest records
the sha256 of each model and sidecar report. It records no timings, so
regenerating it on any machine gives the same bytes. Takes about 20 s.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from causal_layering.cli import main as cli_main  # noqa: E402
from causal_layering.oracle import joint_distribution  # noqa: E402
from causal_layering.scm import parse_scm  # noqa: E402
from workloads import discovery_results, sha256  # noqa: E402

FLAGS = ["--edge-prob", "0.3", "--retries", "400"]

# (profile, entropy, nodes, seed): n=6-7, where one check costs 0.05-0.4 s;
# the seeds are the first ones tried.
CHECK = (
    ("sir_faithful", "weak", 6, 10), ("sir_faithful", "weak", 6, 11),
    ("sir_faithful", "weak", 6, 12), ("sir_faithful", "weak", 7, 10),
    ("base", "strict", 6, 10), ("base", "strict", 6, 11),
    ("base", "strict", 6, 12), ("base", "strict", 7, 10),
    ("plus_one", "weak", 6, 10), ("plus_one", "weak", 6, 11),
    ("plus_one", "weak", 6, 12), ("plus_one", "weak", 7, 0),
)
# The gen pool is the first GEN_PER_PROFILE models of each battery of
# tests/test_acceptance.py::model_battery (node counts from
# random.Random(2024), seed = index).
GEN_PROFILES = (("plus_one", "weak", 6), ("sir_faithful", "weak", 7), ("base", "strict", 7))
GEN_PER_PROFILE = 20


def run_cli(argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue()


def gen(profile, entropy, nodes, seed, out: Path) -> None:
    argv = ["gen", "--nodes", str(nodes), *FLAGS, "--profile", profile,
            "--entropy", entropy, "--seed", str(seed), "--out", str(out)]
    code, _ = run_cli(argv)
    if code != 0:
        raise SystemExit(f"gen failed ({code}): {' '.join(argv)}")


def model_entry(profile, entropy, nodes, seed, corpus: Path) -> dict:
    name = f"{profile}_{entropy}_n{nodes}_s{seed}.json"
    path = corpus / name
    gen(profile, entropy, nodes, seed, path)
    path.with_name(name + ".report.txt").unlink()
    m = parse_scm(path.read_text())
    return {
        "file": name, "profile": profile, "entropy": entropy, "nodes": nodes,
        "flags": ["--nodes", str(nodes), *FLAGS, "--profile", profile, "--entropy", entropy],
        "seed": seed, "sha256": sha256(path.read_bytes()),
        "table_entries": len(joint_distribution(m)),
    }


def build(corpus: Path) -> None:
    corpus.mkdir(parents=True, exist_ok=True)
    manifest = {"check": [], "gen": {"flags": FLAGS, "pool": []}}
    for spec in CHECK:
        entry = model_entry(*spec, corpus)
        code, out = run_cli(["check", "--scm", str(corpus / entry["file"])])
        entry["verdict"] = out.rstrip("\n").rsplit("\n", 1)[-1].split(": ", 1)[1].lower()
        entry["pairs"] = discovery_results(out)
        manifest["check"].append(entry)
        print(f"check {entry['file']}: {entry['verdict']} {sorted(entry['pairs'])}", flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        for profile, entropy, nmax in GEN_PROFILES:
            rng = random.Random(2024)
            for seed in range(GEN_PER_PROFILE):
                nodes = rng.randint(2, nmax)
                out = Path(tmp) / f"{profile}_{seed}.json"
                gen(profile, entropy, nodes, seed, out)
                report = out.with_name(out.name + ".report.txt")
                manifest["gen"]["pool"].append({
                    "profile": profile, "entropy": entropy, "nodes": nodes, "seed": seed,
                    "model_sha256": sha256(out.read_bytes()),
                    "report_sha256": sha256(report.read_bytes()),
                })
    (corpus / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--check", action="store_true",
                   help="regenerate into a temporary directory and compare with the corpus")
    args = p.parse_args(argv)
    corpus = HERE / "corpus"
    if not args.check:
        build(corpus)
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        build(Path(tmp))
        fresh = sorted(p.name for p in Path(tmp).iterdir())
        kept = sorted(p.name for p in corpus.iterdir())
        if fresh != kept:
            print(f"file lists differ: {sorted(set(fresh) ^ set(kept))}")
            return 1
        diff = [n for n in fresh if (Path(tmp) / n).read_bytes() != (corpus / n).read_bytes()]
        if diff:
            print(f"regenerated files differ: {diff}")
            return 1
    print(f"all {len(fresh)} corpus files regenerate byte for byte")
    return 0


if __name__ == "__main__":
    sys.exit(main())
