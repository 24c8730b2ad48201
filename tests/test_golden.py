"""Byte-identity of CLI output: the sha256 of stdout and the exit code of
``check`` and ``discover --unsafe`` on the benchmark corpus and both
reference chains, pinned in ``golden_cli.json``.

Any change to these digests is a change of what the CLI prints for a fixed
model and seed. To print the digests of the current tree (for a deliberate
output change, recorded as such)::

    PYTHONPATH=src:tests python tests/test_golden.py > tests/golden_cli.json
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from causal_layering.cli import main
from causal_layering.presets import affine_chain3, xor_chain3
from causal_layering.scm import scm_to_text

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "perfbench" / "corpus"
GOLDEN = Path(__file__).resolve().parent / "golden_cli.json"

PAIRS = (("sour", "known"), ("sour", "monotone"), ("sir", "known"), ("sir", "monotone"))


def models() -> dict[str, str]:
    """Model name -> model file text: the corpus, then the reference chains."""
    texts = {p.stem: p.read_text() for p in sorted(CORPUS.glob("*.json")) if p.stem != "manifest"}
    texts["affine_chain3"] = scm_to_text(affine_chain3())
    texts["xor_chain3"] = scm_to_text(xor_chain3())
    return texts


def commands() -> list[tuple[str, str, list[str]]]:
    """(id, model name, argv after ``--scm FILE``) for every pinned command."""
    out = []
    for name in models():
        for seed in (0, 3):
            out.append((f"check-seed{seed}-{name}", name, ["check", "--seed", str(seed)]))
        out.append((f"check-empirical500-{name}", name, ["check", "--empirical", "500"]))
        for algo, mode in PAIRS:
            argv = ["discover", "--algo", algo, "--mode", mode, "--unsafe"]
            out.append((f"discover-{algo}-{mode}-{name}", name, argv))
    return out


COMMANDS = commands()


def run(path: Path, argv: list[str]) -> tuple[int, str]:
    """Exit code and sha256 of stdout of one in-process CLI call."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main([argv[0], "--scm", str(path), *argv[1:]])
    return code, hashlib.sha256(stdout.getvalue().encode()).hexdigest()


@pytest.fixture(scope="module")
def model_files(tmp_path_factory) -> dict[str, Path]:
    base = tmp_path_factory.mktemp("golden")
    files = {}
    for name, text in models().items():
        files[name] = base / f"{name}.json"
        files[name].write_text(text)
    return files


@pytest.fixture(scope="module")
def golden() -> dict[str, dict]:
    return json.loads(GOLDEN.read_text())


def test_pins_every_command(golden):
    assert sorted(golden) == sorted(cid for cid, _, _ in COMMANDS)
    assert len(golden) == 14 * 7


@pytest.mark.parametrize("name", list(models()))
def test_seed_matters_only_with_empirical(golden, name):
    # the suites decide each bound on fixed extreme sets; --seed only seeds sampling
    assert golden[f"check-seed0-{name}"] == golden[f"check-seed3-{name}"]


@pytest.mark.parametrize("cid,name,argv", [pytest.param(*c, id=c[0]) for c in COMMANDS])
def test_output_is_pinned(model_files, golden, cid, name, argv):
    code, digest = run(model_files[name], argv)
    assert {"exit": code, "stdout_sha256": digest} == golden[cid]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for name, text in models().items():
            (Path(tmp) / f"{name}.json").write_text(text)
        digests = {}
        for cid, name, argv in COMMANDS:
            code, digest = run(Path(tmp) / f"{name}.json", argv)
            digests[cid] = {"exit": code, "stdout_sha256": digest}
    json.dump(digests, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
