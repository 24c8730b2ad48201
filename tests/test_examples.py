"""The README's library example and the scripts run against the package.

They import from the top-level package, so these runs catch a name that
``causal_layering.__all__`` no longer re-exports.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_python(args: list[str]) -> subprocess.CompletedProcess:
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120,
    )


def test_readme_library_example():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    proc = run_python(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("layer 1: A\nlayer 2: B\nlayer 3: C\n")


@pytest.mark.parametrize("argv, last_line", [
    (["scripts/chain_walkthrough.py"], "summary: 12 pass, 0 fail, 0 skip"),
    (["scripts/random_batch.py", "--models", "4"],
     "all layerings above were replayed against the ground-truth graph"),
])
def test_script_runs(argv, last_line):
    proc = run_python(argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.rstrip().splitlines()[-1] == last_line
