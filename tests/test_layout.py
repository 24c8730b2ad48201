"""Every top-level function and class in ``src/`` is reachable from ``src/``.

A name defined at module level passes when some code of the package refers
to it (an import, a call, an attribute access or a base class), or when
``causal_layering.__all__`` re-exports it. A helper that only tests or the
README call belongs in ``tests/bruteforce.py``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import causal_layering


def test_every_top_level_definition_is_reached_from_the_package():
    package = Path(causal_layering.__file__).parent
    trees = {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(package.glob("*.py"))}
    used = set(causal_layering.__all__)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    unreached = [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, kinds) and node.name not in used
    ]
    assert unreached == []
