"""Every top-level function and class in ``src/``, and every method and
property of those classes, is reachable from ``src/``.

A name passes when some code of the package refers to it (an import, a
call, an attribute access or a base class), or when
``causal_layering.__all__`` re-exports it. Dunders, and methods that
override a base class's (such as ``argparse.ArgumentParser.error``), are
called by the runtime and pass too. A helper that only tests or the README
call belongs in ``tests/bruteforce.py``.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import causal_layering

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def package_trees() -> dict[str, ast.Module]:
    package = Path(causal_layering.__file__).parent
    return {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(package.glob("*.py"))}


def used_names(trees: dict[str, ast.Module]) -> set[str]:
    used = set(causal_layering.__all__)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return used


def test_every_top_level_definition_is_reached_from_the_package():
    trees = package_trees()
    used = used_names(trees)
    unreached = [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)) and node.name not in used
    ]
    assert unreached == []


def test_every_method_and_property_is_reached_from_the_package():
    trees = package_trees()
    used = used_names(trees)
    unreached = []
    for module, tree in trees.items():
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            runtime = getattr(importlib.import_module(f"causal_layering.{module}"), cls.name)
            inherited = {name for base in runtime.__mro__[1:] for name in vars(base)}
            unreached += [
                f"{module}.{cls.name}.{node.name}"
                for node in cls.body
                if isinstance(node, FUNCTIONS)
                and node.name not in used | inherited
                and not (node.name.startswith("__") and node.name.endswith("__"))
            ]
    assert unreached == []
