"""Every ``ktsim`` module uses each name it imports, and every private
module-level name is used somewhere in the package.

No linter ships with the project, so these checks stand in for one. They read
each module with ``ast``. The first (``__init__.py`` excepted: its imports are
the package's public names) looks for a use of every name an import binds. The
second looks, in every module, for a use of each name with one leading
underscore that a module defines at its top level: a read of the name or an
import of it. A quoted annotation counts as a use of the names inside it.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ktsim"
MODULES = sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line of its import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _annotations(tree: ast.AST) -> list[ast.expr]:
    """Every annotation of an argument, a return value or an assignment."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            found.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            found.append(node.returns)
    return found


def _used(tree: ast.AST) -> set[str]:
    """Every name the module reads, including those inside quoted annotations."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _used(ast.parse(node.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text())
    used = _used(tree)
    unused = {name: line for name, line in _imported(tree).items() if name not in used}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_the_check_sees_an_unused_import():
    source = '''
from dataclasses import dataclass, fields
from typing import Optional
import numpy as np


@dataclass
class A:
    """fields"""

    x: Optional["np.ndarray"]
'''
    tree = ast.parse(source)
    assert set(_imported(tree)) - _used(tree) == {"fields"}


def _private(tree: ast.Module) -> dict[str, int]:
    """Each name with one leading underscore that the module defines at its
    top level, with the line of its definition."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store):
                        names[name.id] = node.lineno
    return {name: line for name, line in names.items() if name.startswith("_") and not name.startswith("__")}


def _dead(trees: dict[str, ast.Module]) -> dict[str, int]:
    """Private top-level names, as ``module:name``, that no module uses."""
    used = set()
    for tree in trees.values():
        used |= _used(tree) | set(_imported(tree))
    return {
        f"{module}:{name}": line
        for module, tree in trees.items()
        for name, line in _private(tree).items()
        if name not in used
    }


def test_every_private_module_name_is_used():
    dead = _dead({path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))})
    assert not dead, f"private names defined but never used: {dead}"


def test_the_check_sees_a_dead_private_name():
    trees = {
        "a.py": ast.parse("_KEPT = 1\n_dead = 2\n\ndef _helper():\n    return _KEPT\n"),
        "b.py": ast.parse("from .a import _helper\n\nclass _Unused:\n    pass\n"),
    }
    assert set(_dead(trees)) == {"a.py:_dead", "b.py:_Unused"}
