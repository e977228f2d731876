"""Every ``ktsim`` module uses each name it imports.

No linter ships with the project, so this check stands in for one. It reads
each module (``__init__.py`` excepted: its imports are the package's public
names) with ``ast`` and looks for a use of every name an import binds. A
quoted annotation counts as a use of the names inside it.
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
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
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
