"""No module under ``src/repro`` imports a name it never uses.

A stdlib-only AST scan.  A name counts as used when it is read
anywhere in the module (string annotations included), or listed in
``__all__``.  Package ``__init__`` modules are skipped: their imports
are the package's re-exports.  Mark a deliberate side-effect import
with ``# noqa`` on its statement.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
MODULES = sorted(path for path in SRC.rglob("*.py")
                 if path.name != "__init__.py")


def _annotation_names(node):
    """Names read by string annotations inside *node*."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval")
        except SyntaxError:
            return set()
    return {sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)}


def _used_names(tree):
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for annotation in filter(None, annotations):
            for sub in ast.walk(annotation):
                used |= _annotation_names(sub)
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            used |= {element.value for element in ast.walk(node.value)
                     if isinstance(element, ast.Constant)}
    return used


def unused_imports(path):
    """``(line, name)`` for every import of *path* nothing reads."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    used = _used_names(tree)
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        statement = lines[node.lineno - 1:node.end_lineno]
        if any("# noqa" in line for line in statement):
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name != "*" and name not in used:
                unused.append((node.lineno, name))
    return unused


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_the_scan_finds_an_unused_import(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "import sys  # noqa: F401 - side effect\n"
        "from typing import Dict, List, Optional\n"
        "__all__ = ['Optional']\n"
        "def f(x: 'List[int]') -> Dict:\n"
        "    return {}\n")
    assert unused_imports(module) == [(2, "os")]
