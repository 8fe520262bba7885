"""Source-level checks on the package."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted(
    (Path(__file__).resolve().parent.parent / "src" / "quarticmoduli").glob("*.py")
)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_bare_assert(path):
    # `python -O` strips assert statements, so invariant checks must raise
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert statements at lines {lines}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_function_local_import(path):
    # imports belong at the top of the module, where readers look for them
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [
        node.lineno
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert not lines, f"{path.name}: imports inside functions at lines {lines}"
