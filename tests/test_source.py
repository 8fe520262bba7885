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
