"""Checks on the library's source text."""

from __future__ import annotations

import ast
from pathlib import Path

import quadforms

PACKAGE = Path(quadforms.__file__).resolve().parent


def test_no_assert_statements():
    """python -O strips assert, so invariant checks must be explicit raises."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert len(list(PACKAGE.glob("*.py"))) >= 8
    assert found == []
