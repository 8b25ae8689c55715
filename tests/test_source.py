"""Checks on the library's source text."""

from __future__ import annotations

import ast
import importlib
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


def test_no_unused_imports():
    """Every name a module imports at its top level is used in that module."""
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{n} {name}" for name, n in imported.items() if name not in used]
    assert unused == []


def test_traced_functions_resolve():
    """perfbench's tracer patches its TRACED functions by name, so each must exist."""
    tracer = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    traced = next(
        ast.literal_eval(node.value)
        for node in ast.parse(tracer.read_text()).body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TRACED" for t in node.targets)
    )
    assert len(traced) >= 20
    missing = [
        f"{module}.{name}"
        for module, name in traced
        if not callable(getattr(importlib.import_module(f"quadforms.{module}"), name, None))
    ]
    assert missing == []


def test_exported_names_resolve():
    """Every name in a module's __all__ is defined, so a deleted export cannot linger as a string."""
    modules = [importlib.import_module(f"quadforms.{path.stem}") for path in sorted(PACKAGE.glob("[!_]*.py"))]
    exporting = [quadforms] + [m for m in modules if hasattr(m, "__all__")]
    assert {"quadforms", "quadforms.numtheory", "quadforms.forms"} <= {m.__name__ for m in exporting}
    missing = [f"{m.__name__}.{name}" for m in exporting for name in m.__all__ if not hasattr(m, name)]
    assert missing == []
