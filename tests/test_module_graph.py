"""The package's import and call graph.

Only the CLI and the package root load ``verify``: the sweep path shares the
stack budget ``channels.BLOCK_CELLS`` with ``verify`` but loads no
verification code; this keeps the budget from drifting back into ``verify``.

Only ``SweepSpec.__post_init__`` and the CLI read a flag's value
(``sweep._convert``), so each value is read once, by the type that owns it.
"""

from __future__ import annotations

import ast
from pathlib import Path

import unruhkit

PACKAGE = Path(unruhkit.__file__).parent


def _imported(tree: ast.Module):
    """Every module the imports of ``tree`` name, a relative one as ``.name``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            yield base
            yield from (f"{base}.{alias.name}" if node.module else base + alias.name for alias in node.names)


def test_only_cli_and_the_package_root_import_verify():
    importers = {
        path.stem
        for path in PACKAGE.glob("*.py")
        if {".verify", "unruhkit.verify"} & set(_imported(ast.parse(path.read_text(encoding="utf-8"))))
    }
    # cli runs the verify command, so the scan sees at least that import.
    assert "cli" in importers
    assert importers <= {"cli", "__init__"}, importers


def _callers(node: ast.AST, name: str, scope: tuple[str, ...] = ()):
    """The dotted scope (class and function names) of every call of ``name`` under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            func = child.func
            if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == name:
                yield ".".join(scope)
        named = isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        yield from _callers(child, name, (*scope, child.name) if named else scope)


def test_only_the_spec_and_the_cli_read_flag_values():
    callers = {
        (path.stem, scope)
        for path in PACKAGE.glob("*.py")
        for scope in _callers(ast.parse(path.read_text(encoding="utf-8")), "_convert")
    }
    assert ("sweep", "SweepSpec.__post_init__") in callers
    assert {module for module, scope in callers - {("sweep", "SweepSpec.__post_init__")}} <= {"cli"}, callers
