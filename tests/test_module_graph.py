"""The package's import graph: only the CLI and the package root load ``verify``.

The sweep path shares the stack budget ``channels.BLOCK_CELLS`` with
``verify`` but loads no verification code; this keeps the budget from
drifting back into ``verify``.
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
