"""Docstring coverage enforcement for the documented-surface modules.

CI additionally runs ``ruff check --select D1`` over these files; this
AST-based check enforces the same "no missing docstrings" rule without
needing ruff installed, so the tier-1 suite catches regressions too.
Scope (the docs pass, extended by the orchestration layer, the
simulation replay kernels, the batched core, the trace store and the
serving layer): ``repro.core.indexed``,
``repro.core.batched``, ``repro.core.greedy``, every module of ``repro.instances``,
``repro.config``, every module of ``repro.experiments``,
``repro.core.allocate``, ``repro.sim.indexed``, ``repro.sim.kernel``,
``repro.sim.store``, every module of ``repro.serve`` and
``repro.util.atomic``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

CHECKED_FILES = sorted(
    [
        SRC / "core" / "indexed.py",
        SRC / "core" / "batched.py",
        SRC / "core" / "greedy.py",
        SRC / "core" / "allocate.py",
        SRC / "config.py",
        SRC / "sim" / "indexed.py",
        SRC / "sim" / "kernel.py",
        SRC / "sim" / "store.py",
        SRC / "util" / "atomic.py",
        *(SRC / "instances").glob("*.py"),
        *(SRC / "experiments").rglob("*.py"),
        *(SRC / "serve").glob("*.py"),
    ]
)


def _missing_docstrings(tree: ast.Module) -> "list[str]":
    """Public module/class/function/method defs lacking a docstring.

    Nested (function-local) defs are exempt, as are names with a
    leading underscore and dunders other than the module itself.
    """
    missing = []
    if not ast.get_docstring(tree):
        missing.append("<module>")

    def walk(node: ast.AST, inside_function: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not inside_function and not child.name.startswith("_"):
                    if not ast.get_docstring(child):
                        missing.append(f"{child.name}:{child.lineno}")
                walk(child, True)
            elif isinstance(child, ast.ClassDef):
                if not child.name.startswith("_") and not ast.get_docstring(child):
                    missing.append(f"{child.name}:{child.lineno}")
                walk(child, inside_function)
            else:
                walk(child, inside_function)

    walk(tree, False)
    return missing


@pytest.mark.parametrize(
    "path", CHECKED_FILES, ids=lambda p: str(p.relative_to(SRC))
)
def test_public_api_is_documented(path):
    tree = ast.parse(path.read_text())
    missing = _missing_docstrings(tree)
    assert not missing, (
        f"{path.name}: public definitions missing docstrings: {missing}"
    )
