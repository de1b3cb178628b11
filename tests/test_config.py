"""Configuration boundary: settings come from arguments, never the environment.

Every engine, store and serving setting is chosen by a function or
constructor argument, a spec field or a CLI flag, each with a constant
default, so a stray ``REPRO_*`` variable cannot change what a seeded
run computes.  The one environment read left in the package is the
benchmark staging directory of :mod:`repro.analysis.reporting`, which
only decides where a report is copied.  This test scans the source with
:mod:`ast`, so a new ``os.environ`` or ``os.getenv`` read fails here.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Modules allowed to read the environment, relative to the package.
ALLOWED = {Path("analysis/reporting.py")}


def _environment_reads(tree: ast.AST) -> "list[int]":
    """Line numbers of every ``os.environ`` / ``os.getenv`` use, also
    through ``from os import environ, getenv``."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in {"environ", "getenv"}:
            if isinstance(node.value, ast.Name) and node.value.id == "os":
                lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            if any(alias.name in {"environ", "getenv"} for alias in node.names):
                lines.append(node.lineno)
    return lines


def test_only_reporting_reads_the_environment():
    offenders = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        relative = path.relative_to(PACKAGE)
        if relative in ALLOWED:
            continue
        lines = _environment_reads(ast.parse(path.read_text(), str(path)))
        if lines:
            offenders[str(relative)] = lines
    assert offenders == {}


def test_scan_sees_the_allowed_read():
    """The scan would catch a read: it finds the one in reporting.py."""
    source = (PACKAGE / "analysis" / "reporting.py").read_text()
    assert _environment_reads(ast.parse(source))
