"""Rules on the package source itself.

Invariants are real errors: ``python -O`` strips ``assert`` statements, so
the package may not use them to check anything.  Immutability comes only
from ``@dataclass(frozen=True)``, never from hand-written attribute hooks.
"""

from __future__ import annotations

import ast
from pathlib import Path

import wildsat

SOURCES = sorted(Path(wildsat.__file__).parent.glob("*.py"))


def _nodes():
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            yield path, node


def test_no_assert_statements():
    assert any(p.name == "engine.py" for p in SOURCES)  # the scan is not empty
    found = [f"{path.name}:{node.lineno}" for path, node in _nodes() if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package: {', '.join(found)}"


def test_no_hand_written_setattr():
    assert any(p.name == "rows.py" for p in SOURCES)  # the scan is not empty
    found = [
        f"{path.name}:{fn.lineno} {node.name}.{fn.name}"
        for path, node in _nodes()
        if isinstance(node, ast.ClassDef)
        for fn in node.body
        if isinstance(fn, ast.FunctionDef) and fn.name in ("__setattr__", "__delattr__")
    ]
    assert not found, f"hand-written attribute hooks (use a frozen dataclass): {', '.join(found)}"
