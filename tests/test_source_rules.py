"""Rules on the package source itself.

Invariants are real errors: ``python -O`` strips ``assert`` statements, so
the package may not use them to check anything.  Immutability comes only
from ``@dataclass(frozen=True)``, never from hand-written attribute hooks.
The engine dispatches on no filter class: it reads a filter's attributes.
The engine imports no name it never uses, save the ones the benchmark's
trace probes wrap on it, which its "unused here but stay" comment lists.
"""

from __future__ import annotations

import ast
import importlib.util
import re
import sys
from pathlib import Path

import wildsat
from wildsat import engine

SOURCES = sorted(Path(wildsat.__file__).parent.glob("*.py"))
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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


def _class_tests(tree: ast.AST, names: set[str]) -> list[int]:
    """The lines of ``isinstance``/``issubclass`` calls, ``type(...)``
    comparisons and ``match`` class patterns that name one of ``names``."""

    def named(node) -> bool:
        elts = node.elts if isinstance(node, ast.Tuple) else [node]
        return any((e.id if isinstance(e, ast.Name) else getattr(e, "attr", None)) in names for e in elts)

    def called(node, fns) -> bool:
        return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in fns

    found = []
    for node in ast.walk(tree):
        if called(node, ("isinstance", "issubclass")) and len(node.args) == 2 and named(node.args[1]):
            found.append(node.lineno)
        elif isinstance(node, ast.Compare):
            sides = [node.left, *node.comparators]
            if any(called(s, ("type",)) for s in sides) and any(named(s) for s in sides):
                found.append(node.lineno)
        elif isinstance(node, ast.MatchClass) and named(node.cls):
            found.append(node.lineno)
    return found


def test_the_engine_tests_no_filter_class():
    # the driver reads a filter's attributes (exact, cardinality, the
    # optional hooks), never which class it is; a row class may be tested
    names = {n for n, obj in vars(engine).items() if isinstance(obj, type) and issubclass(obj, engine.SpModFilter)}
    assert {"SpModFilter", "CardinalityFilter", "ComplementFilter", "WeightFilter", "DnfKFilter"} <= names
    path = Path(engine.__file__)
    found = _class_tests(ast.parse(path.read_text(), filename=str(path)), names)
    assert not found, f"engine.py tests a filter's class at lines {found}"
    # the rule sees each kind of test, and leaves the row classes alone
    probe = "\n".join(
        [
            "isinstance(f, CardinalityFilter)",
            "type(f) is engine.ComplementFilter",
            "issubclass(type(f), (Row012, WeightFilter))",
            "isinstance(r, Row012)",
            "type(r) == Row012e",
            "match f:\n    case DnfKFilter(): pass",
        ]
    )
    assert _class_tests(ast.parse(probe), names) == [1, 2, 3, 7]


def _unused_imports(tree: ast.AST) -> set[str]:
    """The names a module imports and never reads (``__future__``
    features are no names)."""
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import) or isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    }
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - read


def test_the_engine_imports_only_what_it_uses_or_the_probes_wrap(monkeypatch):
    # perfbench/tracing.py is loaded read-only, from its file
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # for its dataclasses
    spec.loader.exec_module(tracing)
    probed = {attr for owner, attr, *_ in tracing.PROBES if owner is engine}
    text = Path(engine.__file__).read_text()
    unused = _unused_imports(ast.parse(text))
    assert not unused - probed, f"engine.py imports {sorted(unused - probed)} and never uses them"
    stay = re.search(r"^# (.+) (?:is|are) unused here but stay", text, re.M)
    listed = set(re.split(r", | and ", stay.group(1))) if stay else set()
    assert listed == unused, f"the 'unused here but stay' comment lists {sorted(listed)}, not {sorted(unused)}"
    # the scan sees an unused import, and a read in any position
    probe = "from __future__ import annotations\nimport a.b\nfrom c import d, e as f\nx = f.y\nprint(a)"
    assert _unused_imports(ast.parse(probe)) == {"d"}
