"""Rules on the package source itself.

Invariants are real errors: ``python -O`` strips ``assert`` statements, so
the package may not use them to check anything.  Immutability comes only
from ``@dataclass(frozen=True)``, never from hand-written attribute hooks.
The engine dispatches on no filter class: it reads a filter's attributes,
and every filter it defines records in ``__init__`` the width it was built
for, which ``validate_config`` checks once per run; every hook it defines
takes a 012 entry's ``(ones, zeros)`` masks.  The driver builds no row:
its finals stay masks, and it admits a son in one place.  It decides no
policy or solver: ``_admission`` does, once per run.  The built-in
search propagates in one place too: ``search_from`` alone writes the unit
and conflict counters, and no ``_propagate`` is left.  An e-row's
member count and free variables are written once, in ``rows._census``.
The CLI reads
no filter's methods and no width, so those rules have no second home.
A module imports no name it never uses, save the ones the benchmark's
trace probes wrap on it, which its "unused here but stay" comment lists.
An absent consumer hook is a None attribute, never a method that does
nothing.  Every annotation of the package resolves.
"""

from __future__ import annotations

import ast
import importlib.util
import inspect
import re
import sys
import typing
from pathlib import Path

import wildsat
from wildsat import cli, engine

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


def _filters_without_a_width(tree: ast.AST, names: set[str]) -> list[str]:
    """The classes among ``names`` whose ``__init__`` stores no
    ``self.num_vars``."""

    def stores(fn) -> bool:
        return any(
            isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store) and n.attr == "num_vars"
            and isinstance(n.value, ast.Name) and n.value.id == "self"
            for n in ast.walk(fn)
        )

    return [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name in names
        and not any(isinstance(fn, ast.FunctionDef) and fn.name == "__init__" and stores(fn) for fn in node.body)
    ]


def test_every_engine_filter_records_its_width():
    # validate_config compares a filter's num_vars with the run's width;
    # a filter that left the base class's None would run unchecked
    names = {n for n, obj in vars(engine).items() if isinstance(obj, type) and issubclass(obj, engine.SpModFilter)}
    names.discard("SpModFilter")
    assert {"CardinalityFilter", "ComplementFilter", "WeightFilter", "DnfKFilter"} <= names
    path = Path(engine.__file__)
    found = _filters_without_a_width(ast.parse(path.read_text(), filename=str(path)), names)
    assert not found, f"engine.py filters whose __init__ sets no self.num_vars: {', '.join(found)}"
    # the rule sees a width set in a tuple, and no width, a width only read
    # or one set outside __init__
    probe = "\n".join(
        [
            "class A(SpModFilter):",
            "    def __init__(self, cnf):",
            "        self.cnf, self.num_vars = cnf, cnf.num_vars",
            "class B(SpModFilter):",
            "    exact = True",
            "class C(SpModFilter):",
            "    def __init__(self, cnf):",
            "        n = self.num_vars",
            "class D(SpModFilter):",
            "    def __init__(self, cnf):",
            "        self.cnf = cnf",
            "    def setup(self, w):",
            "        self.num_vars = w",
        ]
    )
    assert _filters_without_a_width(ast.parse(probe), {"A", "B", "C", "D"}) == ["B", "C", "D"]


def _reads(tree: ast.AST, attrs: set[str], allowed: set[str]) -> list[str]:
    """``line expression`` for each read of an attribute named in
    ``attrs``, save the expressions in ``allowed``."""
    return [
        f"{node.lineno} {ast.unparse(node)}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and node.attr in attrs
        and ast.unparse(node) not in allowed
    ]


def test_the_cli_holds_no_engine_rule():
    # validate_config judges a filter's methods and width against the run;
    # a CLI that read either would hold a copy of the rule.  bench's
    # --methods flag and equiv's "different variable counts" verdict are
    # no filter rule
    attrs, allowed = {"methods", "num_vars", "width"}, {"args.methods", "cnf_a.num_vars", "cnf_b.num_vars"}
    path = Path(cli.__file__)
    found = _reads(ast.parse(path.read_text(), filename=str(path)), attrs, allowed)
    assert not found, f"cli.py reads engine rule attributes: {', '.join(found)}"
    # the rule sees a read anywhere in a chain, and leaves a store alone
    probe = "cls.methods\nif spmod.rows.width != 3: pass\nn = 2 * cnf.num_vars\nf.num_vars = 3\nargs.methods"
    assert _reads(ast.parse(probe), attrs, allowed) == ["1 cls.methods", "2 spmod.rows.width", "3 cnf.num_vars"]


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


def test_each_module_imports_only_what_it_uses_or_the_probes_wrap(monkeypatch):
    # perfbench/tracing.py is loaded read-only, from its file
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # for its dataclasses
    spec.loader.exec_module(tracing)
    checked = []
    for path in SOURCES:
        if path.name == "__init__.py":
            continue  # the package root's imports are its exports
        module = importlib.import_module(f"wildsat.{path.stem}")
        probed = {attr for owner, attr, *_ in tracing.PROBES if owner is module}
        text = path.read_text()
        unused = _unused_imports(ast.parse(text))
        assert not unused - probed, f"{path.name} imports {sorted(unused - probed)} and never uses them"
        stay = re.search(r"^# (.+) (?:is|are) unused here but stay", text, re.M)
        listed = set(re.split(r", | and ", stay.group(1))) if stay else set()
        assert listed == unused, f"{path.name}'s 'unused here but stay' comment lists {sorted(listed)}"
        checked.append(path.stem)
    assert {"analysis", "engine", "rows", "sat"} <= set(checked)  # the scan is not empty
    # the scan sees an unused import, and a read in any position
    probe = "from __future__ import annotations\nimport a.b\nfrom c import d, e as f\nx = f.y\nprint(a)"
    assert _unused_imports(ast.parse(probe)) == {"d"}


def _annotated(module) -> list:
    """The functions and classes a module defines, and the methods,
    static and class methods and property getters of its classes."""
    found = []
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            found.append(obj)
        elif inspect.isclass(obj):
            found.append(obj)
            for attr in vars(obj).values():
                fn = attr.fget if isinstance(attr, property) else getattr(attr, "__func__", attr)
                if inspect.isfunction(fn):
                    found.append(fn)
    return found


def test_every_annotation_resolves():
    # with postponed annotations a name the module never imports fails only
    # when the hints are read, as typing.get_type_hints reads them
    checked, failed = [], []
    for path in SOURCES:
        module = importlib.import_module("wildsat" if path.stem == "__init__" else f"wildsat.{path.stem}")
        for obj in _annotated(module):
            try:
                typing.get_type_hints(obj)
            except NameError as err:
                failed.append(f"{path.name} {obj.__qualname__}: {err}")
            checked.append(obj.__qualname__)
    assert {"run_bench", "EngineConfig", "Row012.contains", "search_from"} <= set(checked)  # the scan is not empty
    assert not failed, "; ".join(failed)


def _filter_hooks(tree: ast.AST) -> dict[str, str]:
    """``Class.hook`` to its parameters, unannotated, for each ``admit``,
    ``final_override`` and ``refine_final`` a class defines."""
    hooks = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef) and fn.name in ("admit", "final_override", "refine_final"):
                    for arg in ast.walk(fn.args):
                        if isinstance(arg, ast.arg):
                            arg.annotation = None
                    hooks[f"{node.name}.{fn.name}"] = ast.unparse(fn.args)
    return hooks


def test_every_filter_hook_reads_masks():
    # the driver hands every filter hook a 012 entry's two masks, never a row
    path = Path(engine.__file__)
    hooks = _filter_hooks(ast.parse(path.read_text(), filename=str(path)))
    assert {"DnfKFilter.admit", "ComplementFilter.final_override", "WeightFilter.refine_final"} <= set(hooks)
    wrong = [f"{name}({params})" for name, params in hooks.items() if params != "self, ones, zeros"]
    assert not wrong, f"engine.py filter hooks that take no (ones, zeros) masks: {', '.join(wrong)}"
    # the driver checks a k-search final's weight, so the cardinality filter is data alone
    assert not [name for name in hooks if name.startswith("CardinalityFilter.")]
    # the scan reads each hook's parameters, annotated or starred, and
    # leaves other methods alone
    probe = "\n".join(
        [
            "class A(SpModFilter):",
            "    def admit(self, ones: int, zeros: int) -> bool: ...",
            "    def refine_final(self, row): ...",
            "class B(SpModFilter):",
            "    def final_override(self, *masks): ...",
            "    def split(self, row): ...",
        ]
    )
    assert _filter_hooks(ast.parse(probe)) == {
        "A.admit": "self, ones, zeros",
        "A.refine_final": "self, row",
        "B.final_override": "self, *masks",
    }


def _calls(tree: ast.AST, fn: str, names: set[str]) -> list[str]:
    """``line name`` for each call, inside the functions named ``fn``, of
    a name or attribute in ``names``."""
    return [
        f"{node.lineno} {called}"
        for top in ast.walk(tree)
        if isinstance(top, ast.FunctionDef) and top.name == fn
        for node in ast.walk(top)
        if isinstance(node, ast.Call)
        and (called := getattr(node.func, "id", getattr(node.func, "attr", None))) in names
    ]


def _callers(tree: ast.AST, name: str) -> set[str]:
    """The names of the module-level functions and classes that call
    ``name`` (a name or an attribute), ``<module>`` for a call outside
    them."""
    return {
        getattr(top, "name", "<module>")
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == name
    }


def test_the_driver_builds_no_row():
    # a run's finals stay masks until a caller reads RowList.rows; the weak
    # tests and every search take a son's masks, so only the adapter of
    # _observer_hooks builds a row, for a hook that reads one
    names = {"build", "_row", "_row012", "_row012e"}
    path = Path(engine.__file__)
    tree = ast.parse(path.read_text(), filename=str(path))
    for fn in ("_drive", "_admission"):
        assert any(isinstance(node, ast.FunctionDef) and node.name == fn for node in ast.walk(tree))
    found = _calls(tree, "_drive", names)
    assert not found, f"engine._drive builds rows at lines {', '.join(found)}"
    found = _calls(tree, "_admission", names | {"solve_row"})
    assert not found, f"engine._admission builds or searches rows at lines {', '.join(found)}"
    assert _callers(tree, "_on_row") == {"_observer_hooks"}
    # the rule sees a call in a nested function and through a module, and
    # leaves a builder passed as a value and other functions alone
    probe = "\n".join(
        [
            "def _drive(cnf):",
            "    def finish(entry):",
            "        return [build(w, *entry)]",
            "    hooks = _observer_hooks(obs, build, w)",
            "    out = [rows._row012e(w, *p) for p in pieces]",
            "def other():",
            "    return _row012(w, 0, 0)",
        ]
    )
    assert set(_calls(ast.parse(probe), "_drive", names)) == {"3 build", "5 _row012e"}
    # the same for _admission, whose probe searches a row in a closure
    probe = "\n".join(
        [
            "def _admission(cnf, config):",
            "    search = lambda ones, rest: sat.solve_row(_row(w, ones, rest), cnf)",
            "    return None, partial(test1, cnf), search",
            "def other():",
            "    return solve_row(row, cnf)",
        ]
    )
    assert set(_calls(ast.parse(probe), "_admission", names | {"solve_row"})) == {"2 solve_row", "2 _row"}
    # the callers of _on_row are the module-level functions and classes
    # that hold a call, however deep, and the module itself
    probe = "\n".join(
        [
            "def _observer_hooks(obs, w):",
            "    return _on_row(obs.on_pop, w)",
            "def _admission(cnf, config):",
            "    check = engine._on_row(lambda row: test1(row, cnf), w)",
            "class Hooks:",
            "    def on_pop(self):",
            "        return [_on_row(f, w) for f in fs]",
            "hook = _on_row(print, 3)",
            "def other(fn=_on_row):",
            "    return fn",
        ]
    )
    assert _callers(ast.parse(probe), "_on_row") == {"_observer_hooks", "_admission", "Hooks", "<module>"}


def _decisions(tree: ast.AST, fn: str) -> list[str]:
    """``line name`` for each use, inside the functions named ``fn``, of
    ``Policy``, ``is_plug`` or ``search_from`` (a name or an attribute)
    and each read of a ``policy``, ``solver`` or ``masks`` attribute."""
    names, attrs = {"Policy", "is_plug", "search_from"}, {"policy", "solver", "masks"}
    found = []
    for top in ast.walk(tree):
        if isinstance(top, ast.FunctionDef) and top.name == fn:
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and node.id in names:
                    found.append(f"{node.lineno} {node.id}")
                elif isinstance(node, ast.Attribute) and node.attr in names | attrs:
                    found.append(f"{node.lineno} {node.attr}")
    return found


def test_the_driver_decides_no_policy_or_solver():
    # _admission alone reads the policy and the solver: _drive takes the
    # (screen, check, search) it hands out, model-tests a var-012 final
    # only when neither was given, with sat._test1 in place of a scan of
    # the clause masks, and walks with the search it is handed
    path = Path(engine.__file__)
    tree = ast.parse(path.read_text(), filename=str(path))
    assert any(isinstance(node, ast.FunctionDef) and node.name == "_drive" for node in ast.walk(tree))
    found = _decisions(tree, "_drive")
    assert not found, f"engine._drive decides a policy or a solver, or scans clause masks, at {found}"
    assert _decisions(tree, "_admission")  # the rule sees where they are decided
    # the rule sees names, module attributes and reads in a nested
    # function, and leaves other attributes and functions alone
    probe = "\n".join(
        [
            "def _drive(cnf, config):",
            "    every = config.policy == Policy.NONE",
            "    def finish(entry):",
            "        return all(p & entry[0] for p, n in cnf.masks)",
            "    walk = not sat.is_plug(config.solver)",
            "    step = search_from",
            "    slots, policy_name = cnf.slot_masks, config.method",
            "def other(config):",
            "    return config.policy, search_from, cnf.masks",
        ]
    )
    assert set(_decisions(ast.parse(probe), "_drive")) == {
        "2 policy",
        "2 Policy",
        "4 masks",
        "5 is_plug",
        "5 solver",
        "6 search_from",
    }


def _empty_methods(tree: ast.AST) -> list[str]:
    """``Class.method`` for each method whose body is only a docstring,
    ``pass`` or ``...``."""

    def empty(stmt) -> bool:
        return isinstance(stmt, ast.Pass) or isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)

    return [
        f"{node.name}.{fn.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for fn in node.body
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and all(map(empty, fn.body))
    ]


def test_the_engine_has_no_no_op_hooks():
    # the driver calls a hook only when it is not None, so a method that
    # does nothing would be called, and have rows built for it, for nothing
    path = Path(engine.__file__)
    found = _empty_methods(ast.parse(path.read_text(), filename=str(path)))
    assert not found, f"engine.py methods that do nothing (leave the hook None): {', '.join(found)}"
    # the scan sees each kind of empty body, and leaves a working one alone
    probe = "\n".join(
        [
            "class Hooks:",
            "    def on_pop(self, row):",
            '        """Called on each pop."""',
            "    def on_split(self, parent):",
            "        pass",
            "    def on_emit(self, row):",
            '        """Called on each row."""',
            "        ...",
            "    def on_harmful(self, row):",
            "        return None",
            "    on_done = None",
        ]
    )
    assert _empty_methods(ast.parse(probe)) == ["Hooks.on_pop", "Hooks.on_split", "Hooks.on_emit"]


def _admission_marks(tree: ast.AST) -> dict[str, list[int]]:
    """The lines of a son admission's two marks: the son-degree
    ``RuntimeError`` and the hint hit ``hint_hits += 1``."""
    phrase = "does not settle its parent's pending clause"
    marks: dict[str, list[int]] = {"degree check": [], "hint hit": []}
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and any(
            isinstance(n, ast.Constant) and phrase in str(n.value) for n in ast.walk(node)
        ):
            marks["degree check"].append(node.lineno)
        elif isinstance(node, ast.AugAssign) and ast.unparse(node) == "hint_hits += 1":
            marks["hint hit"].append(node.lineno)
    return marks


def test_the_driver_admits_a_son_in_one_place():
    # every son, var-wise or clause-wise, faces the one admission in
    # _drive's loop, so its degree check and its hint hit are written once
    path = Path(engine.__file__)
    marks = _admission_marks(ast.parse(path.read_text(), filename=str(path)))
    assert all(len(lines) == 1 for lines in marks.values()), f"engine.py admits sons at {marks}"
    # the scan sees each mark, also in an f-string, and leaves the walk's
    # counted hits and other errors alone
    probe = "\n".join(
        [
            "raise RuntimeError(f\"son does not settle its parent's pending clause {deg + 1}\")",
            "hint_hits += 1",
            "hint_hits += top - deg",
            "raise RuntimeError(\"son does not settle its parent's pending clause\")",
            "raise RuntimeError(f'row already settles its pending clause {deg + 1}')",
            "hint_hits += 1",
        ]
    )
    assert _admission_marks(ast.parse(probe)) == {"degree check": [1, 4], "hint hit": [2, 6]}


def _solver_counter_writes(tree: ast.AST) -> tuple[list[tuple[str | None, str]], list[int]]:
    """(innermost function, attribute) of each write to a ``propagations``
    or ``conflicts`` attribute, the function None at module level, and the
    lines that bind the name ``_propagate``."""
    writes, binds = [], []

    def visit(node, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if child.name == "_propagate":
                    binds.append(child.lineno)
                visit(child, child.name)
                continue
            if isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Store):
                if child.attr in ("propagations", "conflicts"):
                    writes.append((fn, child.attr))
            elif isinstance(child, ast.Name) and isinstance(child.ctx, ast.Store) and child.id == "_propagate":
                binds.append(child.lineno)
            visit(child, fn)

    visit(tree, None)
    return writes, binds


def test_the_search_propagates_in_one_place():
    # unit propagation runs inside search_from's loop, which alone counts
    # units and conflicts: no second propagation path in the package
    writes, binds = [], []
    for path in SOURCES:
        found = _solver_counter_writes(ast.parse(path.read_text(), filename=str(path)))
        writes += found[0]
        binds += [f"{path.name}:{line}" for line in found[1]]
    assert not binds, f"the package defines _propagate at {binds}"
    # each counter is written once, as the search returns
    assert sorted(writes) == [("search_from", "conflicts"), ("search_from", "propagations")], writes
    # the scan sees writes in nested functions and at module level, and
    # bindings of the name by def and by assignment
    probe = "\n".join(
        [
            "def search_from(stats):",
            "    stats.propagations += 1",
            "    def _propagate(stats):",
            "        stats.conflicts = 0",
            "    stats.conflicts += 1",
            "_propagate = search_from",
            "st.propagations -= 1",
            "stats.decisions += 1",
        ]
    )
    writes, binds = _solver_counter_writes(ast.parse(probe))
    assert writes == [
        ("search_from", "propagations"),
        ("_propagate", "conflicts"),
        ("search_from", "conflicts"),
        (None, "propagations"),
    ]
    assert binds == [3, 6]


def _census_formulas(tree: ast.AST) -> list[tuple[str | None, str]]:
    """(innermost function, formula) of each bubble product ``(1 <<
    b.bit_count()) - 1`` and each bubbled-variable union ``bub | bub >>
    1``, whatever the names, the function None at module level."""
    found = []

    def visit(node, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.BinOp):
                left, right = child.left, child.right
                if (
                    isinstance(child.op, ast.Sub)
                    and ast.unparse(right) == "1"
                    and isinstance(left, ast.BinOp)
                    and isinstance(left.op, ast.LShift)
                    and ast.unparse(left.left) == "1"
                    and isinstance(left.right, ast.Call)
                    and isinstance(left.right.func, ast.Attribute)
                    and left.right.func.attr == "bit_count"
                ):
                    found.append((fn, "product"))
                elif (
                    isinstance(child.op, ast.BitOr)
                    and isinstance(right, ast.BinOp)
                    and isinstance(right.op, ast.RShift)
                    and ast.unparse(right.right) == "1"
                    and ast.unparse(right.left) == ast.unparse(left)
                ):
                    found.append((fn, "free"))
            visit(child, fn)

    visit(tree, None)
    return found


def test_an_e_rows_census_is_written_once():
    # the purified-row count and the free-variable rule of an e-row live in
    # rows._census, which every counter and the slot views call
    found = []
    for path in SOURCES:
        found += [(path.name, *f) for f in _census_formulas(ast.parse(path.read_text(), filename=str(path)))]
    assert sorted(found) == [("rows.py", "_census", "free"), ("rows.py", "_census", "product")], found
    # the scan finds a copy in another function, a nested one or at module
    # level, under any names, and leaves the mate swap and other masks alone
    probe = "\n".join(
        [
            "def _census(width, ones, bubbles):",
            "    n *= (1 << b.bit_count()) - 1",
            "    f = width - ((bub | bub >> 1) & even).bit_count()",
            "def _totals(width, masks):",
            "    def count(rest):",
            "        return (1 << piece.bit_count()) - 1",
            "    f = width - ((u | u >> 1) & even).bit_count()",
            "every = (1 << len(masks)) - 1",
            "zeros = (ones & even) << 1 | ones >> 1 & even",
            "top = (1 << b.bit_count()) - 2",
            "x = a | b >> 1",
            "n = (1 << x.bit_count()) - 1",
        ]
    )
    assert _census_formulas(ast.parse(probe)) == [
        ("_census", "product"),
        ("_census", "free"),
        ("count", "product"),
        ("_totals", "free"),
        (None, "product"),
    ]
