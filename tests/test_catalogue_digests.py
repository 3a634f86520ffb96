"""The benchmark's pinned outputs as a tier-1 gate.

``perfbench/expected.json`` pins, for every catalogue instance of every
workload, the sha256 of its DIMACS input and of the row files the program
must produce, with the row and model counts, the solver calls and the
harmful deletions.  The first FIRST instances of each workload run here
through the benchmark's own job and check, so a change to any emitted row
fails the test suite, not only a benchmark run.  The two counters, which
the benchmark's check does not read, are compared here as well: a change
that makes more searches, or lets more infeasible rows in, fails too.
``perfbench/workloads.py`` is loaded read-only, from its file.

No workload runs the paper's headline configuration, ``EngineConfig()``:
clause-e with policy solver, the command line's default.  It runs here on
the first ``esoft-none`` instances, whose rows do not depend on the policy,
with its solver counters pinned.  The full search counters of the first
``hitting-k`` and ``solve-012`` jobs, pops among them, are pinned as well.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from wildsat import engine, formulas, rows

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
FIRST = 4


def _load():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # for its dataclasses
    spec.loader.exec_module(module)
    return module


workloads = _load()


@pytest.mark.parametrize("index", range(FIRST))
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_pinned_outputs(name, index):
    wl = workloads.WORKLOADS[name]
    inst = workloads.make_instance(wl, index)
    expected = workloads.load_expected(wl)[index]
    assert inst.digest() == expected["input_sha256"]
    out = workloads.run_job(wl, inst)
    assert workloads.check(wl, inst, out, expected) == []
    got = workloads.observed(wl, out)
    for key in ("solver_calls", "harmful_deletions"):
        assert got[key] == expected[key], key


# (solver_calls, decisions, propagations, conflicts, hint_hits,
# harmful_deletions) of EngineConfig() on esoft-none instances 0..3
HEADLINE = [
    (720, 1248, 1063, 33, 1154, 0),
    (257, 499, 451, 25, 470, 0),
    (518, 895, 976, 97, 1015, 0),
    (541, 1008, 907, 31, 1027, 0),
]


@pytest.mark.parametrize("index", range(FIRST))
def test_the_headline_configuration(index):
    wl = workloads.WORKLOADS["esoft-none"]
    inst = workloads.make_instance(wl, index)
    expected = workloads.load_expected(wl)[index]
    out = engine.run(formulas.parse_dimacs(inst.texts[0]), engine.EngineConfig())
    assert (out.stats.method, out.stats.policy) == ("clause-e", "solver")
    assert workloads.sha256(rows.format_rows(out)) == expected["rows_sha256"][0]
    st = out.stats
    got = (st.solver_calls, st.decisions, st.propagations, st.conflicts, st.hint_hits, st.harmful_deletions)
    assert got == HEADLINE[index]


# (solver_calls, decisions, propagations, conflicts, hint_hits, pops) of
# the searched workloads' instances 0..3, through the benchmark's own job
COUNTERS = {
    "hitting-k": [
        (3215, 1477, 1387, 134, 3214, 3755),
        (5374, 1541, 1451, 160, 5373, 6326),
        (4773, 744, 979, 70, 4772, 5536),
        (4487, 1212, 1122, 20, 4486, 5271),
    ],
    "solve-012": [
        (1186, 778, 916, 119, 1389, 2314),
        (946, 750, 672, 85, 1000, 1756),
        (1347, 975, 1080, 115, 1526, 2633),
        (912, 788, 510, 10, 986, 1860),
    ],
}


@pytest.mark.parametrize("index", range(FIRST))
@pytest.mark.parametrize("name", list(COUNTERS))
def test_search_counters(name, index):
    wl = workloads.WORKLOADS[name]
    st = workloads.run_job(wl, workloads.make_instance(wl, index)).results[0].stats
    got = (st.solver_calls, st.decisions, st.propagations, st.conflicts, st.hint_hits, st.pops)
    assert got == COUNTERS[name][index]
