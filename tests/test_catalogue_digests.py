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
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

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
