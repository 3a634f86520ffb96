"""The benchmark's trace probes must find every program name they wrap.

``perfbench/tracing.py`` replaces module globals and class attributes of the
program (``wildsat.engine.find_model``, ``Row012e.__post_init__``, ...) while
a traced job runs, and ``Tracer()`` raises LookupError when one of them is
gone.  A refactor that renames or inlines a probed name fails here instead
of in a traced benchmark run.  A traced job must also give the pinned
output: the tracer swaps ``sat.dpll_sat`` for a wrapper and the job passes
that wrapper as the solver, which the engine must still take as its own,
and the run record must count the hint hits that the driver tests inline.
``perfbench/`` is loaded read-only, from its files.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(monkeypatch, name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # for its dataclasses
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_probed_name(monkeypatch):
    tracing = _load(monkeypatch, "tracing")
    tracer = tracing.Tracer()
    assert len(tracer._originals) == len(tracing.PROBES)


@pytest.mark.parametrize("name", ["solve-012", "esoft-none", "equiv", "hitting-k"])
def test_a_traced_job_gives_the_pinned_output(monkeypatch, name):
    tracing, workloads = _load(monkeypatch, "tracing"), _load(monkeypatch, "workloads")
    wl = workloads.WORKLOADS[name]
    inst = workloads.make_instance(wl, 0)
    expected = workloads.load_expected(wl)[0]
    tracer = tracing.Tracer()
    out = tracer.run_job(workloads.run_job, wl, inst)
    assert workloads.check(wl, inst, out, expected) == []
    assert [r.stats.solver_calls for r in out.results] == expected["solver_calls"]
    # the driver tests the hint on a son's masks and counts its hits in the
    # run record: the sons of instance 0 that took their parent's witness
    hint_hits = {"solve-012": [1389], "esoft-none": [0], "equiv": [0, 0], "hitting-k": [3214]}
    assert [r.stats.hint_hits for r in out.results] == hint_hits[name]
    assert tracer.by_span()["sat.dpll"].calls == 0
