"""The benchmark's trace probes must find every program name they wrap.

``perfbench/tracing.py`` replaces module globals and class attributes of the
program (``wildsat.engine.find_model``, ``Row012e.__post_init__``, ...) while
a traced job runs, and ``Tracer()`` raises LookupError when one of them is
gone.  A refactor that renames or inlines a probed name fails here instead
of in a traced benchmark run.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_tracer_finds_every_probed_name(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # for its dataclasses
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    assert len(tracer._originals) == len(tracing.PROBES)
