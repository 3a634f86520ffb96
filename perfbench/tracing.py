"""Outside-in span tracing of the wildsat layers.

Each probe replaces the name a layer's caller looks up (a module global such
as ``wildsat.engine.find_model``, or a class attribute such as
``Row012e.__post_init__``) with a wrapper that records one span per call:
its name, its duration and the span that caused it.  Nothing in the program
changes; the wrappers exist only while a traced job runs.

Spans are aggregated in memory per (span, parent) pair.  A span's self time
is its duration minus the time of the spans nested inside it, so nested
layers (Row012e validation inside ``impose_on_slots``) are not counted twice.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import wildsat.analysis
import wildsat.engine
import wildsat.formulas
import wildsat.rows
import wildsat.sat

JOB = "job"
# Spans that enclose a whole layer call from the job; their self time is the
# untraced remainder of that layer (engine.self_s, analysis.self_s).
LAYER_ROOTS = ("engine.run", "analysis.equivalent")


def _not_none(result) -> int:
    return result is not None


def _nonzero(result) -> int:
    return result != 0


# (owner, attribute, span, tally name, tally function).  Several call sites
# may feed one span.  A tally adds tally_fn(result) to a counter per call.
PROBES: list[tuple[object, str, str, str | None, Callable | None]] = [
    (wildsat.formulas, "parse_dimacs", "formulas.parse_dimacs", None, None),
    (wildsat.engine, "run", "engine.run", None, None),
    (wildsat.engine, "pending_clause", "engine.pending_clause", None, None),
    (wildsat.engine, "varwise_degree", "engine.varwise_degree", None, None),
    (wildsat.engine, "clausewise012_split", "engine.split", "engine.sons", len),
    (wildsat.engine, "clausewise_e_split", "engine.split", "engine.sons", len),
    (wildsat.engine, "find_model", "sat.find_model", "sat.models_found", _not_none),
    (wildsat.sat, "augment_cnf", "sat.augment_cnf", None, None),
    (wildsat.sat, "dpll_sat", "sat.dpll", None, None),  # the SolverFn plug
    (wildsat.engine, "find_k_model", "sat.find_k_model", "sat.k_models_found", _not_none),
    (wildsat.rows.Row012, "contains", "rows.contains", "rows.contains_true", bool),
    (wildsat.rows.Row012, "with_value", "rows.with_value", None, None),
    (wildsat.rows.Row012, "__post_init__", "rows.row012_validate", None, None),
    (wildsat.rows.Row012e, "contains", "rows.contains", "rows.contains_true", bool),
    (wildsat.engine, "impose_on_slots", "rows.impose_on_slots", None, None),
    (wildsat.rows.Row012e, "__post_init__", "rows.row012e_validate", None, None),
    (wildsat.engine, "purify", "rows.purify", "rows.purify_pieces", len),
    (wildsat.analysis, "purify", "rows.purify", "rows.purify_pieces", len),
    (wildsat.rows, "purify", "rows.purify", "rows.purify_pieces", len),
    (wildsat.analysis, "intersection_card_ie", "rows.intersection_card_ie", "rows.intersection_nonzero", _nonzero),
    (wildsat.rows, "format_rows", "rows.format_rows", None, None),
    (wildsat.analysis, "equivalent", "analysis.equivalent", None, None),
]
SPANS = tuple(dict.fromkeys(p[2] for p in PROBES))


@dataclass
class SpanStat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Installs the probes while a traced job runs and aggregates its spans."""

    def __init__(self) -> None:
        self.stats: dict[tuple[str, str], SpanStat] = defaultdict(SpanStat)
        self.tallies: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # open spans: [name, child seconds]
        self._originals = []
        for owner, attr, *_ in PROBES:
            fn = vars(owner).get(attr)
            if not callable(fn):
                name = getattr(owner, "__qualname__", getattr(owner, "__name__", owner))
                raise LookupError(f"trace target {name}.{attr} is missing")
            self._originals.append(fn)

    def _wrap(self, fn, span: str, tally: str | None, tally_fn: Callable | None):
        def traced(*args, **kwargs):
            result = self._timed(span, fn, args, kwargs)
            if tally is not None:
                self.tallies[tally] += tally_fn(result)
            return result

        return traced

    def _timed(self, span: str, fn, args, kwargs):
        stack = self._stack
        frame = [span, 0.0]
        parent = stack[-1][0] if stack else ""
        stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][1] += elapsed
            st = self.stats[span, parent]
            st.calls += 1
            st.total_s += elapsed
            st.self_s += elapsed - frame[1]

    def run_job(self, fn, *args):
        """Run fn(*args) as one traced job and return its result."""
        for (owner, attr, span, tally, tally_fn), fn0 in zip(PROBES, self._originals):
            setattr(owner, attr, self._wrap(fn0, span, tally, tally_fn))
        try:
            return self._timed(JOB, fn, args, {})
        finally:
            for (owner, attr, *_), fn0 in zip(PROBES, self._originals):
                setattr(owner, attr, fn0)

    def by_span(self) -> dict[str, SpanStat]:
        """Stats summed over parents, for every probe span (zero when never called)."""
        out = {name: SpanStat() for name in (JOB, *SPANS)}
        for (span, _), st in self.stats.items():
            agg = out[span]
            agg.calls += st.calls
            agg.total_s += st.total_s
            agg.self_s += st.self_s
        return out
