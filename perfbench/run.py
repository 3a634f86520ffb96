"""wildsat benchmark runner.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload solve-012 --seed 1 --seconds 25 --trace 0

One client runs jobs back to back in this process (a closed loop) for
``--seconds`` seconds, over the workload's pinned catalogue in the order the
seed shuffles it.  Every job's output is checked against the digests and
counts in ``expected.json``.  With ``--trace 0`` the end-to-end metrics are
measured with no probe installed; with ``--trace 1`` each job runs once
plain and once traced, and the per-layer metrics come from the traced runs.
The last line of standard output is the JSON result.

The program is imported from ``src/`` of the same checkout and from nowhere
else; without it the runner exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 9
# Every timing below is divided by the time of a fixed reference computation
# run right before and right after it, then scaled by REF_SECONDS, the
# reference's nominal duration.  The shared machine's speed drifts by 25% and
# more between runs; the ratio to the reference cancels most of that drift.
REF_SECONDS = 0.004
_REF_CLAUSES = [
    [(i * 7 + j * 3) % 20 + 1 if (i + j) % 2 else -((i * 5 + j) % 20 + 1) for j in range(4)]
    for i in range(40)
]


def import_program() -> None:
    sys.path.insert(0, str(SRC))
    try:
        import wildsat
    except ImportError as exc:
        _fatal(f"cannot import wildsat from {SRC}: {exc}")
    if Path(wildsat.__file__).resolve().parent != SRC / "wildsat":
        _fatal(f"wildsat was imported from {wildsat.__file__}, not from {SRC}")


def _fatal(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def reference() -> float:
    """Seconds taken by a fixed computation shaped like the program's inner
    loops (simplifying a clause list by each literal), collector paused."""
    gc.disable()
    try:
        t0 = perf_counter()
        for _ in range(12):
            for lit in range(-20, 21):
                out = []
                for c in _REF_CLAUSES:
                    if lit in c:
                        continue
                    if -lit in c:
                        c = [x for x in c if x != -lit]
                    out.append(c)
        return perf_counter() - t0
    finally:
        gc.enable()


def scaled(times: list[float], refs: list[float]) -> list[float]:
    """times[i] in reference seconds, refs[i] and refs[i + 1] bracketing it."""
    return [REF_SECONDS * t * 2 / (refs[i] + refs[i + 1]) for i, t in enumerate(times)]


def setup(name: str):
    """What a fresh process pays before its first job: importing the program,
    generating the workload's inputs and checking them against their digests."""
    import_program()
    import workloads  # imports wildsat, so only after import_program()

    if name not in workloads.WORKLOADS:
        _fatal(f"unknown workload {name!r}; known: {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[name]
    insts = workloads.catalogue(wl)
    expected = workloads.load_expected(wl)
    workloads.verify_inputs(insts, expected)
    return wl, insts, expected


def timed_setup(name: str) -> float:
    """setup(name) in reference seconds, bracketed by two reference runs."""
    refs = [reference()]
    t0 = perf_counter()
    setup(name)
    elapsed = perf_counter() - t0
    refs.append(reference())
    return scaled([elapsed], refs)[0]


def setup_seconds(name: str) -> float:
    """Median of timed_setup over SETUP_REPS fresh processes."""
    times = []
    for _ in range(SETUP_REPS):
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--setup-only"],
            check=True, cwd=ROOT, timeout=60, capture_output=True, text=True,
        )
        times.append(float(child.stdout))
    return statistics.median(times)


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest nearest-rank percentile with at
    least ten samples above it; the maximum when there are too few samples."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


class Runner:
    def __init__(self, wl, insts, expected, seed: int):
        import workloads

        self.ws = workloads
        self.wl, self.insts, self.expected = wl, insts, expected
        self.order = list(range(len(insts)))
        random.Random(seed).shuffle(self.order)
        self.position = 0
        self.attempted = 0
        self.failed = 0

    def next_instance(self):
        inst = self.insts[self.order[self.position % len(self.order)]]
        self.position += 1
        return inst

    def job(self, inst, tracer=None):
        """Run and check one job; returns (outcome or None, wall seconds)."""
        self.attempted += 1
        t0 = perf_counter()
        try:
            if tracer is None:
                out = self.ws.run_job(self.wl, inst)
            else:
                out = tracer.run_job(self.ws.run_job, self.wl, inst)
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None, perf_counter() - t0
        dt = perf_counter() - t0
        problems = self.ws.check(self.wl, inst, out, self.expected[inst.index])
        if problems:
            self.failed += 1
            print("\n".join(problems[:5]), file=sys.stderr)
        return out, dt


def measure(runner: Runner, seconds: float) -> dict:
    """End-to-end job metrics in reference seconds; no probe is installed.

    An instance that ran more than once counts once, with its median time,
    so the statistics describe the catalogue and not how far the run got
    into its second pass."""
    runner.job(runner.next_instance())  # warm-up, not timed
    raw, refs, indices = [], [reference()], []
    deadline = perf_counter() + seconds
    while not raw or perf_counter() < deadline:
        inst = runner.next_instance()
        raw.append(runner.job(inst)[1])
        refs.append(reference())
        indices.append(inst.index)
    by_instance = defaultdict(list)
    for index, t in zip(indices, scaled(raw, refs)):
        by_instance[index].append(t)
    times = [statistics.median(ts) for ts in by_instance.values()]
    value, pct = tail(times)
    print(f"{len(raw)} jobs over {len(times)} instances; job_tail_s is p{pct:.1f} of {len(times)}")
    print(f"unscaled: job p50 {statistics.median(raw):.4f} s, reference p50 {statistics.median(refs) * 1e3:.3f} ms"
          f" (nominal {REF_SECONDS * 1e3:g} ms)")
    return {
        "job_p50_s": (statistics.median(times), "s"),
        "job_tail_s": (value, "s"),
        "jobs_per_s": (len(times) / sum(times), "1/s"),
    }


def measure_traced(runner: Runner, seconds: float) -> dict:
    """Per-layer metrics: each job runs plain, traced, and as a bare run()
    with and without a no-op observer."""
    from tracing import JOB, LAYER_ROOTS, SPANS, Tracer
    from wildsat.engine import EngineObserver

    tracer = Tracer()
    ws, wl = runner.ws, runner.wl
    runner.job(runner.next_instance())  # warm-up, not timed
    plain_s = traced_s = bare_s = observed_s = 0.0
    harmful = row_bytes = jobs = 0
    deadline = perf_counter() + seconds
    while not jobs or perf_counter() < deadline:
        inst = runner.next_instance()
        plain_s += runner.job(inst)[1]
        out, dt = runner.job(inst, tracer)
        traced_s += dt
        jobs += 1
        if out is not None:
            harmful += sum(r.stats.harmful_deletions for r in out.results)
            row_bytes += sum(len(f.encode()) for f in out.row_files)
        for observer in (None, EngineObserver()) if jobs % 2 else (EngineObserver(), None):
            dt = ws.enumerate_only(wl, inst, observer)
            if observer is None:
                bare_s += dt
            else:
                observed_s += dt

    def per_job(x):
        return x / jobs

    def ratio(a, b):
        return a / b if b else 0.0

    spans = tracer.by_span()
    tallies = tracer.tallies
    m: dict[str, tuple[float, str]] = {}
    for name in SPANS:
        st = spans[name]
        calls_name = name.replace("_validate", "_built") if name.endswith("_validate") else f"{name}_calls"
        m[calls_name] = (per_job(st.calls), "calls/job")
        m[f"{name}_s"] = (per_job(st.total_s), "s/job")
        self_name = f"{name.split('.')[0]}.self_s" if name in LAYER_ROOTS else f"{name}_self_s"
        m[self_name] = (per_job(st.self_s), "s/job")
    pops = spans["engine.pending_clause"].calls + spans["engine.varwise_degree"].calls
    admitted_sons = pops - spans["engine.run"].calls
    covered = sum(st.self_s for name, st in spans.items() if name not in (JOB, *LAYER_ROOTS))
    m.update({
        "engine.pops": (per_job(pops), "rows/job"),
        "engine.sons_per_split": (ratio(tallies["engine.sons"], spans["engine.split"].calls), "sons/split"),
        "engine.harmful_deletions": (per_job(harmful), "rows/job"),
        "sat.sat_ratio": (ratio(tallies["sat.models_found"], spans["sat.find_model"].calls), "ratio"),
        "sat.hint_hit_ratio": (ratio(tallies["rows.contains_true"], admitted_sons), "ratio"),
        "rows.purify_pieces": (per_job(tallies["rows.purify_pieces"]), "rows/job"),
        "rows.intersection_nonzero_ratio": (
            ratio(tallies["rows.intersection_nonzero"], spans["rows.intersection_card_ie"].calls), "ratio"),
        "rows.row_file_bytes": (per_job(row_bytes), "B/job"),
        "trace.coverage": (ratio(covered, spans[JOB].total_s), "ratio"),
        "trace.overhead": (ratio(traced_s, plain_s), "ratio"),
        "engine.observer_noop_ratio": (ratio(observed_s, bare_s), "ratio"),
        "failed_frac": (ratio(runner.failed, runner.attempted), "ratio"),
    })

    job_s = spans[JOB].total_s
    print(f"{jobs} traced jobs; spans by self time (share of traced job wall time):")
    for (name, parent), st in sorted(tracer.stats.items(), key=lambda kv: -kv[1].self_s):
        print(f"  {name:28} <- {parent or '-':26} calls/job {st.calls / jobs:12.1f}"
              f"  self {st.self_s / job_s:6.1%}  incl {st.total_s / job_s:6.1%}")
    return m


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_only:
        print(timed_setup(args.workload))
        return 0
    wl, insts, expected = setup(args.workload)
    runner = Runner(wl, insts, expected, args.seed)
    if args.trace:
        metrics = measure_traced(runner, args.seconds)
    else:
        metrics = measure(runner, args.seconds)
        metrics["setup_s"] = (setup_seconds(args.workload), "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    for name, (value, unit) in metrics.items():
        print(f"{name:36} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
