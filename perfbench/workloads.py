"""Workload catalogue, job definitions and output checks.

Every workload owns a catalogue of CATALOGUE_SIZE instances.  Instance ``i``
of a workload is generated here, outside the program, from a fixed string
seed, and its DIMACS text is pinned by sha256 in ``expected.json`` together
with the digest of the row file the program must produce for it.  The run's
``--seed`` shuffles the catalogue into the job sequence.  So every job of
every run is checked against a recorded digest, whatever the seed.

A job is one user command, made through the public library the way
``wildsat enumerate`` / ``wildsat equiv`` make it:
DIMACS text -> ``parse_dimacs`` -> ``run(cnf, EngineConfig(...))`` ->
``format_rows`` (or ``equivalent``).  Calls go through module attributes
(``engine.run``, not a name bound at import), so the tracer's wrappers are
seen by the job.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from wildsat import analysis, engine, formulas, rows, sat

CATALOGUE_SIZE = 64
EXPECTED_PATH = Path(__file__).with_name("expected.json")


@dataclass(frozen=True)
class Workload:
    name: str
    method: engine.Method
    policy: engine.Policy
    w: int  # variables (hypergraph vertices for hitting-k)
    h: int  # clauses (hypergraph edges)
    lam: int  # clause length (edge size)
    k: int | None = None  # hitting-set size
    equiv: bool = False  # compare the CNF with a clause-reordered copy


# Sizes keep a job near 0.25 s, so a run holds many jobs.  Why each workload
# is in the benchmark: see README.md and BENCHMARK.json.
WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload("solve-012", engine.Method.CLAUSE012, engine.Policy.SOLVER, w=15, h=30, lam=4),
        Workload("esoft-none", engine.Method.CLAUSE_E, engine.Policy.NONE, w=16, h=32, lam=4),
        Workload("equiv", engine.Method.CLAUSE_E, engine.Policy.NONE, w=12, h=22, lam=4, equiv=True),
        Workload("hitting-k", engine.Method.VAR012, engine.Policy.SOLVER, w=18, h=18, lam=4, k=6),
    )
}


# ---------------------------------------------------------------------------
# Input generation (pure Python; the program only ever sees the texts)


def _sample(rng: random.Random, n: int, m: int) -> list[int]:
    """m distinct values of 1..n by a partial Fisher-Yates shuffle."""
    pool = list(range(1, n + 1))
    for i in range(m):
        j = i + rng.randrange(n - i)
        pool[i], pool[j] = pool[j], pool[i]
    return sorted(pool[:m])


def _dimacs(num_vars: int, clauses: list[list[int]]) -> str:
    lines = [f"p cnf {num_vars} {len(clauses)}"]
    lines += [" ".join(map(str, c)) + " 0" for c in clauses]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Instance:
    index: int
    texts: tuple[str, ...]  # DIMACS inputs of the job (two for equiv)
    edges: tuple[tuple[int, ...], ...] = ()  # hitting-k only

    def digest(self) -> str:
        return sha256("\x00".join(self.texts))


def make_instance(wl: Workload, index: int) -> Instance:
    rng = random.Random(f"wildsat-perfbench/{wl.name}/{index}")
    if wl.k is not None:
        edges = [_sample(rng, wl.w, wl.lam) for _ in range(wl.h)]
        return Instance(index, (_dimacs(wl.w, edges),), tuple(map(tuple, edges)))
    clauses = [
        [v if rng.random() < 0.5 else -v for v in _sample(rng, wl.w, wl.lam)]
        for _ in range(wl.h)
    ]
    texts = [_dimacs(wl.w, clauses)]
    if wl.equiv:
        reordered = list(clauses)
        rng.shuffle(reordered)
        texts.append(_dimacs(wl.w, reordered))
    return Instance(index, tuple(texts))


def catalogue(wl: Workload) -> list[Instance]:
    return [make_instance(wl, i) for i in range(CATALOGUE_SIZE)]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_expected(wl: Workload) -> list[dict]:
    return json.loads(EXPECTED_PATH.read_text())[wl.name]


def verify_inputs(insts: list[Instance], expected: list[dict]) -> None:
    """Fail loudly when the generator no longer reproduces the pinned inputs."""
    if len(expected) != len(insts):
        raise RuntimeError(f"expected.json pins {len(expected)} instances, not {len(insts)}")
    for inst, exp in zip(insts, expected):
        if inst.digest() != exp["input_sha256"]:
            raise RuntimeError(f"input drift: instance {inst.index} no longer matches its pinned digest")


# ---------------------------------------------------------------------------
# Jobs


@dataclass
class Outcome:
    results: list  # one RowList per enumerated formula
    row_files: list[str]  # formatted row files (formatted by the job where the command does)
    verdict: object = None  # equiv only


def config_for(wl: Workload, cnf) -> engine.EngineConfig:
    """An explicit config; the solver is passed through the SolverFn plug."""
    spmod = engine.CardinalityFilter(cnf, wl.k) if wl.k is not None else None
    return engine.EngineConfig(
        method=wl.method, policy=wl.policy, spmod=spmod, solver=sat.dpll_sat
    )


def run_job(wl: Workload, inst: Instance) -> Outcome:
    """The timed user command."""
    if wl.equiv:
        cnf_a = formulas.parse_dimacs(inst.texts[0])
        cnf_b = formulas.parse_dimacs(inst.texts[1])
        ra = engine.run(cnf_a, config_for(wl, cnf_a))
        rb = engine.run(cnf_b, config_for(wl, cnf_b))
        return Outcome([ra, rb], [], analysis.equivalent(ra, rb))
    cnf = formulas.parse_dimacs(inst.texts[0])
    result = engine.run(cnf, config_for(wl, cnf))
    return Outcome([result], [rows.format_rows(result)])


def enumerate_only(wl: Workload, inst: Instance, observer) -> float:
    """Seconds spent in run() alone, with the given observer (or none)."""
    cnfs = [formulas.parse_dimacs(t) for t in inst.texts]
    configs = [config_for(wl, c) for c in cnfs]
    for cfg in configs:
        cfg.observer = observer
    t0 = perf_counter()
    for cnf, cfg in zip(cnfs, configs):
        engine.run(cnf, cfg)
    return perf_counter() - t0


# ---------------------------------------------------------------------------
# Checks


def observed(wl: Workload, out: Outcome) -> dict:
    """Digests and exact counts of one job's outputs (what expected.json pins)."""
    files = out.row_files or [rows.format_rows(r) for r in out.results]
    rec = {
        "rows_sha256": [sha256(f) for f in files],
        "rows": [len(r) for r in out.results],
        "models": [r.stats.models for r in out.results],
        "solver_calls": [r.stats.solver_calls for r in out.results],
        "harmful_deletions": [r.stats.harmful_deletions for r in out.results],
    }
    if wl.equiv:
        rec["pairs"] = len(out.results[0]) * len(out.results[1])
    return rec


def check(wl: Workload, inst: Instance, out: Outcome, exp: dict) -> list[str]:
    """Every way the job's output differs from the recorded one; empty when correct."""
    problems = []
    got = observed(wl, out)
    for key in ("rows_sha256", "rows", "models"):
        if got[key] != exp[key]:
            problems.append(f"{key} {got[key]} != pinned {exp[key]}")
    for r in out.results:
        st = r.stats
        if (st.method, st.policy) != (wl.method.value, wl.policy.value):
            problems.append(f"ran {st.method}/{st.policy}, asked {wl.method.value}/{wl.policy.value}")
        total = analysis.count_by_cardinality(r).total()
        if total != st.models:
            problems.append(f"count_by_cardinality total {total} != stats.models {st.models}")
    if wl.equiv and not out.verdict:
        problems.append("equivalent() said False for a clause reordering")
    if wl.k is not None:
        for row in out.results[0].rows:
            ones = {v for v, s in enumerate(row.symbols, start=1) if s == 1}
            if rows.TWO in row.symbols or len(ones) != wl.k:
                problems.append(f"row {row} is not a weight-{wl.k} bitstring")
            elif any(not ones.intersection(e) for e in inst.edges):
                problems.append(f"row {row} misses an edge")
    return [f"{wl.name}#{inst.index}: {p}" for p in problems]
