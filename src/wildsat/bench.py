"""Random instance generation and the benchmark harness."""

from __future__ import annotations

import random
from dataclasses import dataclass

from .engine import EngineConfig, Method, Policy, run, validate_config
from .formulas import Clause, Cnf
from .rows import RunStats
from .sat import prob_final


@dataclass(frozen=True)
class GenSpec:
    """Parameters of a random CNF: h clauses, each over lam distinct
    variables out of w, polarities by fair coin unless positive."""

    w: int
    h: int
    lam: int
    positive: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if self.w < 1:
            raise ValueError("w must be positive")
        if self.h < 0:
            raise ValueError("h must be non-negative")
        if not 1 <= self.lam <= self.w:
            raise ValueError("lambda must lie in [1, w]")


def gen_random_cnf(spec: GenSpec) -> Cnf:
    """Deterministic per seed; duplicate clauses may occur."""
    rng = random.Random(spec.seed)
    clauses = []
    for _ in range(spec.h):
        variables = sorted(rng.sample(range(1, spec.w + 1), spec.lam))
        lits = tuple(
            v if spec.positive or rng.random() < 0.5 else -v for v in variables
        )
        clauses.append(Clause(lits))
    return Cnf(spec.w, tuple(clauses))


@dataclass(frozen=True)
class BenchRecord:
    method: str
    policy: str
    rows: int
    models: int
    gamma_avg: float
    prob: float
    time_s: float
    harmful_deletions: int

    def as_line(self) -> str:
        prob = "≈0" if 0 <= self.prob < 1e-6 else f"{self.prob:.6f}"
        return (
            f"method={self.method} policy={self.policy} R={self.rows} "
            f"models={self.models} gamma={self.gamma_avg:.4f} prob={prob} "
            f"time_s={self.time_s:.4f} harmful={self.harmful_deletions}"
        )


def run_bench(
    spec: GenSpec,
    methods: "list[Method]",
    policy: Policy = Policy.SOLVER,
) -> list[BenchRecord]:
    """Run the selected methods on one generated instance, sequentially so
    the timings stay comparable.

    Every method/policy pair is checked with ``validate_config`` before any
    of them runs; an invalid pair raises ValueError.
    """
    cnf = gen_random_cnf(spec)
    configs = [EngineConfig(method=method, policy=policy) for method in methods]
    for config in configs:
        validate_config(cnf, config)
    records = []
    for config in configs:
        stats: RunStats = run(cnf, config).stats
        records.append(
            BenchRecord(
                method=stats.method,
                policy=stats.policy,
                rows=stats.rows,
                models=stats.models,
                gamma_avg=stats.gamma_avg,
                prob=prob_final(spec.w, stats.gamma_avg, spec.h, spec.lam),
                time_s=stats.time_s,
                harmful_deletions=stats.harmful_deletions,
            )
        )
    return records
