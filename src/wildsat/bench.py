"""Random instance generation and the benchmark harness."""

from __future__ import annotations

import random
from dataclasses import dataclass

from .engine import EngineConfig, Method, Policy, run, validate_config
from .formulas import Clause, Cnf
from .rows import RunStats


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
        for name, value in (("w", self.w), ("h", self.h), ("lambda", self.lam)):
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer")
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


def run_bench(
    spec: GenSpec,
    methods: list[Method],
    policy: Policy = Policy.SOLVER,
) -> list[RunStats]:
    """Run the selected methods on one generated instance, sequentially so
    the timings stay comparable.

    Every method/policy pair is checked with ``validate_config`` before any
    of them runs; an invalid pair, or no method at all, raises ValueError.
    """
    if not methods:
        raise ValueError("no method to bench")
    cnf = gen_random_cnf(spec)
    configs = [EngineConfig(method=method, policy=policy) for method in methods]
    for config in configs:
        validate_config(cnf, config)
    return [run(cnf, config).stats for config in configs]
