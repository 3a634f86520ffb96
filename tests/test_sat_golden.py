"""Golden pins of the solver's determinism.

The models returned by ``dpll_sat``, ``find_model`` and ``find_k_model``
decide which witnesses the engine reuses as hints, so they decide
``solver_calls`` and, through it, nothing less than the run's cost.  The
digests below were recorded from the original recursive DPLL; any solver
rewrite must reproduce them exactly, model for model.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from oracle import random_cnf, random_row012e
from wildsat.bench import GenSpec, gen_random_cnf
from wildsat.engine import CardinalityFilter, EngineConfig, Method, Policy, run
from wildsat.rows import Row012, format_rows
from wildsat.sat import dpll_sat, find_k_model, find_model

# function -> (results, satisfiable results, sha256 of repr(results))
SWEEP_GOLDEN = {
    "dpll_sat": (400, 238, "7831333979b1adea40284247777d5368b0fc10aabfa245f4b3a6fe3b4ccc7ef9"),
    "find_model": (800, 395, "37933f25c385e349b6cccf11137eb56e27658e1be33d7c1aa603906060ac9c4e"),
    "find_k_model": (400, 86, "42589ccad241f2048ce45155d388e099d627b105cd67da473f36434ee4db6ee3"),
}

# (method, gen seed) -> (solver_calls, rows, sha256 of the row file)
RUN_GOLDEN = {
    ("clause012", 1): (115, 79, "f960ce732fa1e732ea23651001bdaf9d58d9d66019376f8fce479bf48a332361"),
    ("clause012", 2): (147, 70, "6d17dc9c3f12b55b159314f2457af05893c858de07734d7d90e1f17225cf61f9"),
    ("clause012", 3): (83, 42, "d9f10e180e44c74d2533676f1c4ad267d87f6054ae30b942e934d5478980a59d"),
    ("var012k", 1): (654, 151, "6c7a490ebc7b621b78ef8673616a51221ac56b32228d8c3e3657fd14561d957c"),
    ("var012k", 2): (682, 145, "1286c1fb4431455ca0ae7414ac80a7da28afa7a36cce3b537a16ae06e6607199"),
    ("var012k", 3): (380, 76, "7b9c899c0bab122f4e26e582959e86e3c60c59201f9ee5214f51035e5d991bbb"),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _sweep() -> dict[str, list]:
    rng = random.Random(20161004)
    out: dict[str, list] = {"dpll_sat": [], "find_model": [], "find_k_model": []}
    for _ in range(400):
        w = rng.randint(1, 10)
        cnf = random_cnf(rng, w, rng.randint(0, 24), rng.randint(1, min(4, w)))
        row = Row012(tuple(rng.choice((0, 1, 2, 2, 2)) for _ in range(w)))
        erow = random_row012e(rng, w)
        out["dpll_sat"].append(dpll_sat(cnf))
        out["find_model"].append(find_model(row, cnf))
        out["find_model"].append(find_model(erow, cnf))
        out["find_k_model"].append(find_k_model(row, cnf, rng.randint(0, w)))
    return out


def test_sweep_models_match_golden():
    for name, results in _sweep().items():
        got = (len(results), sum(r is not None for r in results), _sha256(repr(results)))
        assert got == SWEEP_GOLDEN[name], name


@pytest.mark.parametrize("method, seed", sorted(RUN_GOLDEN))
def test_run_matches_golden(method, seed):
    if method == "clause012":
        cnf = gen_random_cnf(GenSpec(12, 26, 3, seed=seed))
        config = EngineConfig(method=Method.CLAUSE012, policy=Policy.SOLVER)
    else:
        cnf = gen_random_cnf(GenSpec(12, 14, 3, seed=seed))
        config = EngineConfig(
            method=Method.VAR012, policy=Policy.SOLVER, spmod=CardinalityFilter(cnf, 5)
        )
    result = run(cnf, config)
    got = (result.stats.solver_calls, len(result), _sha256(format_rows(result)))
    assert got == RUN_GOLDEN[method, seed]
