"""Golden pins of the clause-e write path.

The row files of clause-e runs and the rows ``impose_on_slots`` returns
decide every e-row the program emits.  The digests below were recorded from
the version that rebuilt and re-validated a row per staircase column and
rescanned the pending clause from clause 1; any rewrite of that path must
reproduce them exactly, row for row.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from oracle import random_row012e
from wildsat.bench import GenSpec, gen_random_cnf
from wildsat.engine import EngineConfig, Method, Policy, run
from wildsat.rows import format_rows, impose_on_slots

# (results, nonempty results, pieces, sha256 of the pieces' fields)
IMPOSE_GOLDEN = (600, 578, 795, "c75d389bfd0bc98e314572a8b88d53a070a866b8d9e6fe69a7975f2898011162")

# (policy, gen seed) -> (solver_calls, harmful_deletions, rows, sha256 of the row file)
RUN_GOLDEN = {
    ("none", 1): (0, 39, 68, "ea26e37672c34fbdf5b53545a0df55c7d7b8c9833d6cdf4ffe8f026c14544df1"),
    ("none", 2): (0, 12, 40, "7bd36c4e634fa89023efb4175610f41684c830960ef4ecd078ea63faa2a562a3"),
    ("none", 3): (0, 20, 28, "096975d35a59ae94d7d7ccbe6b7caeeeb0985dbc6d0d6cf51feca521a842a108"),
    ("solver", 1): (78, 0, 68, "ea26e37672c34fbdf5b53545a0df55c7d7b8c9833d6cdf4ffe8f026c14544df1"),
    ("solver", 2): (43, 0, 40, "7bd36c4e634fa89023efb4175610f41684c830960ef4ecd078ea63faa2a562a3"),
    ("solver", 3): (44, 0, 28, "096975d35a59ae94d7d7ccbe6b7caeeeb0985dbc6d0d6cf51feca521a842a108"),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _impose_sweep() -> list[list[tuple]]:
    """impose_on_slots on random e-rows (bad pairs allowed) and slot lists
    over distinct variables, as clauses and bubbles produce them."""
    rng = random.Random(20161005)
    out = []
    for _ in range(IMPOSE_GOLDEN[0]):
        w = rng.randint(1, 9)
        row = random_row012e(rng, w, max_bubbles=4)
        vars_ = rng.sample(range(1, w + 1), rng.randint(1, min(w, 5)))
        slots = [2 * (v - 1) + rng.randint(0, 1) for v in vars_]
        out.append([(r.width, r.slots, r.bubbles) for r in impose_on_slots(row, slots)])
    return out


def test_impose_sweep_matches_golden():
    results = _impose_sweep()
    got = (
        len(results),
        sum(bool(r) for r in results),
        sum(len(r) for r in results),
        _sha256(repr(results)),
    )
    assert got == IMPOSE_GOLDEN


@pytest.mark.parametrize("policy, seed", sorted(RUN_GOLDEN))
def test_clause_e_run_matches_golden(policy, seed):
    cnf = gen_random_cnf(GenSpec(12, 26, 3, seed=seed))
    result = run(cnf, EngineConfig(method=Method.CLAUSE_E, policy=Policy(policy)))
    st = result.stats
    got = (st.solver_calls, st.harmful_deletions, len(result), _sha256(format_rows(result)))
    assert got == RUN_GOLDEN[policy, seed]
