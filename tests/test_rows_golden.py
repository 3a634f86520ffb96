"""Golden pins of the clause-e write path.

The row files of clause-e runs, and the rows that ``impose_on_slots``,
``purify``, ``expand_to_012``, ``intersect_e`` and ``parse_rows`` return,
decide every e-row the program emits.  The impose sweep and the none/solver
runs were recorded from the version that rebuilt and re-validated a row per
staircase column and rescanned the pending clause from clause 1; the test1
runs, the purify, intersect and parse pins from the version that still
edited rows through a mutable slot/bubble builder.  Any rewrite of that path
must reproduce them exactly, row for row.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from oracle import intersect_e, random_row012e
from wildsat.bench import GenSpec, gen_random_cnf
from wildsat.engine import EngineConfig, Method, Policy, run
from wildsat.rows import Row012e, expand_to_012, format_rows, impose_on_slots, parse_rows, purify

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

# clause-e/test1 on positive instances: gen seed -> (harmful_deletions, rows,
# sha256 of the row file)
TEST1_GOLDEN = {
    1: (0, 73, "b5cd5f2c855b564f1c23b8b319e2fee99824017d0ac8a30d249c398d719b7f71"),
    2: (0, 72, "628f629862584ad8f96ecb8074cb737232beefaa489cdd9f115c09cfe3c97bec"),
    3: (0, 110, "c6955ed14607392413105ed750aa40c9b75ce3d23f116664dd06e66fd54e86c1"),
    4: (0, 69, "e9b6e2b5d81416cd7c80197d07032034756565ba3aa4667923bea26170e811ab"),
}

# (rows, pieces, expanded 012-rows, sha256 of the pieces and their expansions)
PURIFY_GOLDEN = (500, 3884, 4722, "f8830b86750cbad461d47c0570b1cf290505260b53e8256c4c57cc6e3ee8e595")

# (pairs, nonempty results, pieces, sha256 of the pieces' fields)
INTERSECT_GOLDEN = (500, 460, 798, "0736f44d9367c47c9cdae5e2cb02a4812b067ddc32c98c028c1c3ab949519aff")

# parse_rows normalises a one-slot bubble to a fixed 1: row text ->
# (width, slots, bubbles) of the parsed row and its re-formatted text
PARSE_GOLDEN = {
    "e1 n1": ((2, (3, 2, 2, 3), ((0, 3),)), "e1 n1"),
    "e1 2": ((2, (1, 0, 2, 2), ()), "1 2"),
    "e1 e2 n1": ((3, (3, 2, 1, 0, 2, 3), ((0, 5),)), "e1 1 n1"),
    "e1 n2 0": ((3, (1, 0, 0, 1, 0, 1), ()), "1 0 0"),
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


def _fields(row) -> tuple | str:
    return (row.width, row.slots, row.bubbles) if isinstance(row, Row012e) else str(row)


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


@pytest.mark.parametrize("seed", sorted(TEST1_GOLDEN))
def test_clause_e_test1_run_matches_golden(seed):
    cnf = gen_random_cnf(GenSpec(12, 26, 3, positive=True, seed=seed))
    result = run(cnf, EngineConfig(method=Method.CLAUSE_E, policy=Policy.TEST1))
    st = result.stats
    assert st.solver_calls == 0
    got = (st.harmful_deletions, len(result), _sha256(format_rows(result)))
    assert got == TEST1_GOLDEN[seed]


def test_purify_expand_sweep_matches_golden():
    """purify on random e-rows with bad pairs, and expand_to_012 on every
    piece."""
    rng = random.Random(20161006)
    out = []
    for _ in range(PURIFY_GOLDEN[0]):
        row = random_row012e(rng, rng.randint(1, 9), max_bubbles=5)
        out.append([(_fields(p), [str(c) for c in expand_to_012(p)]) for p in purify(row)])
    got = (
        len(out),
        sum(len(o) for o in out),
        sum(len(c) for o in out for _, c in o),
        _sha256(repr(out)),
    )
    assert got == PURIFY_GOLDEN


def test_intersect_e_sweep_matches_golden():
    rng = random.Random(20161007)
    out = []
    for _ in range(INTERSECT_GOLDEN[0]):
        w = rng.randint(1, 9)
        a = random_row012e(rng, w, max_bubbles=4)
        b = random_row012e(rng, w, max_bubbles=4)
        out.append([_fields(p) for p in intersect_e(a, b)])
    got = (len(out), sum(bool(o) for o in out), sum(len(o) for o in out), _sha256(repr(out)))
    assert got == INTERSECT_GOLDEN


@pytest.mark.parametrize("line", sorted(PARSE_GOLDEN))
def test_parse_rows_normalisation_matches_golden(line):
    rows = parse_rows(f"rows w={len(line.split())} n=1\n{line}\n")
    assert (_fields(rows.rows[0]), format_rows(rows).splitlines()[1]) == PARSE_GOLDEN[line]
