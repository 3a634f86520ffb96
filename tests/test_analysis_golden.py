"""Golden pins of the equivalence read path.

``equivalent`` reports its verdict, the index of the first row of its first
list that has members outside the second list, and a reason; and
``count_by_cardinality`` splits a row list's models by cardinality.  The
values below were recorded from the version that ran the full
inclusion-exclusion intersection on every row pair and walked all w
variables to find bad pairs; any rewrite of that path must reproduce them
exactly, witness index included.

The pairs compare the clause-e/none enumeration of a ``gen_random_cnf``
instance with that of a variant: its clauses reordered, one clause dropped,
or one literal flipped.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from wildsat.analysis import count_by_cardinality, equivalent
from wildsat.bench import GenSpec, gen_random_cnf
from wildsat.engine import EngineConfig, Method, Policy, run
from wildsat.formulas import Clause, Cnf

CONFIG = EngineConfig(method=Method.CLAUSE_E, policy=Policy.NONE)

# gen seed -> count_by_cardinality of the instance
COUNT_GOLDEN = {
    1: (0, 0, 0, 2, 7, 13, 10, 2, 0, 0, 0),
    2: (0, 0, 2, 8, 15, 20, 17, 9, 4, 1, 0),
    3: (0, 1, 2, 2, 4, 8, 9, 2, 0, 0, 0),
}

# (gen seed, variant, argument) -> (equal, witness, reason,
#                                   count_by_cardinality of the variant)
# argument: the shuffle seed, the dropped clause, or (clause, literal) flipped
EQUIV_GOLDEN = {
    (1, "reorder", 1): (True, None, "equal model sets of size 34", (0, 0, 0, 2, 7, 13, 10, 2, 0, 0, 0)),
    (1, "drop", 0): (False, None, "model counts differ: 34 != 36", (0, 0, 0, 3, 8, 13, 10, 2, 0, 0, 0)),
    (1, "drop", 2): (True, None, "equal model sets of size 34", (0, 0, 0, 2, 7, 13, 10, 2, 0, 0, 0)),
    (1, "flip", (0, 1)): (False, 15, "row 15 has members outside the other list", (0, 0, 0, 3, 8, 12, 9, 2, 0, 0, 0)),
    (1, "flip", (4, 1)): (False, 1, "row 1 has members outside the other list", (0, 0, 0, 2, 7, 12, 10, 3, 0, 0, 0)),
    (1, "flip", (0, 0)): (False, None, "model counts differ: 34 != 26", (0, 0, 0, 2, 5, 9, 8, 2, 0, 0, 0)),
    (2, "reorder", 2): (True, None, "equal model sets of size 76", (0, 0, 2, 8, 15, 20, 17, 9, 4, 1, 0)),
    (2, "drop", 0): (True, None, "equal model sets of size 76", (0, 0, 2, 8, 15, 20, 17, 9, 4, 1, 0)),
    (2, "drop", 1): (False, None, "model counts differ: 76 != 78", (0, 0, 2, 8, 15, 20, 18, 10, 4, 1, 0)),
    (2, "flip", (1, 0)): (False, 2, "row 2 has members outside the other list", (0, 0, 2, 8, 15, 19, 17, 10, 4, 1, 0)),
    (2, "flip", (7, 0)): (False, 16, "row 16 has members outside the other list", (0, 0, 2, 8, 15, 19, 17, 10, 4, 1, 0)),
    (2, "flip", (0, 0)): (True, None, "equal model sets of size 76", (0, 0, 2, 8, 15, 20, 17, 9, 4, 1, 0)),
    (3, "reorder", 3): (True, None, "equal model sets of size 28", (0, 1, 2, 2, 4, 8, 9, 2, 0, 0, 0)),
    (3, "drop", 1): (False, None, "model counts differ: 28 != 32", (0, 1, 2, 3, 6, 9, 9, 2, 0, 0, 0)),
    (3, "drop", 2): (True, None, "equal model sets of size 28", (0, 1, 2, 2, 4, 8, 9, 2, 0, 0, 0)),
    (3, "flip", (12, 2)): (False, 5, "row 5 has members outside the other list", (0, 1, 2, 2, 3, 7, 8, 4, 1, 0, 0)),
    (3, "flip", (19, 2)): (False, 9, "row 9 has members outside the other list", (0, 1, 2, 2, 5, 10, 7, 1, 0, 0, 0)),
    (3, "flip", (0, 1)): (True, None, "equal model sets of size 28", (0, 1, 2, 2, 4, 8, 9, 2, 0, 0, 0)),
}

# every dropped clause and every flipped literal of one instance, compared
# both ways: (pairs, equal, with a witness, sha256 of the verdicts)
SWEEP_SEED = 8
SWEEP_GOLDEN = (192, 12, 20, "bdffe2c28dbac2b4a5192d67bbd1c4beda0e33aff296940363d32a6218bae683")


def _instance(seed: int) -> Cnf:
    return gen_random_cnf(GenSpec(10, 24, 3, seed=seed))


def _variant(cnf: Cnf, kind: str, arg) -> Cnf:
    clauses = list(cnf.clauses)
    if kind == "reorder":
        random.Random(arg).shuffle(clauses)
    elif kind == "drop":
        del clauses[arg]
    else:
        i, j = arg
        lits = list(clauses[i].lits)
        lits[j] = -lits[j]
        clauses[i] = Clause(tuple(lits))
    return Cnf(cnf.num_vars, tuple(clauses))


def _verdict(rows_a, rows_b) -> tuple:
    res = equivalent(rows_a, rows_b)
    return (res.equal, res.witness, res.reason)


def _sweep() -> list[tuple]:
    cnf = _instance(SWEEP_SEED)
    rows = run(cnf, CONFIG)
    args = [("drop", i) for i in range(len(cnf.clauses))]
    args += [("flip", (i, j)) for i, c in enumerate(cnf.clauses) for j in range(len(c.lits))]
    out = []
    for kind, arg in args:
        other = run(_variant(cnf, kind, arg), CONFIG)
        out.append(_verdict(rows, other))
        out.append(_verdict(other, rows))
    return out


@pytest.mark.parametrize("seed", sorted(COUNT_GOLDEN))
def test_count_by_cardinality_matches_golden(seed):
    rows = run(_instance(seed), CONFIG)
    assert count_by_cardinality(rows).coefficients == COUNT_GOLDEN[seed]


@pytest.mark.parametrize("seed, kind, arg", sorted(EQUIV_GOLDEN, key=repr))
def test_equivalent_matches_golden(seed, kind, arg):
    cnf = _instance(seed)
    rows_a = run(cnf, CONFIG)
    rows_b = run(_variant(cnf, kind, arg), CONFIG)
    got = _verdict(rows_a, rows_b) + (count_by_cardinality(rows_b).coefficients,)
    assert got == EQUIV_GOLDEN[seed, kind, arg]


def test_golden_cases_cover_every_verdict():
    verdicts = {(eq, wit is None, reason.split()[0]) for eq, wit, reason, _ in EQUIV_GOLDEN.values()}
    assert verdicts == {
        (True, True, "equal"),
        (False, True, "model"),  # counts differ
        (False, False, "row"),  # equal counts, a witness row
    }


def test_sweep_matches_golden():
    verdicts = _sweep()
    got = (
        len(verdicts),
        sum(v[0] for v in verdicts),
        sum(v[1] is not None for v in verdicts),
        hashlib.sha256(repr(verdicts).encode()).hexdigest(),
    )
    assert got == SWEEP_GOLDEN
