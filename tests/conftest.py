"""Shared fixtures: the worked examples used as golden test data."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from wildsat.formulas import Cnf, parse_dimacs
from oracle import EBuilder
from wildsat.rows import Row012, Row012e, RowList

PHI0_DIMACS = "p cnf 9 1\n2 -6 0\n"

PHI2_DIMACS = (
    "p cnf 5 7\n"
    "-1 -2 3 0\n"
    "2 -3 -4 0\n"
    "-3 5 0\n"
    "1 3 5 0\n"
    "1 4 -5 0\n"
    "-1 2 3 0\n"
    "-2 4 5 0\n"
)

# Disjoint subcube enumeration of the same model set as phi2, obtained from
# a five-variable decision diagram; fixed test data.
EQ4_ROWS = ["00011", "01211", "10101", "11121"]

# The phi2 model set as three subcubes (condensed clause-e output).
EQ11_ROWS = ["02011", "21111", "12101"]


def row012(text: str) -> Row012:
    return Row012(tuple(int(ch) for ch in text.strip()))


def erow(pattern: str, width: int | None = None) -> Row012e:
    """Build a 012e-row from per-slot tokens like '2 e1 2 e1 0 1 2 2 2 2'.

    Tokens are 0/1/2 or a bubble label; equal labels join one bubble.
    """
    toks = pattern.split()
    if width is None:
        assert len(toks) % 2 == 0
        width = len(toks) // 2
    b = EBuilder(width)
    groups: dict[str, list[int]] = {}
    fixed: list[tuple[int, int]] = []
    for slot, tok in enumerate(toks):
        if tok in ("0", "1"):
            fixed.append((slot, int(tok)))
        elif tok == "2":
            continue
        else:
            groups.setdefault(tok, []).append(slot)
    for slot, v in fixed:
        if b.slots[slot] != v:
            b.set_fixed(slot, v)
    for _, slots in sorted(groups.items()):
        b.new_bubble(slots)
    return b.freeze()


@pytest.fixture
def phi0() -> Cnf:
    return parse_dimacs(PHI0_DIMACS)


@pytest.fixture
def phi2() -> Cnf:
    return parse_dimacs(PHI2_DIMACS)


@pytest.fixture
def eq4_rowlist() -> RowList:
    return RowList(5, tuple(row012(t) for t in EQ4_ROWS))


# Stack rows of the clause-wise e-run on phi2, per-slot over
# x1 ~x1 x2 ~x2 x3 ~x3 x4 ~x4 x5 ~x5.
TABLE3 = {
    1: "2 2 2 2 2 2 2 2 2 2",
    2: "2 e 2 e e 2 2 2 2 2",
    3: "2 e1 e2 e1 e1 e2 2 e2 2 2",
    4: "2 e1 2 e1 0 1 2 2 2 2",
    5: "2 2 e2 2 1 0 2 e2 2 2",
    6: "2 2 e2 2 1 0 2 e2 1 0",
    7: "e2 e1 2 e1 0 1 2 2 e2 2",
    8: "1 0 0 1 0 1 2 2 2 2",
    9: "0 1 2 2 0 1 2 2 1 0",
    10: "0 1 2 2 0 1 1 0 1 0",
    11: "e1 2 e2 2 1 0 e1 e2 1 0",
    12: "2 2 1 0 1 0 1 0 1 0",
    13: "1 0 2 2 1 0 0 1 1 0",
}


@pytest.fixture
def table3() -> dict[int, Row012e]:
    return {i: erow(pat) for i, pat in TABLE3.items()}
