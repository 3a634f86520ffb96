"""Feasibility and finality tests for rows, plus the internal solver.

A row is feasible when it intersects the model set, final when it is
contained in it.  A test answering "no" only when the row is certainly
infeasible is weak; if its "yes" can also be trusted it is perfect.  The
solver-backed test is perfect; Test 1 and Test 2 are cheap weak tests
(Test 1 turns perfect on positive CNFs).

The solver is one iterative DPLL over bitmasks, behind both ``dpll_sat`` and
``find_k_model``.  A clause is its pair of (pos, neg) variable masks
(``Clause.masks``, bit v-1 for variable v) and an assignment is two ints,
``ones`` and ``zeros``.  Unit propagation makes passes over the clause masks
until a pass finds no unit.  A node that survives it branches on the lowest
variable of any unresolved clause, value 1 first, and saves the state of
its 0 branch on a trail; backtracking pops the trail, so nothing is copied
and there is no recursion limit.  Variables never forced stay 0.  With a
cardinality bound k a node is also pruned when it holds more than k ones or
too few free variables to reach k, and a model is completed by setting the
lowest free variables to 1.  The model is thus a fixed function of the
formula (and row), which the engine relies on when it reuses a parent's
witness for its sons.

Any ``SolverFn`` can replace ``dpll_sat`` in the engine.  It receives a plain
``Cnf`` holding the base clauses followed by the row's clauses
(``augment_cnf``) and returns a model or None.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Callable

from .formulas import Clause, Cnf
from .rows import ONE, TWO, ZERO, Row012, Row012e, slot_of_lit


@dataclass(frozen=True)
class Verdict:
    """Feasibility answer plus its strength."""

    feasible: bool
    perfect: bool

    def __bool__(self) -> bool:
        return self.feasible


@dataclass
class SolverStats:
    decisions: int = 0
    propagations: int = 0
    conflicts: int = 0


# A decision procedure maps a Cnf to a model or None (UNSAT).  dpll_sat below
# is the built-in one; anything with this signature can be plugged into the
# engine instead.
SolverFn = Callable[[Cnf], "tuple[int, ...] | None"]


def _propagate(
    clauses: list[tuple[int, int]], ones: int, zeros: int, full: int, stats: SolverStats
) -> tuple[int, int, int] | None:
    """Unit propagation to a fixpoint: (ones, zeros, open) with ``open`` the
    free variables of the unresolved clauses, or None on a conflict."""
    while True:
        free = full & ~(ones | zeros)
        open_ = 0
        unit = False
        for pos, neg in clauses:
            if pos & ones or neg & zeros:
                continue
            lits = (pos | neg) & free
            if not lits:
                stats.conflicts += 1
                return None
            if lits & (lits - 1):
                open_ |= lits
                continue
            if pos & lits:
                ones |= lits
            else:
                zeros |= lits
            free ^= lits
            unit = True
            stats.propagations += 1
        if not unit:
            return ones, zeros, open_


def _search(
    num_vars: int,
    clauses: list[tuple[int, int]],
    ones: int = 0,
    zeros: int = 0,
    k: int | None = None,
    stats: SolverStats | None = None,
) -> int | None:
    """The ones mask of the first model in branching order, or None.

    ``ones``/``zeros`` are the variables fixed beforehand; with ``k`` only
    models with exactly k ones count.
    """
    if stats is None:
        stats = SolverStats()
    full = (1 << num_vars) - 1
    trail: list[tuple[int, int]] = []  # (ones, zeros) of each pending 0 branch
    while True:
        node = _propagate(clauses, ones, zeros, full, stats)
        if node is not None and k is not None:
            n1 = node[0].bit_count()
            if not n1 <= k <= n1 + (full & ~(node[0] | node[1])).bit_count():
                node = None
        if node is None:
            if not trail:
                return None
            ones, zeros = trail.pop()
            continue
        ones, zeros, open_ = node
        if not open_:
            if k is not None:
                free = full & ~(ones | zeros)
                for _ in range(k - ones.bit_count()):
                    low = free & -free
                    ones |= low
                    free ^= low
            return ones
        bit = open_ & -open_
        stats.decisions += 1
        trail.append((ones, zeros | bit))
        ones |= bit


def _bits(ones: int, num_vars: int) -> tuple[int, ...]:
    return tuple(ones >> i & 1 for i in range(num_vars))


def dpll_sat(cnf: Cnf, stats: SolverStats | None = None) -> tuple[int, ...] | None:
    """A model of the formula as a bitstring, or None when unsatisfiable."""
    ones = _search(cnf.num_vars, [c.masks for c in cnf.clauses], stats=stats)
    return None if ones is None else _bits(ones, cnf.num_vars)


def find_k_model(
    row: Row012, cnf: Cnf, k: int, stats: SolverStats | None = None
) -> tuple[int, ...] | None:
    """A model with exactly k ones inside the row, or None."""
    if row.width != cnf.num_vars:
        raise ValueError("row width does not match num_vars")
    ones = zeros = 0
    for i, s in enumerate(row.symbols):
        if s == ONE:
            ones |= 1 << i
        elif s == ZERO:
            zeros |= 1 << i
    found = _search(row.width, [c.masks for c in cnf.clauses], ones, zeros, k, stats)
    return None if found is None else _bits(found, row.width)


@cache
def _unit(lit: int) -> Clause:
    return Clause((lit,))


def row_constraint_clauses(row: Row012 | Row012e) -> tuple[Clause, ...]:
    """The row as clauses: one unit per fixed variable, one clause per bubble.

    Unit clauses are validated once per literal and then shared.
    """
    if isinstance(row, Row012):
        return tuple(_unit(v if s == ONE else -v) for v, s in enumerate(row.symbols, 1) if s != TWO)
    units = tuple(
        _unit(v if s == ONE else -v)
        for v, s in enumerate(row.slots[::2], 1)
        if s == ONE or s == ZERO
    )
    return units + tuple(Clause(tuple(map(_slot_lit, members))) for members in row.bubbles)


def _slot_lit(slot: int) -> int:
    var = slot // 2 + 1
    return var if slot % 2 == 0 else -var


def augment_cnf(cnf: Cnf, row: Row012 | Row012e) -> Cnf:
    """The formula restricted to the row: its clauses followed by the row's.

    The base clauses were validated when ``cnf`` was built, so only the
    row's clauses are checked here.
    """
    if row.width != cnf.num_vars:
        raise ValueError("row width does not match num_vars")
    return Cnf._unchecked(cnf.num_vars, cnf.clauses + row_constraint_clauses(row))


def find_model(row: Row012 | Row012e, cnf: Cnf, solver: SolverFn = dpll_sat) -> tuple[int, ...] | None:
    """A model of the formula inside the row, or None."""
    return solver(augment_cnf(cnf, row))


def clause_dead_in(row: Row012 | Row012e, clause: Clause) -> bool:
    """True when every literal of the clause is falsified by the row's fixed
    values, so no member of the row can satisfy it."""
    if isinstance(row, Row012):
        for lit in clause.lits:
            v = row.value(abs(lit))
            if v == TWO or v == (1 if lit > 0 else 0):
                return False
        return True
    for lit in clause.lits:
        if row.slots[slot_of_lit(lit)] != ZERO:
            return False
    return True


def row_satisfies_clause(row: Row012 | Row012e, clause: Clause) -> bool:
    """True when every member of the row satisfies the clause.

    For 012-rows this means some literal is already fixed true.  For e-rows
    a bubble entirely inside the clause's literal slots also settles it,
    since some slot of the bubble carries a 1.
    """
    if isinstance(row, Row012):
        for lit in clause.lits:
            if row.value(abs(lit)) == (1 if lit > 0 else 0):
                return True
        return False
    cslots = {slot_of_lit(l) for l in clause.lits}
    if any(row.slots[s] == ONE for s in cslots):
        return True
    return any(set(m) <= cslots for m in row.bubbles)


def test1(row: Row012 | Row012e, cnf: Cnf) -> Verdict:
    """No iff some clause has all its literals falsified by the row.

    Weak in general; perfect when the formula is positive, because setting
    every non-zero position to 1 then witnesses feasibility.
    """
    perfect = cnf.is_positive()
    for clause in cnf.clauses:
        if clause_dead_in(row, clause):
            return Verdict(False, perfect)
    return Verdict(True, perfect)


def test2(row: Row012, cnf: Cnf) -> Verdict:
    """Pair test: clauses Ci, Cj sharing a variable p positively/negatively
    whose remaining literals are all falsified force p to 1 and 0 at once."""
    zeros, ones = row.zeros(), row.ones()
    clauses = cnf.clauses
    for i, ci in enumerate(clauses):
        for j, cj in enumerate(clauses):
            if i == j:
                continue
            for p in ci.pos & cj.neg:
                if (ci.pos - {p}) | cj.pos <= zeros and (cj.neg - {p}) | ci.neg <= ones:
                    return Verdict(False, perfect=False)
    return Verdict(True, perfect=False)


def final_012(row: Row012, cnf: Cnf) -> bool:
    """Perfect containment test: every clause holds on the whole row."""
    return all(row_satisfies_clause(row, c) for c in cnf.clauses)


def final_e(row: Row012e, cnf: Cnf) -> bool:
    """Containment test for e-rows via the per-clause rule of
    row_satisfies_clause.

    Sound always: a true answer really means the row is contained.  Exact on
    purified rows.  A row with bad pairs can be contained without the rule
    seeing it (two bubbles may force a clause jointly); the enumeration then
    simply splits such a row once more, so only compression is affected.
    """
    return all(row_satisfies_clause(row, c) for c in cnf.clauses)


def prob_final(w: int, gamma: float, h: int, lam: int) -> float:
    """Probability that a random row with gamma don't-cares is final for a
    random CNF with h clauses of length lam: [1 - 0.5^((lam/w)(w-gamma))]^h."""
    if w == 0:
        raise ZeroDivisionError("prob_final undefined for w = 0")
    if not 0 <= gamma <= w:
        raise ValueError("gamma must lie in [0, w]")
    if not 0 <= lam <= w:
        raise ValueError("lambda must lie in [0, w]")
    base = 1.0 - 0.5 ** ((lam / w) * (w - gamma))
    return base ** h
