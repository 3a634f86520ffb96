"""Feasibility and finality tests for rows, plus the internal solver.

A row is feasible when it intersects the model set, final when it is
contained in it.  A test answering "no" only when the row is certainly
infeasible is weak; if its "yes" can also be trusted it is perfect.  The
solver-backed test is perfect; Test 1 and Test 2 are cheap weak tests
(Test 1 turns perfect on positive CNFs).

The solver is one iterative DPLL over bitmasks.  A clause is its pair of
(pos, neg) variable masks (``Clause.masks``, bit v-1 for variable v) and an
assignment is two ints, ``ones`` and ``zeros``.  ``search_from`` is the
whole of it: its loop runs the unit propagation of each node, then the
search under a row's pins, from the root fixpoint of an ancestor row when
it has one, with or without a cardinality bound k; the engine calls it on
a 012-son's masks.
``solve_row`` is the search inside a row object: it adds the e-row case
and the plugged ``SolverFn``.
``dpll_sat``, ``find_model`` and ``find_k_model`` wrap them with a tuple
result.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .formulas import Clause, Cnf, evaluate
from .rows import Row012, Row012e, RunStats, _pack, _slots_of, _var_masks, lit_of_slot, settles

_FROM_TEXT = bytes.maketrans(b"01", b"\x00\x01")


# A decision procedure maps a Cnf to a model or None (UNSAT).  dpll_sat below
# is the built-in one; anything with this signature can be plugged into the
# engine instead.
SolverFn = Callable[[Cnf], "tuple[int, ...] | None"]

# A root fixpoint: the (ones, zeros) that unit propagation reaches before any
# decision, with the formula's clauses it leaves open, in clause order.
Fixpoint = tuple[int, int, "list[tuple[int, int]]"]


def search_from(
    num_vars: int,
    clauses: Sequence[tuple[int, int]],
    ones: int = 0,
    zeros: int = 0,
    start: Fixpoint | None = None,
    k: int | None = None,
    stats: RunStats | None = None,
    extra: Sequence[tuple[int, int]] = (),
) -> tuple[int, Fixpoint] | None:
    """The first model in branching order under the pins ``ones``/``zeros``,
    over ``clauses`` and then ``extra`` (an e-row's bubbles), as the pair
    (ones mask, root ``Fixpoint``), or None.

    ``clauses`` need hold only those the pins leave unsatisfied.  Each node
    first runs unit propagation to a fixpoint, in passes: a pass reads, in
    order, the clauses the previous one left unresolved (the clauses it
    skips stay satisfied, so the units and conflicts are those of full
    passes), and a pass ends at the first conflict.  A node branches on the
    lowest variable of its open clauses, 1 first, keeping its 0 branch on a
    trail; variables never forced stay 0, so the model is a fixed function
    of the clauses and pins.  ``start``, the root fixpoint of a row that
    holds the pinned one, joins its pins to them (None on a clash) and its
    open clauses replace ``clauses``.  With ``k`` only models with exactly
    k ones count, the lowest free variables completing one; a k-node is
    pruned when its ones plus a greedy packing of its all-positive open
    clauses with disjoint free variables exceed k.  The search counts its
    units, conflicts and decisions in locals and adds them to ``stats`` as
    it returns.
    """
    if start is not None:
        f1, f0, clauses = start
        if ones & f0 or zeros & f1:
            return None
        ones |= f1
        zeros |= f0
    if extra:
        clauses = [*clauses, *extra]
    full = (1 << num_vars) - 1
    if k is not None and not 0 <= k - ones.bit_count() <= (full & ~(ones | zeros)).bit_count():
        return None
    units = conflicts = decisions = 0
    root = None  # the first node's fixpoint
    trail: list[tuple[int, int, list]] = []  # (ones, zeros, open clauses) of each pending 0 branch
    while True:
        # unit propagation from the node's pins over its clauses
        free = full & ~(ones | zeros)
        dead = False
        while True:
            open_ = 0
            left = []
            unit = False
            for clause in clauses:
                pos, neg = clause
                if pos & ones or neg & zeros:
                    continue
                lits = (pos | neg) & free
                if not lits:
                    dead = True
                    break
                if lits & (lits - 1):
                    open_ |= lits
                    left.append(clause)
                    continue
                if pos & lits:
                    ones |= lits
                else:
                    zeros |= lits
                free ^= lits
                unit = True
                units += 1
            if dead or not unit:
                break
            clauses = left
        if dead:
            conflicts += 1
        elif k is not None:
            spare = k - ones.bit_count()  # the ones still to place
            if not 0 <= spare <= free.bit_count():
                dead = True
            elif 2 * (spare + 1) <= open_.bit_count():
                # an open clause has 2 or more free variables, so fewer
                # than 2 * (spare + 1) open variables cannot pack spare + 1
                packed = 0  # the free variables of the packed clauses
                for pos, neg in left:  # all unresolved at this node
                    if neg & free or pos & packed:
                        continue
                    packed |= pos & free
                    spare -= 1
                    if spare < 0:
                        dead = True
                        break
        if dead:
            if trail:
                ones, zeros, clauses = trail.pop()
                continue
            found = None
            break
        if root is None:
            root = ones, zeros, left
        if not open_:
            if k is not None:
                for _ in range(k - ones.bit_count()):
                    low = free & -free
                    ones |= low
                    free ^= low
            found = ones, root
            break
        bit = open_ & -open_
        decisions += 1
        trail.append((ones, zeros | bit, left))
        ones |= bit
        clauses = left
    if stats is not None:
        stats.propagations += units
        stats.conflicts += conflicts
        stats.decisions += decisions
    return found


def _bits(ones: int, num_vars: int) -> tuple[int, ...]:
    """A variable mask as a 0/1 tuple, read off its text as ``rows._pack``
    writes it: element i is bit i."""
    return tuple(format(ones, f"0{num_vars}b")[::-1].encode().translate(_FROM_TEXT)) if num_vars else ()


def dpll_sat(cnf: Cnf, stats: RunStats | None = None) -> tuple[int, ...] | None:
    """A model of the formula as a bitstring, or None when unsatisfiable."""
    found = search_from(cnf.num_vars, cnf.masks, stats=stats)
    return None if found is None else _bits(found[0], cnf.num_vars)


_BUILT_IN = dpll_sat  # the function above, whatever later stands under its name


def find_k_model(
    row: Row012, cnf: Cnf, k: int, stats: RunStats | None = None
) -> tuple[int, ...] | None:
    """A model with exactly k ones inside the row, or None: ``solve_row``
    with the bound k, with the model as a tuple."""
    found = solve_row(row, cnf, None, stats, k)
    return None if found is None else _bits(found[0], row.width)


def _width(row: Row012 | Row012e, cnf: Cnf) -> int:
    """The row's width, which must be the formula's number of variables."""
    w = row.width
    if w != cnf.num_vars:
        raise ValueError("row width does not match num_vars")
    return w


def augment_cnf(cnf: Cnf, row: Row012 | Row012e) -> Cnf:
    """The formula restricted to the row, as a plugged ``SolverFn`` gets it:
    the formula's clauses, then one unit clause per fixed variable in
    increasing order, then one clause per e-bubble over its slots' literals.

    The base clauses were validated when ``cnf`` was built, so only the
    row's clauses are checked here.
    """
    w = _width(row, cnf)
    if isinstance(row, Row012):
        ones, zeros, bubbles = row.ones, row.zeros, ()
    else:  # the 1-slots fix their variables: a negative slot to 0
        (ones, zeros), bubbles = _var_masks(w, row.ones), row.bubble_masks
    units = tuple(Clause((i + 1 if ones >> i & 1 else -i - 1,)) for i in _slots_of(ones | zeros))
    rest = tuple(Clause(tuple(map(lit_of_slot, _slots_of(b)))) for b in bubbles)
    return Cnf._unchecked(w, cnf.clauses + units + rest)


def find_model(row: Row012 | Row012e, cnf: Cnf, solver: SolverFn = dpll_sat) -> tuple[int, ...] | None:
    """A model of the formula inside the row, or None: ``solve_row`` with
    the solver, with the model as a tuple.

    Unit propagation reaches the same fixpoint in any order, so the built-in
    search visits the nodes, and finds the model, of ``dpll_sat`` on
    ``augment_cnf(cnf, row)``, which any other solver receives.
    """
    found = solve_row(row, cnf, solver=solver)
    return None if found is None else _bits(found[0], row.width)


def is_plug(solver: SolverFn | None) -> bool:
    """True for a solver other than ``dpll_sat``: neither the function this
    module defines nor what stands under that name now, as a wrapper put
    in its place is the built-in search too."""
    return solver is not None and solver is not _BUILT_IN and solver is not dpll_sat


def solve_row(
    row: Row012 | Row012e,
    cnf: Cnf,
    start: Fixpoint | None = None,
    stats: RunStats | None = None,
    k: int | None = None,
    solver: SolverFn | None = None,
) -> tuple[int, Fixpoint | None] | None:
    """The search inside a row: None, or the pair (ones mask of the model,
    root fixpoint), with the root's open clauses cut to the formula's.

    The built-in search is ``search_from`` on the row's pins: a 012-row's
    ``ones``/``zeros``, or the variables of an e-row's 1-slots, with each
    e-bubble as one more (pos, neg) clause after the formula's.  ``start``,
    ``stats`` and ``k`` go to it.

    A plugged ``solver`` (``is_plug``) gets ``augment_cnf(cnf, row)``
    instead, ignores ``start`` and ``stats`` and takes no ``k``.  Its answer
    must be None or a 0/1 sequence of length w inside the row that
    satisfies the formula, else ValueError.  The model comes back with no
    fixpoint.
    """
    w = _width(row, cnf)
    if is_plug(solver):
        if k is not None:
            raise ValueError("a plugged solver takes no cardinality bound")
        model = solver(augment_cnf(cnf, row))
        if model is None:
            return None
        if not (isinstance(model, Sequence) and len(model) == w and all(b in (0, 1) for b in model)):
            raise ValueError(f"the plugged solver answered {model!r}, not a bitstring of width {w}")
        mask = _pack([b == 1 for b in model])
        if not (row.contains(mask) and evaluate(cnf, model)):
            raise ValueError(f"the plugged solver answered {model!r}, not a model inside the row")
        return mask, None
    if isinstance(row, Row012):
        return search_from(w, cnf.masks, row.ones, row.zeros, start, k, stats)
    (ones, zeros), bubbles = _var_masks(w, row.ones), [_var_masks(w, b) for b in row.bubble_masks]
    found = search_from(w, cnf.masks, ones, zeros, start, k, stats, bubbles)
    if found is None or not bubbles:
        return found
    mask, (f1, f0, left) = found  # the open bubbles close the root's list: cut them
    return mask, (f1, f0, left[: len(left) - sum(not (p & f1 or n & f0) for p, n in bubbles)])


def row_satisfies_clause(row: Row012 | Row012e, clause: Clause) -> bool:
    """True when every member of the row satisfies the clause.

    For 012-rows this means some literal is already fixed true: a variable
    of the clause's positive mask lies in the row's ``ones``, or one of its
    negative mask in ``zeros``.  For e-rows it is the bitwise rule of
    ``rows.settles`` on the row's masks and the clause's ``slot_mask``:
    some literal slot of the clause holds 1, or a bubble lies entirely
    inside the clause's slots (some slot of the bubble carries a 1).
    Splitting only narrows a row, so a clause settled by a row stays
    settled in all its sons.
    """
    if isinstance(row, Row012):
        pos, neg = clause.masks
        return bool(pos & row.ones or neg & row.zeros)
    return settles(row.ones, row.bubble_masks, clause.slot_mask)


def first_unsettled(row: Row012 | Row012e, cnf: Cnf, start: int = 0) -> int:
    """The 0-based index of the first clause from ``start`` on that the row
    does not settle (``row_satisfies_clause``), or h if none.  Raises
    ValueError for a ``start`` below 0 or a row of another width."""
    if start < 0:
        raise ValueError("clause indices start at 0")
    _width(row, cnf)
    clauses = cnf.clauses
    for i in range(start, len(clauses)):
        if not row_satisfies_clause(row, clauses[i]):
            return i
    return len(clauses)


def test1(row: Row012 | Row012e, cnf: Cnf) -> bool:
    """No iff some clause is dead in the row: every one of its literals is
    falsified by the row's fixed values, so no member can satisfy it.

    Weak in general; perfect when the formula is positive, because setting
    every non-zero position to 1 then witnesses feasibility.  A row of
    another width than the formula's is a ValueError.
    """
    _width(row, cnf)
    if isinstance(row, Row012):
        not_zero, not_one = ~row.zeros, ~row.ones
        return all(pos & not_zero or neg & not_one for pos, neg in cnf.masks)
    not_zero = ~row.zeros
    return all(mask & not_zero for mask in cnf.slot_masks)


def test2(row: Row012, cnf: Cnf) -> bool:
    """Pair test: clauses Ci, Cj sharing a variable p positively/negatively
    whose remaining literals are all falsified force p to 1 and 0 at once.

    On the variable masks: every literal of Cj but ~p and every literal of
    Ci but p is falsified.  With Cj's positive and Ci's negative literals
    falsified, the literals left open (Ci's positive ones not fixed to 0,
    Cj's negative ones not fixed to 1) must lie within one common p.
    An e-row's masks are slot masks, so it raises TypeError; a row of
    another width than the formula's raises ValueError.
    """
    if not isinstance(row, Row012):
        raise TypeError("test2 is defined on 012-rows")
    _width(row, cnf)
    ones, zeros = row.ones, row.zeros
    masks = cnf.masks
    for i, (pi, ni) in enumerate(masks):
        if ni & ~ones:
            continue
        open_i = pi & ~zeros
        for j, (pj, nj) in enumerate(masks):
            common = pi & nj
            if i == j or not common or pj & ~zeros:
                continue
            left = open_i | (nj & ~ones)
            if not left & ~common and not left & (left - 1):
                return False
    return True


def final_e(row: Row012 | Row012e, cnf: Cnf) -> bool:
    """Containment test via the per-clause rule of row_satisfies_clause.

    Sound always: a true answer really means the row is contained.  Exact on
    012-rows and on purified e-rows.  A row with bad pairs can be contained
    without the rule seeing it (two bubbles may force a clause jointly); the
    enumeration then simply splits such a row once more, so only compression
    is affected.  On a bitstring 012-row it is the model check.
    """
    return first_unsettled(row, cnf) == len(cnf.clauses)


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
