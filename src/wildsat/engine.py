"""Row-splitting enumeration driver and its three concrete mechanisms.

The driver keeps a last-in-first-out working stack of rows, starting from
the all-don't-care row.  The top row is popped; if it is final it moves to
the output, otherwise it splits into disjoint sons that all sit strictly
deeper (their degree grows), and the sons are pushed so the first son is
processed next.  The union of output rows is exactly the special model set.

Mechanisms:

* var-012      variable-wise branching; degree = longest fixed prefix.
* clause-012   clause-wise branching on 012-rows; degree = pending clause;
               imposing a clause raises the triangular staircase over its
               still-free literals.
* clause-e     clause-wise branching on 012e-rows; imposing a clause lays
               an e-bubble over its free literal slots, with bubble-overlap
               columns branched off first.

One driver loop serves all three, and its stack holds masks, not rows:
a 012 entry is (ones, zeros), a clause-e entry (ones, bubbles), split by
``rows.impose_masks``.  It takes degrees straight from the masks, runs
the built-in search on a 012-son's masks (``sat.search_from``) and tests
the hint on them.  A clause-012 entry carries the mask of the clauses
its row settles, whose lowest zero bit is its degree.  A row is built
only for output and for a consumer that reads rows (``sat.solve_row``,
a weak test, a filter or an observer hook that is set), through
one adapter, ``_on_row``.  Candidate sons are screened by a
feasibility policy (perfect solver check, the weak tests, or none) and by
the filter, if any.  With a weak policy an infeasible row can enter the
stack; it is unmasked only when none of its candidate sons is admitted
(or, for var-012, when it is a bitstring that is no model), and its
removal then counts as a harmful deletion.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

from .formulas import Clause, Cnf, Dnf, evaluate
from .rows import (
    Row012,
    Row012e,
    RowList,
    RunStats,
    _bit_index,
    _gather,
    _purify,
    _row012,
    _row012e,
    _slots_of,
    _spread,
    _totals,
    card_012,
    impose_masks,
    impose_on_slots,
    purify,
)
# find_model, find_k_model, impose_on_slots and purify are unused here but stay:
# perfbench's trace probes wrap these names
from .sat import (
    SolverFn,
    dpll_sat,
    final_e,
    find_k_model,
    first_unsettled,
    find_model,
    is_plug,
    prob_final,
    row_satisfies_clause,
    search_from,
    solve_row,
    test1,
    test2,
)


class Method(str, Enum):
    VAR012 = "var-012"
    CLAUSE012 = "clause-012"
    CLAUSE_E = "clause-e"
    SCAN = "scan"


class Policy(str, Enum):
    SOLVER = "solver"
    TEST1 = "test1"
    TEST12 = "test12"
    NONE = "none"


class EngineObserver:
    """Optional instrumentation hooks: ``on_pop(row, degree, depth,
    emitted)``, with ``depth`` the stack size after the pop and ``emitted``
    the rows output so far; ``on_split(parent, parent_degree, sons,
    son_degrees)``; ``on_emit(row)``; ``on_harmful(row)``.  Each is None
    until a subclass or an instance sets it, and the driver never calls, or
    builds a row for, a hook left None.  Setting ``on_pop`` or
    ``on_split`` keeps the per-level order of the driver's pops and splits
    (see ``_drive``).
    """

    on_pop = on_split = on_emit = on_harmful = None


@dataclass
class EngineConfig:
    method: Method = Method.CLAUSE_E
    policy: Policy = Policy.SOLVER
    spmod: "SpModFilter | None" = None
    solver: SolverFn = dpll_sat
    observer: EngineObserver | None = None


class SpModFilter:
    """Restriction of the enumeration to a special subset of the models.

    ``admit(row)`` answers a bool, and must answer False only when the row
    misses the special set.  ``exact`` marks the answer perfect, in which
    case the filter replaces the feasibility policy; otherwise it screens
    in front of the policy.  ``methods`` lists the methods the filter runs
    with.  An exact filter whose special models are the models with k ones
    may name k as ``cardinality``: the driver then runs the built-in
    k-search on a son's masks (``sat.search_from``) in place of ``admit``.
    ``final_override(row)`` (True makes the popped row final now, None
    defers to the mechanism) and ``refine_final(row)`` (the output rows of
    a final row and the number of subrows dropped; else the row itself)
    are optional.

    Each hook is None until a subclass sets it, and the driver never calls
    one left None.  ``validate_config`` rejects a filter with no ``admit``
    unless it is exact and names a ``cardinality``.
    """

    exact = False
    methods: tuple[Method, ...] = (Method.VAR012,)
    cardinality: int | None = None
    admit = final_override = refine_final = None


def _check_k(k: int, num_vars: int) -> None:
    """Reject a cardinality that is not an int in 0..num_vars (a bool too)."""
    if not isinstance(k, int) or isinstance(k, bool):
        raise ValueError("k must be an integer")
    if not 0 <= k <= num_vars:
        raise ValueError("k must lie in [0, num_vars]")


class CardinalityFilter(SpModFilter):
    """Keep only models with exactly k ones (perfect, solver-backed)."""

    exact = True

    def __init__(self, cnf: Cnf, k: int):
        _check_k(k, cnf.num_vars)
        self.cnf = cnf
        self.cardinality = k

    def refine_final(self, row: Row012) -> tuple[list[Row012], int]:
        """The final bitstring itself; it must have weight k."""
        ones = row.ones.bit_count()
        if ones != self.cardinality:
            raise RuntimeError(f"cardinality filter admitted a row of weight {ones}, not {self.cardinality}")
        return [row], 0


class DnfKFilter(SpModFilter):
    """Weight-k models of a DNF: feasibility by term-wise interval meets.

    The meet of the row with a term is the union of their masks, empty when
    a variable is fixed to 1 in one and to 0 in the other; its members have
    between (its ones) and (its ones + its free variables) ones.
    """

    exact = True

    def __init__(self, dnf: Dnf, k: int):
        _check_k(k, dnf.num_vars)
        self.dnf = dnf
        self.k = k

    def admit(self, row: Row012) -> bool:
        if row.width != self.dnf.num_vars:
            raise ValueError("row widths differ")
        ones, zeros, k = row.ones, row.zeros, self.k
        for t in self.dnf.terms:
            if ones & t.zeros or zeros & t.ones:
                continue
            if (ones | t.ones).bit_count() <= k <= row.width - (zeros | t.zeros).bit_count():
                return True
        return False


class ComplementFilter(SpModFilter):
    """Feasibility from a known enumeration of the complement model set.

    A row is feasible iff its members are not exhausted by the complement
    rows, and final as soon as it misses all of them.  Both tests read the
    row's overlap with the complement.  The complement rows are indexed
    once by the variables they fix to 1 and to 0, so the overlap sums only
    the rows whose fixed values do not clash with the row's.  ``admit``
    keeps the overlap of each row it admits, keyed by its fields, until
    ``final_override`` takes it when the driver pops the row; only a row
    ``admit`` never saw is read a second time.
    """

    exact = True

    def __init__(self, complement_rows: RowList):
        w, rows = complement_rows.width, complement_rows.rows
        for r in rows:
            if not isinstance(r, Row012):
                raise ValueError("complement rows must be 012-rows")
            if r.width != w:
                raise ValueError("row widths differ")
        self.rows = complement_rows
        self._fixed = [r.ones | r.zeros for r in rows]
        # bit v of a key clashes with a 1 at variable v, bit w + v with a 0
        self._clash = _bit_index((r.zeros | r.ones << w for r in rows), 2 * w)
        self._every = (1 << len(rows)) - 1
        self._overlaps: dict[tuple[int, int, int], int] = {}

    def _overlap(self, row: Row012) -> int:
        """The number of the row's members inside the complement rows."""
        if row.width != self.rows.width:
            raise ValueError("row widths differ")
        ones, zeros, w = row.ones, row.zeros, row.width
        fixed = ones | zeros
        clash = _gather(self._clash, ones | zeros << w)
        n = 0
        for i in _slots_of(self._every & ~clash):
            n += 1 << (w - (fixed | self._fixed[i]).bit_count())
        return n

    def admit(self, row: Row012) -> bool:
        overlap = self._overlap(row)
        if overlap < card_012(row):
            self._overlaps[row.width, row.ones, row.zeros] = overlap
            return True
        return False

    def final_override(self, row: Row012) -> bool | None:
        overlap = self._overlaps.pop((row.width, row.ones, row.zeros), None)
        if overlap is None:
            overlap = self._overlap(row)
        return True if overlap == 0 else None


class WeightFilter(SpModFilter):
    """Keep only models of weight at most ``bound``.

    The weight of a bitstring sums one entry per variable: the weight of the
    literal slot it sets to 1.  The filter is a necessary-condition screen: it
    rejects rows whose cheapest member is already over the bound, and final
    rows are post-split so only members within the bound are emitted.

    The bounds read the row's masks a byte at a time: per byte of a
    variable mask, a table holds the weight sum of each of its 256 values,
    for the positive weights (``ones``), the negative ones (``zeros``) and
    the cheaper and dearer of each pair (the free variables).
    """

    methods = (Method.VAR012, Method.CLAUSE012)

    def __init__(self, slot_weights: Sequence[int], bound: int):
        if any(w < 0 for w in slot_weights):
            raise ValueError("weights must be non-negative")
        if len(slot_weights) % 2:
            raise ValueError("need one weight per literal slot (2w values)")
        self.weights = tuple(slot_weights)
        self.bound = bound
        pos, neg = self.weights[0::2], self.weights[1::2]
        self._pos, self._neg = _byte_sums(pos), _byte_sums(neg)
        self._min = _byte_sums(tuple(map(min, pos, neg)))
        self._max = _byte_sums(tuple(map(max, pos, neg)))

    def _weight(self, row: Row012, free: list[list[int]]) -> int:
        if 2 * row.width != len(self.weights):
            side = "wider" if 2 * row.width > len(self.weights) else "narrower"
            raise ValueError(f"row is {side} than the weights")
        return _mask_sum(self._pos, row.ones) + _mask_sum(self._neg, row.zeros) + _mask_sum(free, row.twos)

    def min_weight(self, row: Row012) -> int:
        return self._weight(row, self._min)

    def max_weight(self, row: Row012) -> int:
        return self._weight(row, self._max)

    def admit(self, row: Row012) -> bool:
        return self.min_weight(row) <= self.bound

    def refine_final(self, row: Row012) -> tuple[list[Row012], int]:
        """Disjoint subrows holding exactly the members within the bound,
        plus the number of discarded subrows."""
        kept: list[Row012] = []
        discards = 0
        stack = [row]
        while stack:
            r = stack.pop()
            if self.min_weight(r) > self.bound:
                discards += 1
                continue
            if self.max_weight(r) <= self.bound:
                kept.append(r)
                continue
            stack.extend(reversed(varwise_split(r)))
        return kept, discards


def _byte_sums(weights: Sequence[int]) -> list[list[int]]:
    """Per byte of a variable mask (variables 8b+1..8b+8 for byte b), the
    weight sum of each value of the byte."""
    tables = []
    for lo in range(0, len(weights), 8):
        table = [0]
        for wt in weights[lo : lo + 8]:
            table += [t + wt for t in table]
        tables.append(table)
    return tables


def _mask_sum(tables: list[list[int]], mask: int) -> int:
    """The weight sum of the variables in ``mask``."""
    total = 0
    for table in tables:
        if not mask:
            return total
        total += table[mask & 255]
        mask >>= 8
    return total


# ---------------------------------------------------------------------------
# Split primitives


def pending_clause(row: Row012 | Row012e, cnf: Cnf, start: int = 1) -> int:
    """Index of the first clause not yet settled by the row; h+1 when final.

    The scan begins at clause ``start``; the clauses before it are taken as
    settled.  A son is a subset of its parent, and a clause settled by the
    parent stays settled in the son, so a son's scan may start at its
    parent's pending clause, as the clause-e driver's inline scan does.
    Raises ValueError for a ``start`` below 1.
    """
    if start < 1:
        raise ValueError("clause indices start at 1")
    return first_unsettled(row, cnf, start - 1) + 1


def varwise_degree(row: Row012) -> int:
    """Length of the fixed prefix: min(twos) - 1, or w for a bitstring.

    That is the index of the lowest 0 bit of the fixed mask (``fixed + 1``
    carries into it), which is w when all w variables are fixed.
    """
    fixed = row.ones | row.zeros
    return ((fixed + 1) & ~fixed).bit_length() - 1


def varwise_split(row: Row012) -> list[Row012]:
    """Pin the first don't-care (the lowest free bit) to 0 and to 1."""
    free = row.twos
    if not free:
        raise ValueError("cannot split a bitstring row")
    w, ones, zeros = row.width, row.ones, row.zeros
    bit = free & -free
    return [_row012(w, ones, zeros | bit), _row012(w, ones | bit, zeros)]


def clausewise012_split(row: Row012, clause: Clause) -> list[Row012]:
    """Triangular staircase over the clause's free literals.

    Son j satisfies the clause's j-th still-free literal and falsifies the
    earlier ones; literals already falsified by the row are skipped.  An
    empty result means the row cannot satisfy the clause at all.
    """
    if row_satisfies_clause(row, clause):
        raise ValueError("row already satisfies the clause")
    w, ones, zeros = row.width, row.ones, row.zeros
    sons = []
    for lit in clause.lits:
        bit = 1 << (abs(lit) - 1)
        if (ones | zeros) & bit:
            continue  # fixed against the literal
        if lit > 0:
            sons.append(_row012(w, ones | bit, zeros))
            zeros |= bit
        else:
            sons.append(_row012(w, ones, zeros | bit))
            ones |= bit
    return sons


def clausewise_e_split(row: Row012e, clause: Clause) -> list[Row012e]:
    """Impose a clause on a 012e-row: bubble-overlap columns first (each
    shrinking an existing bubble to its slots inside the clause), then one
    fresh bubble over the remaining free literal slots.  A row that already
    settles the clause, or a clause wider than the row (a slot out of
    range), is an error."""
    w, mask = row.width, clause.slot_mask
    if mask >> 2 * w:
        raise ValueError("slot out of range")
    sons = impose_masks(w, row.ones, row.bubble_masks, clause.slots, mask)
    if sons is None:
        raise ValueError("row already satisfies the clause")
    return [_row012e(w, *son) for son in sons]


# ---------------------------------------------------------------------------
# The driver


def run(cnf: Cnf, config: EngineConfig | None = None) -> RowList:
    """Enumerate the (special) model set as an ordered disjoint row list."""
    config = config or EngineConfig()
    validate_config(cnf, config)
    t0 = time.perf_counter()
    stats = RunStats(method=config.method.value, policy=config.policy.value)
    rows = _scan_rows(cnf) if config.method == Method.SCAN else _drive(cnf, config, stats)
    stats.time_s = time.perf_counter() - t0
    out = RowList(cnf.num_vars, tuple(rows), stats)
    stats.rows = len(out)
    # clause-e emits purify's pieces, which are purified by construction
    stats.models, free = _totals(rows)
    stats.gamma_avg = free / len(rows) if rows else 0.0
    w = cnf.num_vars
    # prob_final has no value at w = 0, where the one row is final
    stats.prob = prob_final(w, stats.gamma_avg, len(cnf.clauses), cnf.mean_clause_len()) if w else 1.0
    return out


def validate_config(cnf: Cnf, config: EngineConfig) -> None:
    """Reject method/policy/filter/solver combinations that have no
    semantics, such as a plugged solver that the run never calls or a
    filter that gives it nothing to call."""
    method, policy, filt = config.method, config.policy, config.spmod
    if not isinstance(method, Method) or not isinstance(policy, Policy):
        raise ValueError("the method must be a Method and the policy a Policy")
    unsearched = method == Method.SCAN or policy != Policy.SOLVER or (filt is not None and filt.exact)
    if unsearched and is_plug(config.solver):
        raise ValueError("a plugged solver runs only under policy solver, with no exact filter, and not with scan")
    if method == Method.SCAN:
        if cnf.num_vars > 24:
            raise ValueError("scan is gated to w <= 24")
        if filt is not None:
            raise ValueError("scan does not combine with filters")
        return
    if method == Method.CLAUSE_E:
        if policy == Policy.TEST12:
            raise ValueError("clause-e supports policies solver, test1 (positive CNF) or none")
        if policy == Policy.TEST1 and not cnf.is_positive():
            raise ValueError("policy test1 with clause-e requires a positive CNF")
    if filt is None:
        return
    if filt.admit is None and not (filt.exact and filt.cardinality is not None):
        raise ValueError("the filter has no admit, and is not an exact filter with a cardinality")
    if method not in filt.methods:
        raise ValueError(f"this filter runs with method {' or '.join(m.value for m in filt.methods)}")
    if filt.exact and filt.cardinality is not None and method == Method.CLAUSE_E:
        raise ValueError("the k-search of a filter's cardinality runs on 012-rows")
    # an exact filter's answers replace the policy, so the formula it reads must be the run's
    own = getattr(filt, "cnf", cnf)
    if own is not cnf and own != cnf:
        raise ValueError("the filter was built on another formula than the run's")


def _scan_rows(cnf: Cnf) -> list[Row012]:
    out = []
    for u in itertools.product((0, 1), repeat=cnf.num_vars):
        if evaluate(cnf, u):
            out.append(Row012(u))
    return out


def _admission(cnf: Cnf, config: EngineConfig, build):
    """The son screen of a run: (screen, check, search), over the driver's
    candidates, whose rows ``build(w, *entry)`` makes.

    A perfect filter replaces the policy; any other filter's ``admit`` is
    the ``screen``, which runs in front of it.  With no ``search``,
    ``check`` is the bool check (a filter's ``admit`` or a weak policy), or
    None under policy none.  A search counts as one solver call and answers
    None or the witness (model as a variable mask, root fixpoint ``(ones,
    zeros, open clauses)``).  It is ``sat.search_from`` itself, which the
    driver runs on a 012-son's masks, bounded by a perfect filter's
    ``cardinality``; or else ``search(son, start, stats)``, which calls
    ``solve_row`` on the son's row, for clause-e and for a plugged solver
    (whose witness has no fixpoint).  The driver hands a son that contains
    its parent's witness the witness without a search; any other starts
    from its fixpoint, that of its nearest ancestor that searched.

    A candidate is its masks: (ones, zeros) for 012, (ones, bubbles) for
    clause-e.  The screen, the check and a plugged solver's search get its
    row through ``_on_row``; clause-e's search builds it for ``solve_row``.
    A clause-e witness holds the model's true literal slots in place of the
    variable mask, so that its hint test reads the masks too.
    """
    filt, policy, solver = config.spmod, config.policy, config.solver
    screen = check = search = None
    if filt is not None and filt.exact:
        if filt.cardinality is None:
            check = filt.admit
        else:
            search = search_from
    else:
        screen = None if filt is None else filt.admit
        if policy == Policy.SOLVER:
            if is_plug(solver):
                search = lambda row, start, stats: solve_row(row, cnf, start, stats, solver=solver)
            else:
                search = search_from
        elif policy == Policy.TEST1:
            check = lambda row: test1(row, cnf)
        elif policy == Policy.TEST12:
            check = lambda row: test1(row, cnf) and test2(row, cnf)
    w = cnf.num_vars
    screen, check = _on_row(screen, build, w), _on_row(check, build, w)
    if config.method != Method.CLAUSE_E:
        return screen, check, search if search is search_from else _on_row(search, build, w)
    every = (1 << w) - 1

    def search_e(son, start, stats):
        found = solve_row(build(w, *son), cnf, start, stats, solver=solver)
        if found is None:
            return None
        model, fixpoint = found
        return _spread(model) | _spread(every ^ model) << 1, fixpoint

    return screen, check, search and search_e


def _on_row(fn, build, w: int):
    """``fn`` for the driver's entries of width w: it gets the row
    ``build(w, *entry)`` of an entry, then the call's other arguments.
    None stays None."""
    return None if fn is None else lambda entry, *rest: fn(build(w, *entry), *rest)


def _observer_hooks(obs: EngineObserver | None, build, w: int) -> tuple:
    """(on_pop, on_split, on_emit, on_harmful) of a run: the observer's
    hooks, each None when the observer leaves it None or has no such
    attribute (every one, with no observer).  A hook gets the rows of the
    driver's entries: through ``_on_row``, and ``on_split`` its sons' as a
    tuple."""
    names = ("on_pop", "on_split", "on_emit", "on_harmful")
    on_pop, on_split, on_emit, on_harmful = (getattr(obs, name, None) for name in names)
    if on_split is not None:
        on_split = lambda parent, degree, sons, son_degrees, hook=on_split: hook(
            build(w, *parent), degree, tuple(build(w, *son) for son in sons), son_degrees
        )
    return _on_row(on_pop, build, w), on_split, on_emit, _on_row(on_harmful, build, w)


def _drive(cnf: Cnf, config: EngineConfig, stats: RunStats) -> list:
    """The LIFO driver of var-012, clause-012 and clause-e.

    A row is final at degree ``top``: w for var-012, h for the clause-wise
    methods, whose degree is pending clause - 1.  var-012 pins the lowest
    free variable, 0 first.  clause-012 raises the staircase over the
    pending clause's free literals in ``Clause.lits`` order; a son's
    settled-clause mask is its parent's ORed with the clauses that hold the
    son's true literal and the mates of the earlier free ones (from the
    occurrence index of the literal slots, built once per run).  clause-e
    scans ``cnf.slot_masks`` from the parent's pending clause for a son's
    degree.  ``varwise_split``, ``varwise_degree``, ``clausewise012_split``,
    ``clausewise_e_split`` and ``pending_clause`` are the reference steps.
    The filter's bound and hooks and the observer's hooks are read once,
    here.  Pops (as pushes, per split) and hint hits are counted in local
    ints and written to ``stats`` when the loop returns.

    A var-012 run with the built-in search, no screen, no
    ``final_override`` and no ``on_pop`` or ``on_split`` walks: a popped
    entry with witness m pins each variable from its degree up in one
    inner loop.  The son that agrees with m takes the hint and is never
    pushed; the other is searched from the hint's fixpoint.  Admitted
    1-sons are pushed at once; then m's final and the admitted 0-sons,
    shallowest on top.  That is the per-level loop's pop order, and a
    walked level counts as one pop and one hint hit, so the rows and every
    counter are the same.  Every other run keeps the per-level loop, the
    only order a hook or a screen may see.
    """
    method, filt = config.method, config.spmod
    w, clauses, masks = cnf.num_vars, cnf.clauses, cnf.masks
    var012, clause_e = method == Method.VAR012, method == Method.CLAUSE_E
    build = _row012e if clause_e else _row012
    screen, check, search = _admission(cnf, config, build)
    exact = filt is not None and filt.exact
    k = filt.cardinality if exact else None
    override, refine = (None, None) if filt is None else (_on_row(filt.final_override, build, w), filt.refine_final)
    top = w if var012 else len(clauses)
    on_pop, on_split, on_emit, on_harmful = _observer_hooks(config.observer, build, w)
    root, slot_masks = ((0, ()) if clause_e else (0, 0)), cnf.slot_masks
    if not (var012 or clause_e):
        # clause-012, per clause, its staircase steps: a literal's variable
        # bit, its sign, and the clauses the literal settles when true and
        # when false
        occ = _bit_index(slot_masks, 2 * w)
        steps = [tuple((1 << (s >> 1), s & 1, occ[s], occ[s ^ 1]) for s in c.slots) for c in clauses]

    # a bitstring passed only by a weak screen may still miss the model set;
    # on a bitstring, settling every clause (final_e) means being a model
    check_model = var012 and config.policy != Policy.SOLVER and not exact
    walk = var012 and search is search_from and screen is None and override is None
    walk = walk and on_pop is None and on_split is None

    def finish(entry) -> list | None:
        """The output of a final entry; None when it holds no model."""
        if clause_e:
            return _purify(w, *entry)
        row = build(w, *entry)
        if check_model and not final_e(row, cnf):
            return None
        if refine is None:
            return [row]
        kept, discards = refine(row)
        stats.weight_discards += discards
        return kept

    def delete(entry) -> None:
        stats.harmful_deletions += 1
        if on_harmful is not None:
            on_harmful(entry)

    finals: list = []
    stack: list = []
    pops = hint_hits = 0
    # each turn admits the candidates of ``entry`` and pops entries until one
    # splits; the root is the one candidate of no entry (of degree -1), and
    # its degree is 0, as the full row fixes no variable and settles no
    # clause.  A stack item is (entry, degree, witness, settled-clause mask);
    # only clause-012 reads the mask, which is 0 at the root
    entry, deg, hint, cands = None, -1, None, [(root, 0, 0)]
    while True:
        sons = []
        for son, son_deg, son_settled in cands:
            if son_deg <= deg:
                raise RuntimeError(f"son does not settle its parent's pending clause {deg + 1}")
            if screen is not None and not screen(son):
                stats.weight_pruned += 1
                continue
            if search is None:
                if check is not None and not check(son):
                    continue
                wit = None
            # the hint test: the witness sets the son's ones (1-slots) and
            # none of its zeros, or hits each of its bubbles
            elif hint is not None and hint[0] & son[0] == son[0] and (
                all(b & hint[0] for b in son[1]) if clause_e else not hint[0] & son[1]
            ):
                hint_hits += 1
                wit = hint
            else:
                stats.solver_calls += 1
                start = hint and hint[1]
                if search is search_from:  # the built-in search, on the son's masks
                    wit = search_from(w, masks, son[0], son[1], start, k, stats)
                else:
                    wit = search(son, start, stats)
                if wit is None:
                    continue
            sons.append((son, son_deg, wit, son_settled))
        if sons:
            if on_split is not None and entry is not None:
                on_split(entry, deg, tuple(s[0] for s in sons), tuple(s[1] for s in sons))
            stack.extend(reversed(sons))
            pops += len(sons)  # the loop ends on an empty stack: every push is popped
        elif entry is not None:
            delete(entry)
        while stack:
            entry, deg, hint, settled = stack.pop()
            if on_pop is not None:
                on_pop(entry, deg, len(stack), len(finals))
            if override is not None and override(entry):
                out = [build(w, *entry)]
            elif deg == top:
                out = finish(entry)
            elif walk:  # the path to the witness m (see the docstring)
                ones, zeros = entry
                m, start = hint
                held, base = [], len(stack)
                for j in range(deg, top):
                    bit = 1 << j
                    if m & bit:
                        wit = search_from(w, masks, ones, zeros | bit, start, k, stats)
                        if wit is not None:
                            held.append(((ones, zeros | bit), j + 1, wit, 0))
                        ones |= bit
                    else:
                        wit = search_from(w, masks, ones | bit, zeros, start, k, stats)
                        if wit is not None:
                            stack.append(((ones | bit, zeros), j + 1, wit, 0))
                        zeros |= bit
                stack.append(((ones, zeros), top, hint, 0))
                stack.extend(reversed(held))
                walked = top - deg
                stats.solver_calls += walked
                hint_hits += walked
                pops += len(stack) - base + walked - 1  # the walked sons but the final were not pushed
                continue
            elif var012:  # pin the lowest free variable, 0 first
                ones, zeros = entry
                bit = 1 << deg
                fixed = ones | zeros | bit
                son_deg = ((fixed + 1) & ~fixed).bit_length() - 1
                cands = [((ones, zeros | bit), son_deg, None), ((ones | bit, zeros), son_deg, None)]
                break
            elif clause_e:
                # a son is a subset of its parent, so the clauses its parent
                # settles stay settled and its scan starts at the parent's
                cands = []
                ones, bubbles = entry
                split = impose_masks(w, ones, bubbles, clauses[deg].slots, slot_masks[deg])
                if split is None:  # the scan found the clause pending
                    raise RuntimeError(f"row already settles its pending clause {deg + 1}")
                for son in split:
                    son_deg, (son_ones, son_bubbles) = deg, son
                    while son_deg < top:
                        mask = slot_masks[son_deg]  # a copy of rows.settles
                        if not son_ones & mask:
                            for b in son_bubbles:
                                if not b & ~mask:
                                    break
                            else:
                                break
                        son_deg += 1
                    cands.append((son, son_deg, None))
                break
            else:
                # the staircase: son j makes the j-th free literal true, the
                # earlier ones false; a literal the row fixes against adds
                # nothing, as the row's mask holds the clauses of its mate
                cands = []
                ones, zeros = entry
                for bit, neg, true, false in steps[deg]:
                    if (ones | zeros) & bit:
                        continue  # fixed against the literal
                    if neg:
                        son = (ones, zeros | bit)
                        ones |= bit
                    else:
                        son = (ones | bit, zeros)
                        zeros |= bit
                    son_settled = settled | true
                    settled |= false
                    cands.append((son, ((son_settled + 1) & ~son_settled).bit_length() - 1, son_settled))
                break
            if out is None:
                delete(entry)
                continue
            finals.extend(out)
            if on_emit is not None:
                for piece in out:
                    on_emit(piece)
        else:
            stats.pops, stats.hint_hits = pops, hint_hits
            return finals


# ---------------------------------------------------------------------------
# Ready-made special enumerations


def enumerate_dnf_k(dnf: Dnf, k: int) -> RowList:
    """All weight-k models of a DNF, one bitstring row each."""
    shell = Cnf(dnf.num_vars, ())
    config = EngineConfig(method=Method.VAR012, spmod=DnfKFilter(dnf, k))
    return run(shell, config)


def enumerate_hitting_sets(edges: Iterable[Iterable[int]], k: int, num_vars: int) -> RowList:
    """All k-element hitting sets of a hypergraph on [num_vars], as the
    weight-k models of the positive CNF whose clauses are the edges.
    Vertices outside 1..num_vars, negative ones too, are an error."""
    edge_list = [tuple(sorted(set(e))) for e in edges]
    if any(not 0 < v <= num_vars for e in edge_list for v in e):
        raise ValueError("vertex outside 1..num_vars")
    cnf = Cnf(num_vars, tuple(Clause(e) for e in edge_list if e))
    config = EngineConfig(method=Method.VAR012, spmod=CardinalityFilter(cnf, k))
    if not all(edge_list):  # no set hits an empty edge
        return RowList(num_vars, (), RunStats(method=config.method.value, policy=config.policy.value))
    return run(cnf, config)


def enumerate_from_complement(complement_rows: RowList) -> RowList:
    """Enumerate a model set given a disjoint enumeration of its complement."""
    shell = Cnf(complement_rows.width, ())
    config = EngineConfig(method=Method.VAR012, spmod=ComplementFilter(complement_rows))
    return run(shell, config)
