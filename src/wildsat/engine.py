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
``rows.impose_masks``.  Each son is admitted where it is made, by one
admission in ``_drive``: its degree comes straight from the masks, and
the built-in search (``sat.search_from``) and the hint test read them.
A clause-012 entry carries the mask of the clauses its row settles, whose
lowest zero bit is its degree.  Finals leave as masks, from which ``run``
makes its ``RowList``; the driver builds a row only for a consumer that
reads one: a weak test or an observer hook that is set, through the
adapter ``_on_row``, and a plugged solver's or clause-e's search, through
``sat.solve_row``.  Sons are screened by a feasibility policy (perfect solver
check, the weak tests, or none) and by the filter, if any.  With a weak
policy an infeasible row can enter the stack; it is unmasked only when
none of its sons is admitted (or, for var-012, when it is a bitstring
that is no model), and its removal then counts as a harmful deletion.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

from .formulas import Clause, Cnf, Dnf, _check_k, evaluate
from .rows import (
    Row012,
    Row012e,
    RowList,
    RunStats,
    _bit_index,
    _gather,
    _pack,
    _purify,
    _row012,
    _row012e,
    _row_list,
    _slots_of,
    _spread,
    _totals,
    impose_masks,
    impose_on_slots,
    purify,
)
# find_model, find_k_model, impose_on_slots and purify are unused here but stay:
# perfbench's trace probes wrap these names
from .sat import (
    SolverFn,
    dpll_sat,
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
    builds a row for, a hook left None.
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

    Filters run on 012-rows, and every hook reads a 012 entry's ``(ones,
    zeros)`` masks.  ``admit(ones, zeros)`` answers a bool, False only when
    the entry misses the special set.  ``exact`` marks the answer perfect,
    in which case the filter replaces the feasibility policy; otherwise it
    screens in front of the policy.  ``methods`` lists the methods the
    filter runs with.  An exact filter whose special models are the models
    with k ones may name k as ``cardinality``: the driver then runs the
    built-in k-search on a son's masks (``sat.search_from``) in place of
    ``admit``, and refuses a final of another weight.
    ``final_override(ones, zeros)`` (True makes the popped entry final now,
    None defers to the mechanism) and ``refine_final(ones, zeros)`` (the
    masks of a final's output rows and the number of subrows dropped) are
    optional.  ``num_vars`` is the width the filter was built for, None
    when unchecked.

    Each hook is None until a subclass sets it, and the driver never calls
    one left None.  ``validate_config`` rejects, before the run, a filter
    with clause-e, one of another width than the run's, and one with no
    ``admit`` unless it is exact and names a ``cardinality``.
    """

    exact = False
    methods: tuple[Method, ...] = (Method.VAR012,)
    cardinality: int | None = None
    num_vars: int | None = None
    admit = final_override = refine_final = None


class CardinalityFilter(SpModFilter):
    """Keep only models with exactly k ones (perfect, solver-backed)."""

    exact = True

    def __init__(self, cnf: Cnf, k: int):
        _check_k(k, cnf.num_vars)
        self.cnf, self.num_vars = cnf, cnf.num_vars
        self.cardinality = k


class DnfKFilter(SpModFilter):
    """Weight-k models of a DNF: feasibility by term-wise interval meets.

    The meet of the row with a term is the union of their masks, empty when
    a variable is fixed to 1 in one and to 0 in the other; its members have
    between (its ones) and (its ones + its free variables) ones.
    """

    exact = True

    def __init__(self, dnf: Dnf, k: int):
        _check_k(k, dnf.num_vars)
        self.dnf, self.num_vars = dnf, dnf.num_vars
        self.k = k

    def admit(self, ones: int, zeros: int) -> bool:
        for t in self.dnf.terms:
            if ones & t.zeros or zeros & t.ones:
                continue
            if (ones | t.ones).bit_count() <= self.k <= self.num_vars - (zeros | t.zeros).bit_count():
                return True
        return False


class ComplementFilter(SpModFilter):
    """Feasibility from a known enumeration of the complement model set.

    A row is feasible iff its members are not exhausted by the complement
    rows, and final as soon as it misses all of them.  Both tests read the
    row's overlap with the complement.  The complement rows are indexed
    once by the variables they fix to 1 and to 0, so the overlap sums only
    the rows whose fixed values do not clash with the row's.  The rows must
    be disjoint, each clashing with every other, or the overlap would count
    a member twice.  ``admit`` keeps the overlap of each row it admits,
    keyed by its masks, until ``final_override`` takes it when the driver
    pops the row; only a row ``admit`` never saw is read a second time.
    """

    exact = True

    def __init__(self, complement_rows: RowList):
        w, masks = complement_rows.width, complement_rows.masks
        if any(type(zeros) is not int for _, zeros in masks):
            raise ValueError("complement rows must be 012-rows")
        self.rows, self.num_vars = complement_rows, w
        self._fixed = [ones | zeros for ones, zeros in masks]
        # bit v of a key clashes with a 1 at variable v, bit w + v with a 0
        self._clash = _bit_index((zeros | ones << w for ones, zeros in masks), 2 * w)
        self._every = (1 << len(masks)) - 1
        for i, (ones, zeros) in enumerate(masks):
            if _gather(self._clash, ones | zeros << w) | 1 << i != self._every:
                raise ValueError(f"complement rows overlap: row {i + 1} shares members with a later row")
        self._overlaps: dict[tuple[int, int], int] = {}

    def _overlap(self, ones: int, zeros: int) -> int:
        """The number of the row's members inside the complement rows."""
        w, fixed = self.num_vars, ones | zeros
        clash = _gather(self._clash, ones | zeros << w)
        n = 0
        for i in _slots_of(self._every & ~clash):
            n += 1 << (w - (fixed | self._fixed[i]).bit_count())
        return n

    def admit(self, ones: int, zeros: int) -> bool:
        overlap = self._overlap(ones, zeros)
        if overlap < 1 << self.num_vars - (ones | zeros).bit_count():
            self._overlaps[ones, zeros] = overlap
            return True
        return False

    def final_override(self, ones: int, zeros: int) -> bool | None:
        overlap = self._overlaps.pop((ones, zeros), None)
        if overlap is None:
            overlap = self._overlap(ones, zeros)
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
        # a bool is no weight, and a weight or bound of another type would
        # fail only at the root's admit
        if any(type(x) is not int for x in (*slot_weights, bound)) or min(slot_weights, default=0) < 0:
            raise ValueError("weights must be non-negative integers, and the bound an integer")
        if len(slot_weights) % 2:
            raise ValueError("need one weight per literal slot (2w values)")
        self.weights, self.num_vars = tuple(slot_weights), len(slot_weights) // 2
        self.bound = bound
        pos, neg = self.weights[0::2], self.weights[1::2]
        self._pos, self._neg = _byte_sums(pos), _byte_sums(neg)
        self._min = _byte_sums(tuple(map(min, pos, neg)))
        self._max = _byte_sums(tuple(map(max, pos, neg)))

    def _weight(self, ones: int, zeros: int, free: list[list[int]]) -> int:
        """The row's weight with each free variable's entry taken from ``free``."""
        twos = (1 << self.num_vars) - 1 ^ (ones | zeros)
        return _mask_sum(self._pos, ones) + _mask_sum(self._neg, zeros) + _mask_sum(free, twos)

    def admit(self, ones: int, zeros: int) -> bool:
        return self._weight(ones, zeros, self._min) <= self.bound

    def refine_final(self, ones: int, zeros: int) -> tuple[list[tuple[int, int]], int]:
        """The masks of disjoint subrows holding exactly the members within
        the bound, plus the number of discarded subrows.  An entry whose
        dearest member is over the bound splits at its lowest free bit,
        0-son first."""
        kept: list[tuple[int, int]] = []
        discards = 0
        stack = [(ones, zeros)]
        while stack:
            ones, zeros = stack.pop()
            if not self.admit(ones, zeros):
                discards += 1
            elif self._weight(ones, zeros, self._max) <= self.bound:
                kept.append((ones, zeros))
            else:  # a bitstring's cheapest member is its dearest, so a free bit is left
                fixed = ones | zeros
                bit = (fixed + 1) & ~fixed
                stack += (ones | bit, zeros), (ones, zeros | bit)
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
    finals = _scan_rows(cnf) if config.method == Method.SCAN else _drive(cnf, config, stats)
    stats.time_s = time.perf_counter() - t0
    w = cnf.num_vars
    stats.rows = len(finals)
    stats.models, free = _totals(w, finals)
    stats.gamma_avg = free / len(finals) if finals else 0.0
    # prob_final has no value at w = 0, where the one row is final
    stats.prob = prob_final(w, stats.gamma_avg, len(cnf.clauses), cnf.mean_clause_len()) if w else 1.0
    return _row_list(w, tuple(finals), stats)


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
    if method == Method.CLAUSE_E:
        raise ValueError("filters run on 012-rows")
    if filt.num_vars not in (None, cnf.num_vars):
        side = "wider" if cnf.num_vars > filt.num_vars else "narrower"
        raise ValueError(f"row widths differ: the run's rows are {side} than the filter's")
    # an exact filter's answers replace the policy, so the formula it reads must be the run's
    own = getattr(filt, "cnf", cnf)
    if own is not cnf and own != cnf:
        raise ValueError("the filter was built on another formula than the run's")


def _scan_rows(cnf: Cnf) -> list[tuple[int, int]]:
    every, out = (1 << cnf.num_vars) - 1, []
    for u in itertools.product((0, 1), repeat=cnf.num_vars):
        if evaluate(cnf, u):
            ones = _pack(u)
            out.append((ones, every ^ ones))
    return out


def _admission(cnf: Cnf, config: EngineConfig, build):
    """The son screen of a run: (screen, check, search).  The screen and the
    check are called with a son's two masks, the search with
    ``sat.search_from``'s seven arguments, which hold the son's masks.

    A search counts as one solver call and answers None or the witness
    (model as a variable mask, root fixpoint ``(ones, zeros, open
    clauses)``, None for a plugged solver).  ``sat.search_from`` itself is
    the built-in search on a 012-son; a plugged solver and clause-e search
    the son's row.  A clause-e witness holds the model's true literal slots
    in place of the variable mask, so that its hint test reads the masks
    too.
    """
    filt, policy, solver, w = config.spmod, config.policy, config.solver, cnf.num_vars
    clause_e, every = config.method == Method.CLAUSE_E, (1 << w) - 1

    def search_row(w, masks, ones, rest, start, k, stats):
        found = solve_row(build(w, ones, rest), cnf, start, stats, solver=solver)
        if found is None or not clause_e:
            return found
        model, fixpoint = found
        return _spread(model) | _spread(every ^ model) << 1, fixpoint

    screen = check = search = None
    if filt is not None and filt.exact:  # a perfect filter replaces the policy
        if filt.cardinality is None:
            check = filt.admit
        else:
            search = search_from
    else:
        screen = None if filt is None else filt.admit
        if policy == Policy.SOLVER:
            search = search_row if clause_e or is_plug(solver) else search_from
        elif policy == Policy.TEST1:
            check = _on_row(lambda row: test1(row, cnf), build, w)
        elif policy == Policy.TEST12:
            check = _on_row(lambda row: test1(row, cnf) and test2(row, cnf), build, w)
    return screen, check, search


def _on_row(fn, build, w: int):
    """``fn`` for the driver's entries of width w, which the driver calls
    with an entry's two masks, then the call's other arguments: ``fn`` gets
    the row ``build(w, *masks)`` in place of the masks.  None stays None."""
    return None if fn is None else lambda a, b, *rest: fn(build(w, a, b), *rest)


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
    return _on_row(on_pop, build, w), on_split, _on_row(on_emit, build, w), _on_row(on_harmful, build, w)


def _drive(cnf: Cnf, config: EngineConfig, stats: RunStats) -> list:
    """The LIFO driver of var-012, clause-012 and clause-e.

    Each turn admits the sons of one entry in one loop, as they are made:
    the root (the one son of no entry, taken as degree -1), var-012's two
    sons of a level, clause-e's ``impose_masks`` sons, or clause-012's
    staircase, which makes its sons inside the loop.  A son faces the
    degree check, the screen, then the hint test and the counted search,
    or the check.  The turn pushes the admitted sons after the first and
    goes down the first, or unmasks the entry when it admits none; then it
    pops until an entry splits, emitting the finals on the way.

    A var-012 run with the built-in search and no screen,
    ``final_override`` or ``on_split`` walks a popped entry to a final,
    making the searches, pops and observer calls of the per-level split in
    the same order: the son that the path's witness misses is searched from
    the witness's fixpoint, the other takes the witness, and the path goes
    on through the admitted 0-son, pushing the admitted 1-son, or else
    through the 1-son.

    Pops (as admitted sons, per split), hint hits and solver calls are
    counted in local ints and written to ``stats`` when the loop returns.
    """
    method, filt = config.method, config.spmod
    w, clauses, masks = cnf.num_vars, cnf.clauses, cnf.masks
    var012, clause_e = method == Method.VAR012, method == Method.CLAUSE_E
    build = _row012e if clause_e else _row012
    screen, check, search = _admission(cnf, config, build)
    exact = filt is not None and filt.exact
    k = filt.cardinality if exact else None
    override, refine = (None, None) if filt is None else (filt.final_override, filt.refine_final)
    top = w if var012 else len(clauses)
    on_pop, on_split, on_emit, on_harmful = _observer_hooks(config.observer, build, w)
    slot_masks, staircase = cnf.slot_masks, not (var012 or clause_e)
    if staircase:
        # clause-012, per clause, its staircase steps: a literal's variable
        # bit, its sign, and the clauses the literal settles when true and
        # when false
        occ = _bit_index(slot_masks, 2 * w)
        steps = [tuple((1 << (s >> 1), s & 1, occ[s], occ[s ^ 1]) for s in c.slots) for c in clauses]

    # a bitstring passed only by a weak screen may still miss the model set;
    # on a bitstring, settling every clause (sat.final_e) means being a model
    check_model = var012 and config.policy != Policy.SOLVER and not exact
    walk = var012 and search is search_from and screen is None and override is None and on_split is None

    def finish(entry) -> list | None:
        """The output masks of a final entry; None when it holds no model."""
        if clause_e:
            return _purify(w, *entry)
        ones, zeros = entry
        if check_model and not all(pos & ones or neg & zeros for pos, neg in masks):
            return None
        if k is not None and ones.bit_count() != k:
            raise RuntimeError(f"the k-search admitted a final of weight {ones.bit_count()}, not {k}")
        if refine is None:
            return [entry]
        kept, discards = refine(ones, zeros)
        stats.weight_discards += discards
        return kept

    if not (clause_e or check_model or k is not None or refine is not None):
        finish = None  # a final is its own output

    def delete(entry) -> None:
        stats.harmful_deletions += 1
        if on_harmful is not None:
            on_harmful(*entry)

    finals: list = []
    stack: list = []
    pops = hint_hits = calls = 0
    # a stack item is (entry, degree, witness, settled-clause mask), and only
    # clause-012 reads the mask.  ``made`` holds a turn's sons as (ones, rest,
    # degree, settled), or clause-012's staircase steps, which carry the
    # entry's masks and settled mask from son to son.  The root's degree is 0,
    # as the full row fixes no variable and settles no clause; for clause-012
    # the root is the step of no literal, taken from the empty masks
    ones = rest = settled = 0
    m = start = None  # the witness's model mask and fixpoint
    entry, deg, hint, made = None, -1, None, [(0, () if clause_e else 0, 0, 0)]
    while True:
        sons = []
        if hint is not None:  # every entry of a searched run but the root has one
            m, start = hint
        for bit, neg, true, false in made:
            if staircase:
                # son j makes the j-th free literal true, the earlier ones
                # false; a literal the row fixes against adds nothing, as the
                # row's mask holds the clauses of its mate
                if (ones | rest) & bit:
                    continue
                if neg:
                    son_ones, son_rest = ones, rest | bit
                    ones |= bit
                else:
                    son_ones, son_rest = ones | bit, rest
                    rest |= bit
                son_settled = settled | true
                settled |= false
                son_deg = ((son_settled + 1) & ~son_settled).bit_length() - 1
            else:
                son_ones, son_rest, son_deg, son_settled = bit, neg, true, false
            if son_deg <= deg:
                raise RuntimeError(f"son does not settle its parent's pending clause {deg + 1}")
            if screen is not None and not screen(son_ones, son_rest):
                stats.weight_pruned += 1
                continue
            # the hint test: the witness sets the son's ones (1-slots) and
            # none of its zeros, or hits each of its bubbles
            if m is not None and m & son_ones == son_ones and (
                all(b & m for b in son_rest) if clause_e else not m & son_rest
            ):
                hint_hits += 1
                wit = hint
            elif search is not None:
                calls += 1
                wit = search(w, masks, son_ones, son_rest, start, k, stats)
                if wit is None:
                    continue
            elif check is not None and not check(son_ones, son_rest):
                continue
            else:
                wit = None
            sons.append(((son_ones, son_rest), son_deg, wit, son_settled))
        if sons:
            if on_split is not None and entry is not None:
                on_split(entry, deg, tuple(s[0] for s in sons), tuple(s[1] for s in sons))
            stack += sons[:0:-1]  # the sons after the first, to pop in order
            pops += len(sons)  # the loop ends on an empty stack: every son is popped or gone down
            entry, deg, hint, settled = sons[0]
        else:
            if entry is not None:
                delete(entry)
            if not stack:
                stats.pops, stats.hint_hits, stats.solver_calls = pops, hint_hits, calls
                return finals
            entry, deg, hint, settled = stack.pop()
        while True:
            if on_pop is not None:
                on_pop(*entry, deg, len(stack), len(finals))
            if override is not None and override(*entry):
                out = [entry]
            elif deg == top:
                out = [entry] if finish is None else finish(entry)
            elif walk:  # var-012's walk down the levels (see the docstring)
                ones, zeros = entry
                calls += top - deg  # a level searches one son
                hint_hits += top - deg  # and the other takes the witness
                for deg in range(deg + 1, top + 1):
                    bit, (m, start) = 1 << deg - 1, hint
                    if not m & bit:  # the 0-son keeps m, the 1-son is searched
                        wit = search_from(w, masks, ones | bit, zeros, start, k, stats)
                        if wit is not None:
                            stack.append(((ones | bit, zeros), deg, wit, 0))
                        zeros |= bit
                    elif (wit := search_from(w, masks, ones, zeros | bit, start, k, stats)) is None:
                        ones |= bit  # the 1-son alone, with m
                    else:  # the 0-son with its own witness, the 1-son pushed with m
                        stack.append(((ones | bit, zeros), deg, hint, 0))
                        zeros |= bit
                        hint = wit
                    pops += 1 if wit is None else 2  # the path's son, and the son pushed
                    if on_pop is not None:
                        on_pop(ones, zeros, deg, len(stack), len(finals))
                entry = ones, zeros
                out = [entry] if finish is None else finish(entry)
            else:  # the entry splits
                ones, rest = entry
                if staircase:
                    made = steps[deg]
                elif var012:  # pin the lowest free variable, 0 first
                    bit = 1 << deg
                    made = [(ones, rest | bit, deg + 1, 0), (ones | bit, rest, deg + 1, 0)]
                else:
                    # a clause-e son is a subset of its parent, so the clauses
                    # its parent settles stay settled and its scan starts at
                    # the parent's
                    split = impose_masks(w, ones, rest, clauses[deg].slots, slot_masks[deg])
                    if split is None:  # the scan found the clause pending
                        raise RuntimeError(f"row already settles its pending clause {deg + 1}")
                    made = []
                    for son_ones, son_bubbles in split:
                        son_deg = deg
                        while son_deg < top:
                            mask = slot_masks[son_deg]  # a copy of rows.settles
                            if not son_ones & mask:
                                for b in son_bubbles:
                                    if not b & ~mask:
                                        break
                                else:
                                    break
                            son_deg += 1
                        made.append((son_ones, son_bubbles, son_deg, 0))
                break
            if out is None:
                delete(entry)
            else:
                finals += out
                if on_emit is not None:
                    for piece in out:
                        on_emit(*piece)
            if not stack:  # the next turn makes no son and ends the run
                entry, made = None, ()
                break
            entry, deg, hint, settled = stack.pop()


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
