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

Candidate sons are screened by a feasibility policy (perfect solver check,
the weak tests, or none).  With a weak policy an infeasible row can enter
the stack; it is unmasked only when a later clause has no slot left to
impose on, and its removal then counts as a harmful deletion.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

from .formulas import Clause, Cnf, Dnf, evaluate, weight
from .rows import (
    ONE,
    TWO,
    ZERO,
    Row012,
    Row012e,
    RowList,
    RunStats,
    card_012,
    impose_on_slots,
    intersect_012,
    purify,
    slot_of_lit,
)
from .sat import (
    SolverFn,
    dpll_sat,
    find_k_model,
    find_model,
    row_satisfies_clause,
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
    """Optional instrumentation hooks; subclass and override what you need."""

    def on_pop(self, row, degree, stack_rows, final_rows) -> None:
        pass

    def on_split(self, parent, parent_degree, sons, son_degrees) -> None:
        pass

    def on_emit(self, row) -> None:
        pass

    def on_harmful(self, row) -> None:
        pass


@dataclass
class EngineConfig:
    method: Method = Method.CLAUSE_E
    policy: Policy = Policy.SOLVER
    spmod: "SpModFilter | None" = None
    solver: SolverFn = dpll_sat
    observer: EngineObserver | None = None


class SpModFilter:
    """Restriction of the enumeration to a special subset of the models.

    ``admits`` must answer no only when the row misses the special set;
    ``exact`` marks it perfect, in which case it replaces the feasibility
    policy entirely.
    """

    exact = False

    def admits(self, row) -> bool:
        raise NotImplementedError

    def final_override(self, row) -> bool | None:
        """True forces finality now; None defers to the mechanism."""
        return None


class CardinalityFilter(SpModFilter):
    """Keep only models with exactly k ones (perfect, solver-backed)."""

    exact = True

    def __init__(self, cnf: Cnf, k: int):
        if not 0 <= k <= cnf.num_vars:
            raise ValueError("k must lie in [0, num_vars]")
        self.cnf = cnf
        self.k = k

    def admits(self, row: Row012) -> bool:
        return self.find_witness(row) is not None

    def find_witness(self, row: Row012) -> tuple[int, ...] | None:
        return find_k_model(row, self.cnf, self.k)


class DnfKFilter(SpModFilter):
    """Weight-k models of a DNF: feasibility by term-wise interval meets."""

    exact = True

    def __init__(self, dnf: Dnf, k: int):
        if not 0 <= k <= dnf.num_vars:
            raise ValueError("k must lie in [0, num_vars]")
        self.dnf = dnf
        self.k = k

    def admits(self, row: Row012) -> bool:
        for term in self.dnf.terms:
            meet = intersect_012(row, term)
            if meet is None:
                continue
            ones = len(meet.ones())
            if ones <= self.k <= ones + meet.free_count:
                return True
        return False


class ComplementFilter(SpModFilter):
    """Feasibility from a known enumeration of the complement model set.

    A row is feasible iff its members are not exhausted by the complement
    rows, and final as soon as it misses all of them.
    """

    exact = True

    def __init__(self, complement_rows: RowList):
        for r in complement_rows.rows:
            if not isinstance(r, Row012):
                raise TypeError("complement rows must be 012-rows")
        self.rows = complement_rows

    def _overlap(self, row: Row012) -> int:
        n = 0
        for r in self.rows.rows:
            meet = intersect_012(row, r)
            if meet is not None:
                n += card_012(meet)
        return n

    def admits(self, row: Row012) -> bool:
        return self._overlap(row) < card_012(row)

    def final_override(self, row: Row012) -> bool | None:
        return True if self._overlap(row) == 0 else None


class WeightFilter(SpModFilter):
    """Keep only models of weight at most ``bound``.

    The weight of a bitstring sums one entry per variable: the weight of the
    literal slot it sets to 1.  The filter is a necessary-condition screen: it
    rejects rows whose cheapest member is already over the bound, and final
    rows are post-split so only members within the bound are emitted.
    """

    exact = False

    def __init__(self, slot_weights: Sequence[int], bound: int):
        if any(w < 0 for w in slot_weights):
            raise ValueError("weights must be non-negative")
        if len(slot_weights) % 2:
            raise ValueError("need one weight per literal slot (2w values)")
        self.weights = tuple(slot_weights)
        self.bound = bound

    def min_weight(self, row: Row012) -> int:
        total = 0
        for var in range(1, row.width + 1):
            wp, wn = self.weights[2 * (var - 1)], self.weights[2 * (var - 1) + 1]
            v = row.value(var)
            if v == ONE:
                total += wp
            elif v == ZERO:
                total += wn
            else:
                total += min(wp, wn)
        return total

    def max_weight(self, row: Row012) -> int:
        total = 0
        for var in range(1, row.width + 1):
            wp, wn = self.weights[2 * (var - 1)], self.weights[2 * (var - 1) + 1]
            v = row.value(var)
            if v == ONE:
                total += wp
            elif v == ZERO:
                total += wn
            else:
                total += max(wp, wn)
        return total

    def admits(self, row: Row012) -> bool:
        return self.min_weight(row) <= self.bound

    def restrict_final(self, row: Row012) -> tuple[list[Row012], int]:
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
            var = min(r.twos())
            stack.append(r.with_value(var, 1))
            stack.append(r.with_value(var, 0))
        return kept, discards


def filter_cardinality(cnf: Cnf, k: int) -> CardinalityFilter:
    return CardinalityFilter(cnf, k)


def filter_weight(slot_weights: Sequence[int], bound: int) -> WeightFilter:
    return WeightFilter(slot_weights, bound)


def filter_complement(complement_rows: RowList) -> ComplementFilter:
    return ComplementFilter(complement_rows)


# ---------------------------------------------------------------------------
# Split primitives


def pending_clause(row: Row012 | Row012e, cnf: Cnf) -> int:
    """Index of the first clause not yet settled by the row; h+1 when final."""
    for i, clause in enumerate(cnf.clauses, start=1):
        if not row_satisfies_clause(row, clause):
            return i
    return len(cnf.clauses) + 1


def varwise_degree(row: Row012) -> int:
    """Length of the fixed prefix: min(twos) - 1, or w for a bitstring."""
    for i, s in enumerate(row.symbols):
        if s == TWO:
            return i
    return row.width


def varwise_split(row: Row012, cnf: Cnf, solver: SolverFn = dpll_sat) -> list[Row012]:
    """Pin the first don't-care to 0 and to 1, keeping feasible candidates."""
    q = varwise_degree(row)
    if q >= row.width:
        raise ValueError("cannot split a bitstring row")
    sons = []
    for v in (0, 1):
        cand = row.with_value(q + 1, v)
        if find_model(cand, cnf, solver) is not None:
            sons.append(cand)
    if not sons:
        raise RuntimeError("both sons infeasible: parent row was infeasible")
    return sons


def clausewise012_split(row: Row012, clause: Clause) -> list[Row012]:
    """Triangular staircase over the clause's free literals.

    Son j satisfies the clause's j-th still-free literal and falsifies the
    earlier ones; literals already falsified by the row are skipped.  An
    empty result means the row cannot satisfy the clause at all.
    """
    if row_satisfies_clause(row, clause):
        raise ValueError("row already satisfies the clause")
    sons = []
    current = row
    for lit in clause.lits:
        var, want = abs(lit), 1 if lit > 0 else 0
        if current.value(var) != TWO:
            continue  # fixed against the literal
        sons.append(current.with_value(var, want))
        current = current.with_value(var, 1 - want)
    return sons


def clausewise_e_split(row: Row012e, clause: Clause) -> list[Row012e]:
    """Impose a clause on a 012e-row: bubble-overlap columns first (each
    shrinking an existing bubble to its slots inside the clause), then one
    fresh bubble over the remaining free literal slots."""
    if row_satisfies_clause(row, clause):
        raise ValueError("row already satisfies the clause")
    return impose_on_slots(row, [slot_of_lit(l) for l in clause.lits])


# ---------------------------------------------------------------------------
# The driver


def run(cnf: Cnf, config: EngineConfig | None = None) -> RowList:
    """Enumerate the (special) model set as an ordered disjoint row list."""
    config = config or EngineConfig()
    validate_config(cnf, config)
    t0 = time.perf_counter()
    stats = RunStats(method=config.method.value, policy=config.policy.value)
    if config.method == Method.SCAN:
        rows = _scan_rows(cnf)
    elif config.method == Method.VAR012:
        rows = _run_varwise(cnf, config, stats)
    else:
        rows = _run_clausewise(cnf, config, stats)
    stats.time_s = time.perf_counter() - t0
    out = RowList(cnf.num_vars, tuple(rows), stats)
    stats.rows = len(out)
    stats.models = out.total_models()
    stats.gamma_avg = out.gamma_avg()
    return out


def validate_config(cnf: Cnf, config: EngineConfig) -> None:
    """Reject method/policy/filter combinations that have no semantics."""
    method, policy, filt = config.method, config.policy, config.spmod
    if method == Method.SCAN:
        if cnf.num_vars > 24:
            raise ValueError("scan is gated to w <= 24")
        if filt is not None:
            raise ValueError("scan does not combine with filters")
        return
    if method == Method.CLAUSE_E:
        if filt is not None:
            raise ValueError("filters apply to 012-row methods only")
        if policy == Policy.TEST12:
            raise ValueError("clause-e supports policies solver, test1 (positive CNF) or none")
        if policy == Policy.TEST1 and not cnf.is_positive():
            raise ValueError("policy test1 with clause-e requires a positive CNF")
    if isinstance(filt, (CardinalityFilter, DnfKFilter, ComplementFilter)) and method != Method.VAR012:
        raise ValueError("this filter runs with method var-012")
    if isinstance(filt, WeightFilter) and method not in (Method.VAR012, Method.CLAUSE012):
        raise ValueError("the weight filter runs with var-012 or clause-012")


def _scan_rows(cnf: Cnf) -> list[Row012]:
    out = []
    for u in itertools.product((0, 1), repeat=cnf.num_vars):
        if evaluate(cnf, u):
            out.append(Row012(u))
    return out


def _policy_check(row, cnf: Cnf, policy: Policy) -> bool:
    if policy == Policy.NONE:
        return True
    if policy == Policy.TEST1:
        return bool(test1(row, cnf))
    if policy == Policy.TEST12:
        return bool(test1(row, cnf)) and bool(test2(row, cnf))
    raise AssertionError(policy)


def _run_varwise(cnf: Cnf, config: EngineConfig, stats: RunStats) -> list[Row012]:
    w = cnf.num_vars
    filt, policy, solver, obs = config.spmod, config.policy, config.solver, config.observer
    exact_filter = filt is not None and filt.exact
    weight_filter = filt if isinstance(filt, WeightFilter) else None

    def admit(cand: Row012, hint):
        """(admitted, witness) under the active filter/policy."""
        if weight_filter is not None and not weight_filter.admits(cand):
            stats.weight_pruned += 1
            return False, None
        if exact_filter:
            if isinstance(filt, CardinalityFilter):
                if hint is not None and cand.contains(hint):
                    return True, hint
                stats.solver_calls += 1
                witness = filt.find_witness(cand)
                return witness is not None, witness
            return filt.admits(cand), None
        if policy == Policy.SOLVER:
            if hint is not None and cand.contains(hint):
                return True, hint
            stats.solver_calls += 1
            witness = find_model(cand, cnf, solver)
            return witness is not None, witness
        return _policy_check(cand, cnf, policy), None

    root = Row012.full(w)
    ok, wit = admit(root, None)
    if not ok:
        return []
    finals: list[Row012] = []
    stack: list[tuple[Row012, tuple | None]] = [(root, wit)]
    while stack:
        row, hint = stack.pop()
        deg = varwise_degree(row)
        if obs:
            obs.on_pop(row, deg, tuple(r for r, _ in stack), tuple(finals))
        if filt is not None and filt.final_override(row):
            finals.append(row)
            if obs:
                obs.on_emit(row)
            continue
        if deg == w:
            u = row.symbols
            genuine = True
            if not exact_filter and policy != Policy.SOLVER:
                genuine = evaluate(cnf, u)
            if genuine and isinstance(filt, CardinalityFilter):
                assert weight(u) == filt.k
            if genuine:
                finals.append(row)
                if obs:
                    obs.on_emit(row)
            else:
                stats.harmful_deletions += 1
                if obs:
                    obs.on_harmful(row)
            continue
        sons = []
        for v in (0, 1):
            cand = row.with_value(deg + 1, v)
            ok, cwit = admit(cand, hint)
            if ok:
                sons.append((cand, cwit))
        if not sons:
            stats.harmful_deletions += 1
            if obs:
                obs.on_harmful(row)
            continue
        if obs:
            obs.on_split(row, deg, tuple(s for s, _ in sons), tuple(deg + 1 for _ in sons))
        for entry in reversed(sons):
            stack.append(entry)
    return finals


def _run_clausewise(cnf: Cnf, config: EngineConfig, stats: RunStats) -> list:
    e_level = config.method == Method.CLAUSE_E
    w, h = cnf.num_vars, len(cnf.clauses)
    policy, solver, obs = config.policy, config.solver, config.observer
    weight_filter = config.spmod if isinstance(config.spmod, WeightFilter) else None

    def admit(cand, hint):
        if weight_filter is not None and not weight_filter.admits(cand):
            stats.weight_pruned += 1
            return False, None
        if policy == Policy.SOLVER:
            if hint is not None and cand.contains(hint):
                return True, hint
            stats.solver_calls += 1
            witness = find_model(cand, cnf, solver)
            return witness is not None, witness
        return _policy_check(cand, cnf, policy), None

    root = Row012e.full(w) if e_level else Row012.full(w)
    ok, wit = admit(root, None)
    if not ok:
        return []
    finals: list = []
    stack = [(root, pending_clause(root, cnf), wit)]
    while stack:
        row, pc, hint = stack.pop()
        if obs:
            obs.on_pop(row, pc - 1, tuple(r for r, _, _ in stack), tuple(finals))
        if pc > h:
            _emit_final(row, e_level, weight_filter, finals, stats, obs)
            continue
        clause = cnf.clauses[pc - 1]
        candidates = (
            clausewise_e_split(row, clause) if e_level else clausewise012_split(row, clause)
        )
        if not candidates:
            # no slot of the pending clause was left to impose on: the row
            # was infeasible all along and is only unmasked now
            stats.harmful_deletions += 1
            if obs:
                obs.on_harmful(row)
            continue
        sons = []
        for cand in candidates:
            ok, cwit = admit(cand, hint)
            if not ok:
                continue
            cpc = pending_clause(cand, cnf)
            assert cpc > pc, "son degree must exceed the parent's"
            sons.append((cand, cpc, cwit))
        if obs:
            obs.on_split(row, pc - 1, tuple(s for s, _, _ in sons), tuple(p - 1 for _, p, _ in sons))
        for entry in reversed(sons):
            stack.append(entry)
    return finals


def _emit_final(row, e_level: bool, weight_filter, finals: list, stats: RunStats, obs) -> None:
    if e_level:
        for piece in purify(row):
            finals.append(piece)
            if obs:
                obs.on_emit(piece)
        return
    if weight_filter is not None:
        kept, discards = weight_filter.restrict_final(row)
        stats.weight_discards += discards
        for piece in kept:
            finals.append(piece)
            if obs:
                obs.on_emit(piece)
        return
    finals.append(row)
    if obs:
        obs.on_emit(row)


# ---------------------------------------------------------------------------
# Ready-made special enumerations


def enumerate_dnf_k(dnf: Dnf, k: int) -> RowList:
    """All weight-k models of a DNF, one bitstring row each."""
    shell = Cnf(dnf.num_vars, ())
    config = EngineConfig(method=Method.VAR012, spmod=DnfKFilter(dnf, k))
    return run(shell, config)


def enumerate_hitting_sets(edges: Iterable[Iterable[int]], k: int, num_vars: int) -> RowList:
    """All k-element hitting sets of a hypergraph on [num_vars], as the
    weight-k models of the positive CNF whose clauses are the edges."""
    edge_list = [tuple(sorted(set(e))) for e in edges]
    if any(not e for e in edge_list):
        return RowList(num_vars, ())
    cnf = Cnf(num_vars, tuple(Clause(e) for e in edge_list))
    config = EngineConfig(method=Method.VAR012, spmod=CardinalityFilter(cnf, k))
    return run(cnf, config)


def enumerate_from_complement(complement_rows: RowList) -> RowList:
    """Enumerate a model set given a disjoint enumeration of its complement."""
    shell = Cnf(complement_rows.width, ())
    config = EngineConfig(method=Method.VAR012, spmod=ComplementFilter(complement_rows))
    return run(shell, config)
