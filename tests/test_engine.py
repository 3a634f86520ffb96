"""The enumeration driver and its mechanisms, against the worked examples
and the brute-force oracle."""

from __future__ import annotations

import copy
import pickle
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import EQ11_ROWS, assert_built_on_first_read, erow, row012
from oracle import (
    all_bitstrings,
    assert_disjoint_cover,
    card_e,
    cnf_mask,
    from_row012,
    full_mask,
    index_of,
    random_cnf,
    row_mask,
    varwise_split,
    weight_mask,
)
import wildsat.engine
import wildsat.rows
import wildsat.sat
from wildsat.bench import GenSpec, gen_random_cnf
from wildsat.engine import (
    CardinalityFilter,
    ComplementFilter,
    DnfKFilter,
    EngineConfig,
    EngineObserver,
    Method,
    Policy,
    SpModFilter,
    WeightFilter,
    clausewise012_split,
    clausewise_e_split,
    enumerate_from_complement,
    enumerate_hitting_sets,
    pending_clause,
    run,
    validate_config,
    varwise_degree,
)
from wildsat.formulas import Clause, Cnf, Dnf
from wildsat.rows import (
    PurityError,
    Row012,
    Row012e,
    RowList,
    RunStats,
    format_rows,
    impose_on_slots,
    parse_rows,
    purify,
)
from wildsat.sat import row_satisfies_clause

# Working-stack rows of the clause-wise 012 run on phi2, condensed to w=5.
TABLE2 = {
    1: ("22222", 1),
    2: ("02222", 2),
    3: ("10222", 2),
    4: ("11122", 3),
    5: ("01222", 3),
    6: ("00022", 4),
    7: ("00102", 3),
    8: ("01022", 4),
    9: ("01121", 5),
    10: ("01021", 5),
    11: ("01011", 8),
}


def t2(i: int) -> Row012:
    return row012(TABLE2[i][0])


class TestPendingClause:
    def test_table2_values(self, phi2):
        for i, (text, pc) in TABLE2.items():
            assert pending_clause(row012(text), phi2) == pc, f"row r{i}"

    def test_table3_values(self, phi2, table3):
        expected = {1: 1, 2: 2, 3: 3, 4: 4, 6: 5, 7: 5, 10: 8, 11: 8}
        for i, pc in expected.items():
            assert pending_clause(table3[i], phi2) == pc, f"row r'{i}"

    def test_all_two_row(self, phi2):
        assert pending_clause(Row012.full(5), phi2) == 1

    def test_start_skips_the_earlier_clauses(self, phi2, table3):
        h = len(phi2.clauses)
        for row in [row012(text) for text, _ in TABLE2.values()] + list(table3.values()):
            pc = pending_clause(row, phi2)
            for start in range(1, h + 2):
                unsettled = (
                    i for i in range(start, h + 1)
                    if not row_satisfies_clause(row, phi2.clauses[i - 1])
                )
                expected = next(unsettled, h + 1)
                assert pending_clause(row, phi2, start) == expected
                if start <= pc:
                    assert expected == pc
        # r2 = 02222 settles clauses 1 and 6 (x1 = 0): a scan from clause 6 skips to 7
        assert pending_clause(t2(2), phi2, 6) == 7
        assert pending_clause(t2(2), phi2, h + 1) == h + 1

    @pytest.mark.parametrize("start", [0, -1])
    def test_start_below_one_rejected(self, phi2, start):
        # clause indices are 1-based: start 0 would scan clause h first
        with pytest.raises(ValueError, match="start at 1"):
            pending_clause(Row012.full(5), phi2, start)
        with pytest.raises(ValueError, match="start at 1"):
            pending_clause(Row012e.full(5), phi2, start)


class TestVarwiseSplit:
    def test_degree_examples(self):
        assert varwise_degree(row012("202")) == 0
        assert varwise_degree(row012("0110121021")) == 5

    def test_both_sons(self):
        sons = varwise_split(row012("202"))
        assert [str(s) for s in sons] == ["002", "102"]

    def test_infeasible_candidate_dropped(self):
        cnf = Cnf(3, (Clause((-1,)),))
        rec = _PopRecorder()
        run(cnf, EngineConfig(method=Method.VAR012, observer=rec))
        assert [str(s) for s in rec.splits[0]] == ["022"]

    def test_both_candidates_infeasible_is_a_harmful_deletion(self):
        # test1 passes the root of x1 & ~x1, and no son of it
        cnf = Cnf(2, (Clause((1,)), Clause((-1,))))
        rec = _PopRecorder()
        out = run(cnf, EngineConfig(method=Method.VAR012, policy=Policy.TEST1, observer=rec))
        assert out.rows == ()
        assert out.stats.harmful_deletions == 1 and rec.harmful == [Row012.full(2)]
        assert rec.splits == []

    def test_bitstring_cannot_split(self):
        with pytest.raises(ValueError):
            varwise_split(row012("01"))


class TestClausewise012Split:
    def test_staircase_over_full_row(self):
        clause = Clause((1, 2, 3, 4, 5))
        sons = clausewise012_split(Row012.full(5), clause)
        assert [str(s) for s in sons] == ["12222", "01222", "00122", "00012", "00001"]

    def test_table2_transitions(self, phi2):
        c = phi2.clauses
        assert clausewise012_split(t2(1), c[0]) == [t2(2), t2(3), t2(4)]
        assert clausewise012_split(t2(2), c[1]) == [t2(5), t2(6), t2(7)]
        assert clausewise012_split(t2(5), c[2]) == [t2(8), t2(9)]
        assert clausewise012_split(t2(8), c[3]) == [t2(10)]
        assert clausewise012_split(t2(10), c[4]) == [t2(11)]

    def test_satisfied_clause_rejected(self):
        with pytest.raises(ValueError, match="already satisfies"):
            clausewise012_split(row012("122"), Clause((1, 2)))

    def test_partition_property(self):
        from oracle import clause_mask

        rng = random.Random(211)
        for _ in range(200):
            w = rng.randint(1, 8)
            cnf = random_cnf(rng, w, 1, rng.randint(1, min(4, w)))
            clause = cnf.clauses[0]
            row = Row012(tuple(rng.choice((0, 1, 2, 2)) for _ in range(w)))
            from wildsat.sat import row_satisfies_clause

            if row_satisfies_clause(row, clause):
                continue
            sons = clausewise012_split(row, clause)
            expected = row_mask(w, row) & clause_mask(w, clause)
            if sons:
                assert_disjoint_cover(w, sons, expected)
            else:
                assert expected == 0


class TestClausewiseESplit:
    def test_fresh_bubble(self, phi2, table3):
        assert clausewise_e_split(table3[1], phi2.clauses[0]) == [table3[2]]
        assert clausewise_e_split(table3[2], phi2.clauses[1]) == [table3[3]]

    def test_bubble_overlap_presplit(self, phi2, table3):
        assert clausewise_e_split(table3[3], phi2.clauses[2]) == [table3[4], table3[6]]

    def test_new_bubble_next_to_old_one(self, phi2, table3):
        assert clausewise_e_split(table3[4], phi2.clauses[3]) == [table3[7]]
        assert clausewise_e_split(table3[6], phi2.clauses[4]) == [table3[11]]

    def test_overlap_column_then_remnant(self, phi2, table3):
        assert clausewise_e_split(table3[7], phi2.clauses[4]) == [table3[8], table3[10]]

    def test_satisfied_clause_rejected(self):
        with pytest.raises(ValueError, match="already satisfies"):
            clausewise_e_split(from_row012(row012("122")), Clause((1, 2)))

    def test_clause_settled_by_a_bubble_rejected(self):
        # no listed slot holds 1, but the bubble x1 | x2 lies inside x1 | x2 | x3
        row = erow("e1 2 e1 2 2 2", 3)
        with pytest.raises(ValueError, match="already satisfies"):
            clausewise_e_split(row, Clause((1, 2, 3)))
        # a bubble reaching outside the clause settles nothing
        assert clausewise_e_split(row, Clause((1, 3))) == impose_on_slots(row, Clause((1, 3)).slots)
        assert clausewise_e_split(row, Clause((1, 3))) != [row]

    @pytest.mark.parametrize("lits", [(3,), (1, -3), (1, 3)])
    def test_clause_wider_than_the_row_rejected(self, lits):
        # the slot range is checked first, also on the row 12, which settles
        # (1, -3) and (1, 3) through x1
        for row in (Row012e.full(2), from_row012(row012("12"))):
            with pytest.raises(ValueError, match="slot out of range"):
                clausewise_e_split(row, Clause(lits))

    def test_partition_property(self):
        from oracle import clause_mask, random_row012e
        from wildsat.sat import row_satisfies_clause

        rng = random.Random(223)
        for _ in range(250):
            w = rng.randint(1, 8)
            cnf = random_cnf(rng, w, 1, rng.randint(1, min(4, w)))
            clause = cnf.clauses[0]
            row = random_row012e(rng, w)
            if row_satisfies_clause(row, clause):
                continue
            sons = clausewise_e_split(row, clause)
            expected = row_mask(w, row) & clause_mask(w, clause)
            if sons:
                assert_disjoint_cover(w, sons, expected)
            else:
                assert expected == 0


class _PopRecorder(EngineObserver):
    def __init__(self):
        self.pops = []
        self.emits = []
        self.splits = []
        self.harmful = []

    def on_pop(self, row, degree, depth, emitted):
        self.pops.append(row)

    def on_split(self, parent, parent_degree, sons, son_degrees):
        self.splits.append(sons)

    def on_emit(self, row):
        self.emits.append(row)

    def on_harmful(self, row):
        self.harmful.append(row)


class TestRunGoldens:
    def test_phi0_clause012_gives_eq1(self, phi0):
        out = run(phi0, EngineConfig(method=Method.CLAUSE012))
        assert [str(r) for r in out.rows] == ["212222222", "202220222"]
        assert out.total_models() == 384

    def test_phi2_clause_e_gives_eq11(self, phi2):
        out = run(phi2, EngineConfig(method=Method.CLAUSE_E))
        assert [str(r.condense()) for r in out.rows] == EQ11_ROWS
        assert out.total_models() == 6

    def test_phi2_clause_e_pop_sequence(self, phi2, table3):
        rec = _PopRecorder()
        out = run(phi2, EngineConfig(method=Method.CLAUSE_E, observer=rec))
        expected = [table3[i] for i in (1, 2, 3, 4, 7, 10, 6, 11)]
        assert rec.pops == expected
        # the final with the bad pair is emitted as its two instantiations
        assert rec.emits == [table3[10], table3[12], table3[13]]
        assert len(out.rows) == 3

    def test_phi2_clause012_stack_discipline(self, phi2):
        # LIFO processing: the first son of a split is treated next, so the
        # run reaches the first final row along the leftmost branch
        rec = _PopRecorder()
        run(phi2, EngineConfig(method=Method.CLAUSE012, policy=Policy.NONE, observer=rec))
        prefix = [t2(i) for i in (1, 2, 5, 8, 10, 11)]
        assert rec.pops[: len(prefix)] == prefix
        assert rec.emits[0] == t2(11)

    def test_phi2_clause_e_trace_under_no_policy(self, phi2, table3):
        rec = _PopRecorder()
        out = run(phi2, EngineConfig(method=Method.CLAUSE_E, policy=Policy.NONE, observer=rec))
        # the infeasible pre-split half enters the stack and dies harmfully
        expected = [table3[i] for i in (1, 2, 3, 4, 7, 8, 10, 6, 11)]
        assert rec.pops == expected
        assert out.stats.harmful_deletions == 1
        assert [str(r.condense()) for r in out.rows] == EQ11_ROWS

    def test_unsat_yields_empty(self):
        cnf = Cnf(2, (Clause((1,)), Clause((-1,))))
        for method in (Method.VAR012, Method.CLAUSE012, Method.CLAUSE_E):
            out = run(cnf, EngineConfig(method=method))
            assert out.rows == ()
            assert out.total_models() == 0

    def test_empty_cnf_full_cube(self):
        cnf = Cnf(3, ())
        for method in (Method.CLAUSE012, Method.CLAUSE_E):
            out = run(cnf, EngineConfig(method=method))
            assert out.total_models() == 8
            assert len(out.rows) == 1
        # variable-wise branching delivers the cube one bitstring at a time
        out = run(cnf, EngineConfig(method=Method.VAR012))
        assert out.total_models() == 8
        assert len(out.rows) == 8


class TestPoliciesAgree:
    def test_output_invariant_and_harmful_counts(self):
        rng = random.Random(227)
        for _ in range(40):
            w = rng.randint(1, 8)
            cnf = random_cnf(rng, w, rng.randint(0, 10), rng.randint(1, min(3, w)))
            for method in (Method.CLAUSE012, Method.CLAUSE_E):
                outs = {}
                for policy in (Policy.SOLVER, Policy.TEST1, Policy.TEST12, Policy.NONE):
                    if method == Method.CLAUSE_E and policy in (Policy.TEST1, Policy.TEST12):
                        continue
                    out = run(cnf, EngineConfig(method=method, policy=policy))
                    outs[policy] = out
                    if policy == Policy.SOLVER:
                        assert out.stats.harmful_deletions == 0
                    else:
                        assert out.stats.harmful_deletions >= 0
                baseline = outs[Policy.SOLVER].rows
                for policy, out in outs.items():
                    assert out.rows == baseline, f"{method} {policy}"

    def test_varwise_weak_policies_match(self):
        rng = random.Random(229)
        for _ in range(25):
            w = rng.randint(1, 7)
            cnf = random_cnf(rng, w, rng.randint(1, 8), rng.randint(1, min(3, w)))
            outs = [
                run(cnf, EngineConfig(method=Method.VAR012, policy=p)).rows
                for p in (Policy.SOLVER, Policy.TEST12, Policy.NONE)
            ]
            assert outs[0] == outs[1] == outs[2]


class TestEngineInvariants:
    def test_oracle_equivalence_all_methods(self):
        rng = random.Random(233)
        for _ in range(60):
            w = rng.randint(1, 9)
            positive = rng.random() < 0.4
            cnf = random_cnf(rng, w, rng.randint(0, 12), rng.randint(1, min(4, w)), positive)
            expected = cnf_mask(cnf)
            for method in (Method.VAR012, Method.CLAUSE012, Method.CLAUSE_E):
                out = run(cnf, EngineConfig(method=method))
                assert_disjoint_cover(w, out.rows, expected)
                assert len(out.rows) <= max(expected.bit_count(), 1)
                if expected:
                    assert len(out.rows) <= expected.bit_count()

    def test_mechanism_contract_on_instrumented_runs(self):
        # sons feasible (7a), strictly deeper (7b), and exactly covering the
        # parent's share of the model set (7c); stack+finals stay disjoint
        # and keep covering the model set after every pop.  The checker
        # mirrors the stack and the finals from the hooks alone, and the
        # mirror's sizes must match the depth and emitted count of on_pop.
        rng = random.Random(239)

        class Checker(EngineObserver):
            def __init__(self, w, mod_mask, root):
                self.w = w
                self.mod = mod_mask
                self.stack = [root]
                self.finals = []

            def on_pop(self, row, degree, depth, emitted):
                assert self.stack.pop() == row, "pop is not the top of the stack"
                assert len(self.stack) == depth, "depth is not the stack size"
                assert len(self.finals) == emitted, "emitted is not the finals count"
                union = 0
                total = 0
                for r in self.stack + [row] + self.finals:
                    m = row_mask(self.w, r)
                    union |= m
                    total += m.bit_count()
                assert total == union.bit_count(), "stack/final rows overlap"
                assert self.mod & ~union == 0, "stack+finals lost models"

            def on_split(self, parent, parent_degree, sons, son_degrees):
                pm = row_mask(self.w, parent)
                um = 0
                for s, d in zip(sons, son_degrees):
                    assert d > parent_degree, "degree must strictly increase"
                    sm = row_mask(self.w, s)
                    assert sm & self.mod, "(7a): infeasible son emitted"
                    um |= sm
                assert um & self.mod == pm & self.mod, "(7c): model share changed"
                self.stack.extend(reversed(sons))

            def on_emit(self, row):
                self.finals.append(row)

        for _ in range(25):
            w = rng.randint(1, 8)
            cnf = random_cnf(rng, w, rng.randint(1, 8), rng.randint(1, min(3, w)))
            mod = cnf_mask(cnf)
            for method in (Method.VAR012, Method.CLAUSE012, Method.CLAUSE_E):
                root = (Row012e if method == Method.CLAUSE_E else Row012).full(w)
                checker = Checker(w, mod, root)
                out = run(cnf, EngineConfig(method=method, observer=checker))
                assert checker.finals == list(out.rows)

    def test_byte_identical_reruns(self, phi2):
        for method in (Method.VAR012, Method.CLAUSE012, Method.CLAUSE_E):
            a = run(phi2, EngineConfig(method=method))
            b = run(phi2, EngineConfig(method=method))
            assert format_rows(a) == format_rows(b)

    def test_scan_matches(self, phi2):
        out = run(phi2, EngineConfig(method=Method.SCAN))
        assert_disjoint_cover(5, out.rows, cnf_mask(phi2))
        assert len(out.rows) == 6


@st.composite
def small_cnfs(draw, min_width: int = 1) -> Cnf:
    """Small CNFs, mixed or positive, with unit clauses and duplicate
    clauses among them."""
    w = draw(st.integers(min_width, 7))
    positive = draw(st.booleans())
    clauses = []
    for _ in range(draw(st.integers(0, 10 if w else 0))):
        vars_ = draw(st.lists(st.integers(1, w), min_size=1, max_size=min(4, w), unique=True))
        clauses.append(tuple(v if positive or draw(st.booleans()) else -v for v in vars_))
    for _ in range(draw(st.integers(0, 3)) if clauses else 0):
        dup = clauses[draw(st.integers(0, len(clauses) - 1))]
        clauses.insert(draw(st.integers(0, len(clauses))), dup)
    return Cnf(w, tuple(clauses))


class TestResumedPendingClause:
    """run() scans a son's pending clause from its parent's; that must
    agree with a fresh scan from clause 1."""

    class FreshScan(EngineObserver):
        def __init__(self, cnf):
            self.cnf = cnf

        def on_split(self, parent, parent_degree, sons, son_degrees):
            for son, degree in zip(sons, son_degrees):
                assert degree + 1 == pending_clause(son, self.cnf)

    @given(small_cnfs())
    @settings(max_examples=120, deadline=None)
    def test_pushed_degree_matches_fresh_scan(self, cnf):
        for method in (Method.CLAUSE012, Method.CLAUSE_E):
            for policy in Policy:
                config = EngineConfig(method=method, policy=policy)
                try:
                    validate_config(cnf, config)
                except ValueError:
                    continue
                config.observer = self.FreshScan(cnf)
                out = run(cnf, config)
                assert_disjoint_cover(cnf.num_vars, out.rows, cnf_mask(cnf))

    def test_son_missing_the_pending_clause_is_an_error(self, phi2, monkeypatch):
        # a clause-012 son's degree comes from the clause occurrence index:
        # with one that lists no clause, no son settles the imposed clause
        built = []
        monkeypatch.setattr(wildsat.engine, "_bit_index", lambda masks, nbits: built.append(nbits) or [0] * nbits)
        with pytest.raises(RuntimeError, match="pending clause"):
            run(phi2, EngineConfig(method=Method.CLAUSE012, policy=Policy.NONE))
        assert built

    def test_walk_son_missing_the_pending_clause_is_an_error(self, phi2, monkeypatch):
        # the one admission checks a son's degree as the staircase makes
        # it, under policy solver as under none (the test above)
        built = []
        monkeypatch.setattr(wildsat.engine, "_bit_index", lambda masks, nbits: built.append(nbits) or [0] * nbits)
        with pytest.raises(RuntimeError, match="pending clause"):
            run(phi2, EngineConfig(method=Method.CLAUSE012, policy=Policy.SOLVER))
        assert built


class TestSettledClauseMask:
    """A clause-012 son's degree is the lowest zero bit of its settled-clause
    mask: its parent's, ORed with the clauses that hold the son's true
    literal and the mates of the staircase's earlier free literals."""

    class Degrees(EngineObserver):
        def __init__(self, cnf):
            self.cnf, self.splits = cnf, []

        def on_split(self, parent, parent_degree, sons, son_degrees):
            assert list(son_degrees) == [pending_clause(son, self.cnf) - 1 for son in sons]
            self.splits.append((str(parent), [str(son) for son in sons], list(son_degrees)))

    # clauses -> (rows, harmful deletions under solver and under none,
    # splits as (parent, sons, son degrees))
    CASES = {
        # x1 = 0, set false on the way to the second son, settles (-1 3)
        ((1, 2), (-1, 3)): (
            ["121", "012"], 0, 0, [("222", ["122", "012"], [1, 2]), ("122", ["121"], [2])]
        ),
        # the row 022 fixes x1 against the literal 1 of the imposed clause
        ((-1, 2), (1, 3, 2)): (
            ["021", "010", "112"], 0, 0, [("222", ["022", "112"], [1, 2]), ("022", ["021", "010"], [2, 2])]
        ),
        # a literal settles both copies of a duplicated clause at once
        ((1, 2), (1, 2), (-2, 3), (-2, 3)): (
            ["102", "111", "011"], 0, 0,
            [("222", ["122", "012"], [2, 2]), ("122", ["102", "111"], [4, 4]), ("012", ["011"], [4])],
        ),
        # under policy none, both sons of the root are harmful deletions
        ((1, 2), (-1,), (-2,)): ([], 0, 2, [("22", ["12", "01"], [1, 2])]),
    }

    @pytest.mark.parametrize("policy", [Policy.SOLVER, Policy.NONE])
    @pytest.mark.parametrize("clauses", list(CASES), ids=["false-literal", "fixed-against", "duplicates", "harmful"])
    def test_son_degrees_are_the_fresh_pending_clause(self, clauses, policy):
        rows, solver_harmful, none_harmful, splits = self.CASES[clauses]
        cnf = Cnf(max(abs(l) for c in clauses for l in c), clauses)
        rec = self.Degrees(cnf)
        out = run(cnf, EngineConfig(method=Method.CLAUSE012, policy=policy, observer=rec))
        assert [str(r) for r in out.rows] == rows
        assert out.stats.harmful_deletions == (solver_harmful if policy == Policy.SOLVER else none_harmful)
        if rows:  # under policy solver the unsatisfiable formula's root has no son
            assert rec.splits == splits

    @pytest.mark.parametrize("method, builds", [(Method.CLAUSE012, 1), (Method.VAR012, 0), (Method.CLAUSE_E, 0)])
    def test_only_clause012_builds_the_occurrence_index(self, phi2, monkeypatch, method, builds):
        built, index = [], wildsat.engine._bit_index
        monkeypatch.setattr(wildsat.engine, "_bit_index", lambda *args: built.append(args) or index(*args))
        out = run(phi2, EngineConfig(method=method, policy=Policy.SOLVER))
        assert len(out) > 1
        assert len(built) == builds


class TestInlineSteps:
    """The driver splits rows and takes their degrees from the masks
    itself; every split must be one the reference helpers give:
    ``varwise_split``/``varwise_degree`` for var-012,
    ``clausewise012_split``/``pending_clause`` for clause-012 and
    ``clausewise_e_split``/``pending_clause`` for clause-e.  Only the
    admitted sons are reported, so they form an in-order subsequence."""

    class Reference(EngineObserver):
        def __init__(self, cnf, method):
            self.cnf, self.method = cnf, method

        def on_split(self, parent, parent_degree, sons, son_degrees):
            if self.method == Method.VAR012:
                reference = varwise_split(parent)
                degrees = [varwise_degree(son) for son in sons]
            else:
                split = clausewise_e_split if self.method == Method.CLAUSE_E else clausewise012_split
                reference = split(parent, self.cnf.clauses[parent_degree])
                degrees = [pending_clause(son, self.cnf) - 1 for son in sons]
            rest = iter(reference)
            assert all(any(son == ref for ref in rest) for son in sons)
            assert list(son_degrees) == degrees

    @given(small_cnfs(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_sons_and_degrees_match_the_reference_helpers(self, cnf, data):
        configs = [EngineConfig(method=m, policy=p) for m in (Method.VAR012, Method.CLAUSE012) for p in Policy]
        e_policies = [Policy.SOLVER, Policy.NONE] + [Policy.TEST1] * cnf.is_positive()
        configs += [EngineConfig(method=Method.CLAUSE_E, policy=p) for p in e_policies]
        k = data.draw(st.integers(0, cnf.num_vars))
        configs.append(EngineConfig(method=Method.VAR012, spmod=CardinalityFilter(cnf, k)))
        for config in configs:
            config.observer = self.Reference(cnf, config.method)
            out = run(cnf, config)
            if config.spmod is None:
                assert_disjoint_cover(cnf.num_vars, out.rows, cnf_mask(cnf))


class TestClauseERowsAtTheBoundary:
    """A clause-e run with no observer and no filter keeps (ones, bubbles)
    masks on its stack, splits them on masks and emits the masks of each
    final's ``rows._purify`` pieces: ``run`` and ``format_rows`` build no
    e-row, and the first read of ``rows`` builds one per output row."""

    def test_rows_built_only_for_finals_and_their_pieces(self, monkeypatch, row_builds):
        finals, split = [], wildsat.engine._purify

        def recording(width, ones, bubbles):
            finals.append((width, ones, bubbles))
            return split(width, ones, bubbles)

        monkeypatch.setattr(wildsat.engine, "_purify", recording)
        cnf = gen_random_cnf(GenSpec(10, 24, 3, seed=3))
        out = run(cnf, EngineConfig(method=Method.CLAUSE_E, policy=Policy.NONE))
        format_rows(out)
        assert row_builds == []
        assert_built_on_first_read(out, row_builds)
        monkeypatch.undo()
        # finals with and without bad pairs; the rows are their pieces
        rows = [wildsat.rows._row012e(*final) for final in finals]
        assert any(row.is_purified() for row in rows) and not all(row.is_purified() for row in rows)
        assert list(out.rows) == [piece for row in rows for piece in purify(row)]


class Test012RowsAtTheBoundary:
    """var-012 and clause-012 keep (ones, zeros) masks on the stack and test
    the hint on them: with no observer and no screen, ``run`` and
    ``format_rows`` build no ``Row012``, for a candidate son or for an
    output row, and the first read of ``rows`` builds one per output row."""

    @pytest.mark.parametrize("job", ["hitting-sets", "clause-012/solver"])
    def test_rows_built_only_for_output(self, row_builds, job):
        if job == "hitting-sets":
            rng = random.Random(5)
            out = enumerate_hitting_sets([rng.sample(range(1, 13), 3) for _ in range(10)], 4, 12)
        else:
            out = run(gen_random_cnf(GenSpec(10, 24, 3, seed=3)), EngineConfig(method=Method.CLAUSE012))
        format_rows(out)
        assert row_builds == []
        assert out.stats.solver_calls and out.stats.hint_hits  # sons were searched and hinted
        assert_built_on_first_read(out, row_builds)


class TestRowListPaths:
    """A run's list is made from the driver's masks, and ``RowList(width,
    rows, stats)`` reads the masks of rows: the two give equal lists and the
    same text, and a list survives pickle and deepcopy before and after its
    rows are built."""

    @staticmethod
    def runs():
        rng = random.Random(41)
        for positive in (False, True):
            cnf = random_cnf(rng, 7, 14, 3, positive)
            for method in Method:
                for policy in Policy:
                    config = EngineConfig(method=method, policy=policy)
                    try:
                        validate_config(cnf, config)
                    except ValueError:
                        continue
                    yield run(cnf, config)
        cnf = gen_random_cnf(GenSpec(8, 12, 3, seed=2))
        weighed = run(cnf, EngineConfig(method=Method.CLAUSE012, spmod=WeightFilter([1, 0] * 8, 3)))
        assert weighed.stats.weight_discards  # refine_final split a final
        yield weighed
        yield enumerate_from_complement(run(cnf, EngineConfig(method=Method.CLAUSE012)))  # final_override

    @staticmethod
    def assert_one_list(out, text):
        twins = [pickle.loads(pickle.dumps(out)), copy.deepcopy(out)]  # masks only
        assert format_rows(RowList(out.width, out.rows)) == text
        assert RowList(out.width, out.rows, out.stats) == out
        twins += [pickle.loads(pickle.dumps(out)), copy.deepcopy(out)]  # rows built
        for twin in twins:
            assert twin == out and twin.rows == out.rows and format_rows(twin) == text

    def test_masks_and_rows_give_one_list(self):
        ran = set()
        for out in self.runs():
            self.assert_one_list(out, format_rows(out))
            if len(out):
                ran.add((out.stats.method, out.stats.policy))
        assert len(ran) == 4 + 4 + 3 + 4  # every method under each legal policy, with rows

    def test_a_mixed_list_from_parse_rows(self):
        text = "rows w=3 n=3\n1 0 2\n0 e1 e1\n1 1 2\n"
        parsed = parse_rows(text)
        assert [type(row) for row in parsed.rows] == [Row012, Row012e, Row012]
        assert format_rows(parsed) == text
        self.assert_one_list(parsed, text)

    def test_an_unpurified_list_is_refused(self, table3):
        rows = RowList(5, (table3[11],))
        assert not table3[11].is_purified()
        for out in (rows, pickle.loads(pickle.dumps(rows)), copy.deepcopy(rows)):
            assert out == rows and out.total_models() == card_e(table3[11])
            with pytest.raises(PurityError):
                format_rows(out)


class TestWitnessWalk:
    """A var-012 run with the built-in search, no screen, no override and
    no ``on_split`` walks a popped entry's levels in one inner loop, in the
    per-level loop's order; setting ``on_split`` keeps the per-level loop.
    Both give the same rows, counters and ``on_pop`` calls.  The walk makes
    the per-level searches in order, less those that a k-run's witness
    refutes before they propagate once its k ones are fixed."""

    class PopLog(EngineObserver):
        def __init__(self):
            self.popped = []

        def on_pop(self, row, degree, depth, emitted):
            self.popped.append((str(row), degree, depth, emitted))

    @staticmethod
    def counters(out):
        st = out.stats
        return st.solver_calls, st.decisions, st.propagations, st.conflicts, st.hint_hits, st.pops

    @staticmethod
    def cnfs(seed):
        rng = random.Random(seed)
        return [
            random_cnf(rng, w, rng.randint(0, 2 * w), rng.randint(1, min(3, w)), positive)
            for positive in (False, True)
            for w in range(1, 11)
            for _ in range(3)
        ]

    @staticmethod
    def configs(cnf):
        configs = [EngineConfig(method=Method.VAR012, policy=Policy.SOLVER)]
        return configs + [
            EngineConfig(method=Method.VAR012, spmod=CardinalityFilter(cnf, k)) for k in range(cnf.num_vars + 1)
        ]

    @staticmethod
    def recorder(monkeypatch, answers=None):
        """The (ones, zeros) of each search the driver makes; with
        ``answers``, that list also gets each search's arguments and its
        answer."""
        searched, search = [], wildsat.engine.search_from

        def recording(w, masks, ones, zeros, *rest):
            searched.append((ones, zeros))
            found = search(w, masks, ones, zeros, *rest)
            if answers is not None:
                answers.append(((w, masks, ones, zeros, *rest), found))
            return found

        monkeypatch.setattr(wildsat.engine, "search_from", recording)
        return searched

    @staticmethod
    def splits():
        obs = EngineObserver()
        obs.on_split = lambda *args: None
        return obs

    def test_the_walk_matches_the_per_level_loop(self):
        walked = 0
        for cnf in self.cnfs(30):
            for config in self.configs(cnf):
                plain = run(cnf, config)
                reference = self.PopLog()  # on_split keeps the per-level loop
                reference.on_split = lambda *args: None
                per_level = run(cnf, replace(config, observer=reference))
                obs = self.PopLog()
                popped = run(cnf, replace(config, observer=obs))
                for out in (per_level, popped):
                    assert format_rows(plain) == format_rows(out)
                    assert self.counters(plain) == self.counters(out)
                assert obs.popped == reference.popped
                assert plain.stats.pops == len(obs.popped)
                walked += len(plain.rows) > 1
        assert walked > 100

    def test_the_walk_makes_the_per_level_searches(self, monkeypatch):
        # on_pop keeps the walk's searches; the per-level loop of an
        # on_split run makes them in the same order, and each search it
        # makes on top answers None with no counter moved: a son refuted
        # before propagation
        answers = []
        searched = self.recorder(monkeypatch, answers)
        walked = skipped = 0
        for cnf in self.cnfs(33):
            for config in self.configs(cnf):
                calls = []
                for obs in (None, self.PopLog(), self.splits()):
                    run(cnf, replace(config, observer=obs))
                    calls.append(searched[:])
                    searched.clear()
                assert calls[0] == calls[1]
                walk = iter(calls[0])
                step = next(walk, None)
                for (args, found), masks in zip(answers[-len(calls[2]) :], calls[2]):
                    if masks == step:
                        step = next(walk, None)
                        continue
                    assert found is None
                    stats = RunStats()
                    assert wildsat.sat.search_from(*args[:6], stats) is None and stats == RunStats()
                    skipped += 1
                assert step is None  # the walk's list lies in the per-level one
                answers.clear()
                walked += len(calls[0]) > 2
        assert walked > 100 and skipped > 100

    def test_the_walk_ends_once_the_witness_ones_are_fixed(self, monkeypatch):
        # the 2-hitting sets of the edges {1, 2} and {3, 4} on five vertices.
        # Each path fixes its witness's two ones by level 3, with the
        # witness's fixpoint.  A 1-son off the witness would then hold three
        # ones, and a 0-son on it clashes with the fixpoint, so the walk
        # sets levels 4 and 5 from the witness without searching them
        edges, k, n = [(1, 2), (3, 4)], 2, 5
        cnf = Cnf(n, tuple(Clause(e) for e in edges))
        config = EngineConfig(method=Method.VAR012, spmod=CardinalityFilter(cnf, k))
        searched = self.recorder(monkeypatch)
        walked = enumerate_hitting_sets(edges, k, n)
        made = len(searched)
        searched.clear()
        reference = self.PopLog()
        reference.on_split = lambda *args: None
        per_level = run(cnf, replace(config, observer=reference))
        assert (made, len(searched)) == (6, 14)  # fewer searches on the walk
        assert [str(row) for row in walked.rows] == ["01010", "01100", "10010", "10100"]
        assert format_rows(walked) == format_rows(per_level)
        assert replace(walked.stats, time_s=0) == replace(per_level.stats, time_s=0)
        obs = self.PopLog()
        run(cnf, replace(config, observer=obs))
        assert obs.popped == reference.popped
        assert len(obs.popped) == walked.stats.pops

    @pytest.mark.parametrize("observer", [None, "on_pop", "on_split"])
    def test_a_zero_son_with_its_own_witness_takes_the_path(self, monkeypatch, observer):
        # x1 or x2: the root's witness is 10, so the 0-son x1=0 is searched;
        # admitted with witness 01, it takes the path and x1=1 is pushed
        # with 10.  The path searches 00 before the pushed son searches 11
        searched = self.recorder(monkeypatch)
        obs = EngineObserver()
        if observer is not None:
            setattr(obs, observer, lambda *args: None)
        out = run(Cnf(2, (Clause((1, 2)),)), EngineConfig(method=Method.VAR012, observer=obs))
        assert [str(row) for row in out.rows] == ["01", "10", "11"]
        assert searched == [(0, 0), (0, 0b01), (0, 0b11), (0b11, 0)]
        # searched: the root, x1=0, 00 and 11; x1=1, 01 and 10 take a
        # witness; the six admitted entries are popped
        assert (out.stats.solver_calls, out.stats.hint_hits, out.stats.pops) == (4, 3, 6)


class TestClause012Walk:
    """A clause-012 run admits each staircase son as it makes it and goes
    down the first, under every policy, a screen and a plugged solver.
    ``on_split`` (which closes var-012's walk) changes nothing of that: a
    run with it makes the same searches in the same order and gives the
    same rows, counters and observer calls as a run without."""

    class Log(EngineObserver):
        def __init__(self):
            self.popped, self.emitted = [], []

        def on_pop(self, row, degree, depth, emitted):
            self.popped.append((str(row), degree, depth, emitted))

        def on_emit(self, row):
            self.emitted.append(str(row))

    @staticmethod
    def cnfs(seed):
        rng = random.Random(seed)
        return [
            random_cnf(rng, w, rng.randint(0, 2 * w), rng.randint(1, min(3, w)), positive)
            for positive in (False, True)
            for w in range(1, 11)
            for _ in range(12)
        ]

    @staticmethod
    def configs(cnf):
        """The solver, the weak policies and none, a weight screen in front
        of the solver and a plugged solver."""
        base = EngineConfig(method=Method.CLAUSE012, policy=Policy.SOLVER)
        weights = [(3 * v) % 4 for v in range(2 * cnf.num_vars)]
        return [replace(base, policy=policy) for policy in Policy] + [
            replace(base, spmod=WeightFilter(weights, sum(weights) // 3)),
            replace(base, solver=lambda c: wildsat.sat.dpll_sat(c)),
        ]

    @staticmethod
    def runs(cnf, config):
        """The run with no observer, with a logging observer and with the
        same observer and an ``on_split``."""
        logged, split = TestClause012Walk.Log(), TestClause012Walk.Log()
        split.on_split = lambda *args: None
        outs = [run(cnf, replace(config, observer=obs)) for obs in (None, logged, split)]
        return outs, logged, split

    @staticmethod
    def stats(out):
        return {**vars(out.stats), "time_s": None}

    def test_on_split_changes_no_row_counter_or_hook_call(self):
        walked = [0] * 6  # per config, the runs with more than one row
        for cnf in self.cnfs(36):
            for i, config in enumerate(self.configs(cnf)):
                (plain, logged, split), log, split_log = self.runs(cnf, config)
                for out in (logged, split):
                    assert format_rows(plain) == format_rows(out)
                    assert self.stats(plain) == self.stats(out)
                assert log.popped == split_log.popped
                assert log.emitted == split_log.emitted == [str(row) for row in plain.rows]
                assert plain.stats.pops == len(log.popped)
                walked[i] += len(plain.rows) > 1
        assert min(walked) > 50, walked

    def test_on_split_changes_no_search(self, monkeypatch):
        searched = TestWitnessWalk.recorder(monkeypatch)
        walked = 0
        for cnf in self.cnfs(37):
            calls, outs = [], []
            for obs in (None, TestWitnessWalk.PopLog(), TestWitnessWalk.splits()):
                outs.append(run(cnf, EngineConfig(method=Method.CLAUSE012, policy=Policy.SOLVER, observer=obs)))
                calls.append(searched[:])
                searched.clear()
            assert calls[0] == calls[1] == calls[2]
            walked += len(outs[0]) > 1
        assert walked > 100


class TestObserverHooksLeftAsTheNoOp:
    """The driver calls, and builds rows for, only the observer hooks that
    are set; ``EngineObserver`` leaves each None."""

    class PopsOnly(EngineObserver):
        def __init__(self):
            self.pops = 0

        def on_pop(self, row, degree, depth, emitted):
            assert isinstance(row, Row012e)
            self.pops += 1

    @pytest.mark.parametrize("observer", ["bare", "pops-only"])
    def test_clause_e_builds_rows_only_for_the_overridden_hooks(self, row_builds, observer):
        obs = EngineObserver() if observer == "bare" else self.PopsOnly()
        cnf = gen_random_cnf(GenSpec(10, 24, 3, seed=3))
        out = run(cnf, EngineConfig(method=Method.CLAUSE_E, policy=Policy.NONE, observer=obs))
        format_rows(out)
        pops = obs.pops if observer == "pops-only" else 0
        # the run has harmful deletions and finals with bad pairs (the test
        # above), and builds a row for none of them, only for each pop a set
        # on_pop reads
        assert out.stats.harmful_deletions
        assert len(row_builds) == pops
        assert_built_on_first_read(out, row_builds)

    def test_an_overridden_hook_of_an_instance_is_called(self, phi2):
        obs, splits = EngineObserver(), []
        obs.on_split = lambda parent, degree, sons, son_degrees: splits.append(sons)
        run(phi2, EngineConfig(method=Method.CLAUSE012, observer=obs))
        assert splits and all(isinstance(son, Row012) for sons in splits for son in sons)


class TestFilterHooks:
    """A filter's ``admit`` and ``final_override`` get the (ones, zeros)
    masks of the driver's candidates and popped entries: the fields of the
    rows the observer sees."""

    class Seen(SpModFilter):
        methods = (Method.CLAUSE012,)

        def __init__(self, exact, final):
            self.exact, self.final = exact, final
            self.admitted, self.popped = [], []

        def admit(self, ones, zeros):
            self.admitted.append((ones, zeros))
            return True

        def final_override(self, ones, zeros):
            self.popped.append((ones, zeros))
            return self.final

    @pytest.mark.parametrize("exact", [False, True])
    def test_hooks_see_the_masks_of_the_rows_the_observer_sees(self, phi2, exact):
        filt, rec = self.Seen(exact, None), _PopRecorder()
        out = run(phi2, EngineConfig(method=Method.CLAUSE012, policy=Policy.NONE, spmod=filt, observer=rec))
        assert out.rows == run(phi2, EngineConfig(method=Method.CLAUSE012, policy=Policy.NONE)).rows
        masks = lambda rows: [(r.ones, r.zeros) for r in rows]
        assert filt.popped == masks(rec.pops)
        # every candidate is admitted: the root, then the sons of each split
        assert filt.admitted == masks([Row012.full(5)] + [son for sons in rec.splits for son in sons])

    def test_an_override_emits_the_row(self, phi2):
        out = run(phi2, EngineConfig(method=Method.CLAUSE012, policy=Policy.NONE, spmod=self.Seen(False, True)))
        assert out.rows == (Row012.full(5),)


class TestHarmfulDeletions:
    """A row none of whose candidate sons is admitted is a harmful deletion,
    under every method, and is not reported as a split."""

    class Recorder(EngineObserver):
        def __init__(self):
            self.harmful = 0
            self.empty_splits = 0

        def on_split(self, parent, parent_degree, sons, son_degrees):
            self.empty_splits += not sons

        def on_harmful(self, row):
            self.harmful += 1

    @pytest.mark.parametrize("method", [Method.VAR012, Method.CLAUSE012])
    @pytest.mark.parametrize("policy", [Policy.TEST1, Policy.TEST12])
    def test_counted_once_with_on_harmful(self, method, policy):
        # test1/test12 admit rows of this instance that no son of survives
        cnf = gen_random_cnf(GenSpec(10, 30, 3, seed=1))
        rec = self.Recorder()
        out = run(cnf, EngineConfig(method=method, policy=policy, observer=rec))
        assert out.stats.harmful_deletions > 0
        assert out.stats.harmful_deletions == rec.harmful
        assert rec.empty_splits == 0
        assert out.rows == run(cnf, EngineConfig(method=method)).rows


@st.composite
def special_sets(draw):
    """(cnf, filter, mask of the special model set) for every filter kind,
    over small widths including w=0, with unit, duplicate and contradictory
    clauses; the complement filter gets an empty complement when the
    formula is UNSAT."""
    cnf = draw(small_cnfs(min_width=0))
    w = cnf.num_vars
    if w and draw(st.booleans()):
        v = draw(st.integers(1, w))
        cnf = Cnf(w, cnf.clauses + (Clause((v,)), Clause((-v,))))  # UNSAT
    models = cnf_mask(cnf)
    kind = draw(st.sampled_from(["none", "cardinality", "weight", "complement", "dnf-k"]))
    if kind == "none":
        return cnf, None, models
    if kind == "cardinality":
        k = draw(st.integers(0, w))
        return cnf, CardinalityFilter(cnf, k), models & weight_mask(w, k)
    if kind == "weight":
        weights = draw(st.lists(st.integers(0, 3), min_size=2 * w, max_size=2 * w))
        bound = draw(st.integers(0, 3 * w))
        light = 0
        for u in all_bitstrings(w):
            if sum(weights[2 * i + 1 - b] for i, b in enumerate(u)) <= bound:
                light |= 1 << index_of(u)
        return cnf, WeightFilter(weights, bound), models & light
    shell = Cnf(w, ())
    if kind == "complement":
        comp = RowList(w, run(cnf, EngineConfig(method=Method.CLAUSE012)).rows)
        return shell, ComplementFilter(comp), full_mask(w) ^ models
    k = draw(st.integers(0, w))
    terms = draw(st.lists(st.tuples(*[st.sampled_from((0, 1, 2))] * w), max_size=4))
    dnf = Dnf(w, tuple(Row012(t) for t in terms))
    expected = 0
    for t in dnf.terms:
        expected |= row_mask(w, t)
    return shell, DnfKFilter(dnf, k), expected & weight_mask(w, k)


class TestEveryAcceptedConfig:
    """run() under every method x policy x filter that validate_config
    accepts: the rows are disjoint and cover exactly the special model set,
    and every policy of a method gives the same rows."""

    @given(special_sets())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_oracle_and_policies_agree(self, problem):
        cnf, filt, expected = problem
        accepted = 0
        for method in Method:
            rows_by_policy = set()
            for policy in Policy:
                config = EngineConfig(method=method, policy=policy, spmod=filt)
                try:
                    validate_config(cnf, config)
                except ValueError:
                    continue
                out = run(cnf, config)
                assert_disjoint_cover(cnf.num_vars, out.rows, expected)
                rows_by_policy.add(out.rows)
                accepted += 1
            assert len(rows_by_policy) <= 1, f"{method}: the policies disagree"
        assert accepted


class TestInvariantErrors:
    def test_cardinality_filter_admitting_a_wrong_weight(self, phi2, monkeypatch):
        # a k-search that admits everything lets rows of every weight reach
        # the bottom; they must be refused, also under python -O
        calls = []

        def admit_all(w, clauses, ones, zeros, start, k, stats):
            calls.append(k)
            return 0, (0, 0, [])

        monkeypatch.setattr(wildsat.engine, "search_from", admit_all)
        config = EngineConfig(method=Method.VAR012, spmod=CardinalityFilter(phi2, 3))
        with pytest.raises(RuntimeError, match="weight"):
            run(phi2, config)
        assert calls and set(calls) == {3}

    def test_a_pending_clause_the_row_settles(self, phi2, monkeypatch):
        # the degree scan has found the clause pending, so a split that
        # finds it settled is a driver bug, not a bad input
        monkeypatch.setattr(wildsat.engine, "impose_masks", lambda *args: None)
        with pytest.raises(RuntimeError, match="pending clause 1"):
            run(phi2, EngineConfig(method=Method.CLAUSE_E, policy=Policy.NONE))


class TestAbsentHooks:
    """A consumer hook the class does not set is a None attribute, and a
    filter that leaves the run nothing to call is rejected up front."""

    def test_the_base_hooks_are_none(self):
        for name in ("on_pop", "on_split", "on_emit", "on_harmful"):
            assert getattr(EngineObserver, name) is None, name
        for name in ("admit", "final_override", "refine_final"):
            assert getattr(SpModFilter, name) is None, name

    class Exact(SpModFilter):
        exact = True

    @pytest.mark.parametrize("filt", [Exact(), SpModFilter()], ids=["exact", "screening"])
    @pytest.mark.parametrize("policy", [Policy.SOLVER, Policy.NONE])
    def test_a_filter_with_nothing_to_call_is_rejected(self, phi2, monkeypatch, filt, policy):
        built = []
        monkeypatch.setattr(wildsat.engine, "_row012", lambda *args: built.append(args))
        with pytest.raises(ValueError, match="no admit"):
            run(phi2, EngineConfig(method=Method.VAR012, policy=policy, spmod=filt))
        assert built == []


class TestConfigValidation:
    def test_clause_e_rejects_test12(self, phi2):
        with pytest.raises(ValueError):
            run(phi2, EngineConfig(method=Method.CLAUSE_E, policy=Policy.TEST12))

    def test_clause_e_test1_needs_positive(self, phi2):
        with pytest.raises(ValueError):
            run(phi2, EngineConfig(method=Method.CLAUSE_E, policy=Policy.TEST1))
        positive = Cnf(3, (Clause((1, 2)),))
        out = run(positive, EngineConfig(method=Method.CLAUSE_E, policy=Policy.TEST1))
        assert out.total_models() == 6

    def test_scan_gate(self):
        with pytest.raises(ValueError):
            run(Cnf(25, ()), EngineConfig(method=Method.SCAN))

    @pytest.mark.parametrize(
        "method, policy, spmod",
        [
            (Method.CLAUSE012, Policy.NONE, None),
            (Method.VAR012, Policy.TEST1, None),
            (Method.CLAUSE012, Policy.TEST12, None),
            (Method.CLAUSE_E, Policy.NONE, None),
            (Method.SCAN, Policy.SOLVER, None),
            (Method.VAR012, Policy.SOLVER, lambda cnf: CardinalityFilter(cnf, 2)),
            (Method.VAR012, Policy.SOLVER, lambda cnf: DnfKFilter(Dnf(cnf.num_vars, (Row012.full(cnf.num_vars),)), 2)),
            (Method.VAR012, Policy.NONE, lambda cnf: ComplementFilter(RowList(cnf.num_vars, ()))),
        ],
        ids=["none", "test1", "test12", "clause-e-none", "scan", "cardinality", "dnf-k", "complement"],
    )
    def test_a_plugged_solver_the_run_never_calls_is_rejected(self, phi2, method, policy, spmod):
        # these runs make no search through the SolverFn plug: the plug
        # would be silently unused
        calls = []
        plug = lambda c: calls.append(c) or wildsat.sat.dpll_sat(c)
        config = EngineConfig(method=method, policy=policy, spmod=spmod and spmod(phi2), solver=plug)
        with pytest.raises(ValueError, match="plugged solver"):
            run(phi2, config)
        assert calls == []

    @pytest.mark.parametrize("policy", [Policy.NONE, Policy.TEST1, Policy.SOLVER])
    def test_the_module_dpll_sat_is_never_a_plug(self, policy, monkeypatch):
        # the dpll_sat that sat.py defines, the default solver, and what
        # stands under that name, a tracer's wrapper included, are the
        # built-in search under every policy and filter: same rows, same
        # solver counters
        original = wildsat.sat.dpll_sat
        positive = Cnf(5, ((1, 2), (2, 3, 4), (5,)))
        spmod = CardinalityFilter(positive, 2)

        def counted(out):
            st = out.stats
            return out.rows, st.solver_calls, st.decisions, st.propagations, st.conflicts

        for _ in range(2):
            for method in (Method.VAR012, Method.CLAUSE012, Method.CLAUSE_E, Method.SCAN):
                base = EngineConfig(method=method, policy=policy)
                out = run(positive, replace(base, solver=wildsat.sat.dpll_sat))
                assert counted(out) == counted(run(positive, base))
            base = EngineConfig(method=Method.VAR012, policy=policy, spmod=spmod)
            out = run(positive, replace(base, solver=wildsat.sat.dpll_sat))
            assert counted(out) == counted(run(positive, base))
            assert [str(r) for r in out.rows] == ["01001"]
            monkeypatch.setattr(wildsat.sat, "dpll_sat", lambda c, stats=None: original(c, stats))

    @pytest.mark.parametrize(
        "field, value", [("method", "clause-e"), ("method", "var-012"), ("policy", "none"), ("policy", "solver")]
    )
    def test_a_method_or_policy_given_as_a_string_is_rejected(self, phi2, field, value):
        # a str equals its enum member, so the checks passed it and the run
        # then died reading its .value
        with pytest.raises(ValueError, match="must be a Method and the policy a Policy"):
            run(phi2, replace(EngineConfig(), **{field: value}))

    class AdmitOnly(SpModFilter):
        def admit(self, ones, zeros):
            return True

    @pytest.mark.parametrize(
        "cls, args",
        [
            (CardinalityFilter, lambda cnf: (cnf, 2)),
            (DnfKFilter, lambda cnf: (Dnf(cnf.num_vars, (Row012.full(cnf.num_vars),)), 2)),
            (ComplementFilter, lambda cnf: (RowList(cnf.num_vars, ()),)),
            (WeightFilter, lambda cnf: ([1] * (2 * cnf.num_vars), 3)),
            (AdmitOnly, lambda cnf: ()),
        ],
        ids=["cardinality", "dnf-k", "complement", "weight", "admit-only"],
    )
    def test_every_filter_rejected_for_clause_e(self, phi2, cls, args):
        # filters read a 012-row's masks, so even a filter that lists
        # clause-e in its methods is rejected before the first pop
        on_e_rows = type(f"OnERows{cls.__name__}", (cls,), {"methods": (Method.CLAUSE_E,)})
        rec = _PopRecorder()
        config = EngineConfig(method=Method.CLAUSE_E, spmod=on_e_rows(*args(phi2)), observer=rec)
        with pytest.raises(ValueError, match="filters run on 012-rows"):
            validate_config(phi2, config)
        with pytest.raises(ValueError, match="filters run on 012-rows"):
            run(phi2, config)
        assert rec.pops == rec.emits == []


class TestPluggableSolver:
    def test_engine_uses_the_configured_procedure(self, phi2):
        from wildsat.sat import dpll_sat

        calls = []

        def counting_solver(cnf):
            calls.append(cnf)
            return dpll_sat(cnf)

        out = run(phi2, EngineConfig(method=Method.CLAUSE_E, solver=counting_solver))
        assert [str(r.condense()) for r in out.rows] == EQ11_ROWS
        assert len(calls) == out.stats.solver_calls > 0

    @pytest.mark.parametrize(
        "method, answer",
        [(Method.VAR012, (0, 0, 0)), (Method.CLAUSE012, True), (Method.CLAUSE012, (1, 1))],
        ids=["no-model", "bool", "short"],
    )
    def test_a_bad_plug_answer_stops_the_run(self, method, answer):
        # trusted, these emitted all 8 bitstrings as models, counted no
        # solver call, or packed a wrong witness
        cnf = Cnf(3, ((1, 2), (-1, 3)))
        with pytest.raises(ValueError, match="plugged solver"):
            run(cnf, EngineConfig(method=method, solver=lambda c: answer))


SOLVER_METHODS = (Method.CLAUSE012, Method.CLAUSE_E, Method.VAR012)


class TestBuiltInSolverPath:
    """The built-in solver takes the row as fixed variables, a plug gets
    ``augment_cnf``'s Cnf; runs through either give the same output."""

    def test_default_solver_matches_a_wrapping_plug(self):
        rng = random.Random(131)
        cnfs = [random_cnf(rng, w, rng.randint(1, 12), min(3, w)) for w in (3, 5, 7, 9)]
        cnfs.append(gen_random_cnf(GenSpec(12, 24, 3, seed=5)))
        for cnf in cnfs:
            for method in SOLVER_METHODS:
                calls = []
                plug = lambda c: calls.append(c) or wildsat.sat.dpll_sat(c)
                bound = run(cnf, EngineConfig(method=method, policy=Policy.SOLVER))
                plugged = run(cnf, EngineConfig(method=method, policy=Policy.SOLVER, solver=plug))
                assert format_rows(bound) == format_rows(plugged)
                assert bound.stats.solver_calls == plugged.stats.solver_calls == len(calls)

    @pytest.mark.parametrize("method", SOLVER_METHODS)
    def test_a_replaced_dpll_sat_passed_as_the_plug_is_not_called(self, method, monkeypatch):
        # a tracer replaces the module's dpll_sat by a wrapper, and a config
        # that reads sat.dpll_sat then hands that wrapper over: the run must
        # still take the built-in path, as an untraced run does
        cnf = gen_random_cnf(GenSpec(10, 20, 3, seed=7))
        expected = format_rows(run(cnf, EngineConfig(method=method)))
        original, calls = wildsat.sat.dpll_sat, []

        def counting(c, stats=None):
            calls.append(c)
            return original(c, stats)

        def no_augment(cnf, row):
            raise AssertionError("augment_cnf reached on the built-in path")

        monkeypatch.setattr(wildsat.sat, "dpll_sat", counting)
        monkeypatch.setattr(wildsat.sat, "augment_cnf", no_augment)
        out = run(cnf, EngineConfig(method=method, solver=wildsat.sat.dpll_sat))
        assert format_rows(out) == expected
        assert out.stats.solver_calls > 0
        assert calls == []


class TestBeyondSmallWidths:
    def test_w16_methods_agree_and_match_oracle(self):
        from wildsat.bench import GenSpec, gen_random_cnf

        cnf = gen_random_cnf(GenSpec(16, 30, 4, seed=12))
        expected = cnf_mask(cnf)
        a = run(cnf, EngineConfig(method=Method.CLAUSE012))
        b = run(cnf, EngineConfig(method=Method.CLAUSE_E))
        assert a.total_models() == b.total_models() == expected.bit_count()
        assert_disjoint_cover(16, a.rows, expected)
        assert_disjoint_cover(16, b.rows, expected)


class TestImposeTautologousSlots:
    def test_complementary_pair_in_the_slot_set(self):
        from wildsat.rows import Row012e, impose_on_slots

        row = Row012e.full(3)
        # "x1 or not-x1 or x2" holds everywhere: the row comes back whole
        assert impose_on_slots(row, [0, 1, 2]) == [row]


class TestRunRecord:
    def test_solver_counters_count_the_built_in_searches_only(self):
        cnf = gen_random_cnf(GenSpec(12, 24, 3, seed=5))
        for config in (
            EngineConfig(method=Method.CLAUSE012, policy=Policy.SOLVER),
            EngineConfig(method=Method.VAR012, spmod=CardinalityFilter(cnf, 4)),
        ):
            counted = run(cnf, config).stats
            assert counted.decisions > 0 and counted.propagations > 0 and counted.conflicts > 0
        plug = lambda c: wildsat.sat.dpll_sat(c)
        for config in (
            EngineConfig(method=Method.CLAUSE012, policy=Policy.NONE),
            EngineConfig(method=Method.CLAUSE_E, policy=Policy.NONE),
            EngineConfig(method=Method.CLAUSE012, policy=Policy.SOLVER, solver=plug),
        ):
            st = run(cnf, config).stats
            assert (st.decisions, st.propagations, st.conflicts) == (0, 0, 0)

    def test_k_searches_from_the_ancestor_fixpoint_match_fresh_ones(self, monkeypatch):
        # the driver starts a k-son's search from its ancestor's fixpoint;
        # from scratch the run is the same.  The per-level loop of an
        # on_split run makes every counted search; the walk counts the sons
        # its k rule refutes without searching them
        search_from, bounds = wildsat.engine.search_from, []

        def scratch(w, clauses, ones, zeros, start, k, stats):
            bounds.append(k)
            return search_from(w, clauses, ones, zeros, None, k, stats)

        splits = EngineObserver()
        splits.on_split = lambda *args: None
        rng = random.Random(181)
        for trial in range(24):
            w = rng.randint(3, 12)
            cnf = random_cnf(rng, w, rng.randint(1, 16), rng.randint(1, min(4, w)), positive=trial % 2 == 0)
            for k in range(w + 1):
                config = EngineConfig(method=Method.VAR012, spmod=CardinalityFilter(cnf, k))
                outs, made = [run(cnf, config)], []
                with monkeypatch.context() as patched:
                    patched.setattr(wildsat.engine, "search_from", scratch)
                    for cfg in (replace(config, observer=splits), config):
                        bounds.clear()
                        outs.append(run(cnf, cfg))
                        made.append(len(bounds))
                        assert set(bounds) == {k}
                ours, per_level, fresh = (o.stats for o in outs)
                assert made[0] == per_level.solver_calls > 0
                assert made[1] <= fresh.solver_calls
                assert format_rows(outs[0]) == format_rows(outs[1]) == format_rows(outs[2])
                assert ours.solver_calls == per_level.solver_calls == fresh.solver_calls
                assert ours.decisions == fresh.decisions
                assert ours.propagations <= fresh.propagations

    def test_solver_runs_from_the_ancestor_start_match_fresh_ones(self, monkeypatch):
        # a son's search reads only the clauses its ancestor's fixpoint left
        # open: the counters are those of a search over every clause from
        # that fixpoint, and the rows and decisions those of a search from
        # scratch, which rediscovers the fixpoint's units and conflicts.
        # clause-012 runs the mask search itself, clause-e goes through
        # solve_row
        search_from, solve_row = wildsat.engine.search_from, wildsat.engine.solve_row
        calls = []

        def masks_every_clause(w, clauses, ones, zeros, start, k, stats):
            calls.append(start)
            return search_from(w, clauses, ones, zeros, start and (start[0], start[1], clauses), k, stats)

        def masks_scratch(w, clauses, ones, zeros, start, k, stats):
            calls.append(start)
            return search_from(w, clauses, ones, zeros, None, k, stats)

        def row_every_clause(row, cnf, start, stats, solver):
            calls.append(start)
            return solve_row(row, cnf, start and (start[0], start[1], cnf.masks), stats, solver=solver)

        def row_scratch(row, cnf, start, stats, solver):
            calls.append(start)
            return solve_row(row, cnf, None, stats, solver=solver)

        seams = {
            Method.CLAUSE012: ("search_from", search_from, masks_every_clause, masks_scratch),
            Method.CLAUSE_E: ("solve_row", solve_row, row_every_clause, row_scratch),
        }
        counters = lambda st: (st.solver_calls, st.decisions, st.propagations, st.conflicts)
        rng = random.Random(199)
        for trial in range(24):
            w = rng.randint(3, 12)
            cnf = random_cnf(rng, w, rng.randint(1, 20), rng.randint(2, min(4, w)), positive=trial % 4 == 0)
            for method, (seam, *searches) in seams.items():
                outs = []
                for search in searches:
                    calls.clear()
                    monkeypatch.setattr(wildsat.engine, seam, search)
                    outs.append(run(cnf, EngineConfig(method=method, policy=Policy.SOLVER)))
                    if search is not searches[0]:
                        assert len(calls) == outs[-1].stats.solver_calls > 0
                ours, full, fresh = (o.stats for o in outs)
                assert format_rows(outs[0]) == format_rows(outs[1]) == format_rows(outs[2])
                assert counters(ours) == counters(full)
                assert (ours.solver_calls, ours.decisions) == (fresh.solver_calls, fresh.decisions)
                assert ours.propagations <= fresh.propagations and ours.conflicts <= fresh.conflicts

    class Pops(EngineObserver):
        def __init__(self):
            self.pops = 0

        def on_pop(self, row, degree, depth, emitted):
            self.pops += 1

    @pytest.mark.parametrize("method", [Method.VAR012, Method.CLAUSE012, Method.CLAUSE_E])
    def test_pops_are_the_observer_pops(self, method):
        cnf = gen_random_cnf(GenSpec(10, 24, 3, seed=3))
        obs = self.Pops()
        out = run(cnf, EngineConfig(method=method, observer=obs))
        assert obs.pops > len(out.rows)
        assert out.stats.pops == obs.pops == run(cnf, EngineConfig(method=method)).stats.pops

    @pytest.mark.parametrize("method", [Method.VAR012, Method.CLAUSE012, Method.CLAUSE_E])
    def test_hint_hits_only_under_a_search(self, method):
        cnf = gen_random_cnf(GenSpec(10, 24, 3, seed=3))
        assert run(cnf, EngineConfig(method=method)).stats.hint_hits > 0
        assert run(cnf, EngineConfig(method=method, policy=Policy.NONE)).stats.hint_hits == 0

    def test_no_hint_hits_under_an_exact_filter_without_cardinality(self):
        cnf = gen_random_cnf(GenSpec(8, 16, 3, seed=2))
        complement = run(cnf, EngineConfig(method=Method.CLAUSE012))
        config = EngineConfig(method=Method.VAR012, spmod=ComplementFilter(complement))
        out = run(Cnf(8, ()), config)
        assert out.stats.pops > len(out.rows) > 0
        assert out.stats.hint_hits == 0

    @pytest.mark.parametrize("method", list(Method))
    def test_one_walk_totals_match_the_row_list(self, method):
        # run() sums the models and free variables in one walk, taking the
        # clause-e pieces as purified; the row list recounts them in full
        rng = random.Random(167)
        for _ in range(12):
            w = rng.randint(1, 8)
            cnf = random_cnf(rng, w, rng.randint(0, 10), rng.randint(1, min(3, w)))
            out = run(cnf, EngineConfig(method=method, policy=Policy.NONE))
            assert out.stats.models == out.total_models() == cnf_mask(cnf).bit_count()
            assert out.stats.gamma_avg == out.gamma_avg()
