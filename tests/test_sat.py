"""The solver (dpll_sat, find_model, find_k_model), the weak tests (Test 1,
Test 2), finality tests and the finality probability formula."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import row012
from oracle import (
    bitstring_of,
    cnf_mask,
    evaluate_naive,
    from_row012,
    models_of_mask,
    random_cnf,
    random_row012,
    random_row012e,
    ref_k_search,
    ref_propagate,
    ref_search_from,
    row_mask,
    varwise_split,
)
from wildsat.engine import clausewise012_split, clausewise_e_split
from wildsat.formulas import Clause, Cnf, evaluate, weight
from wildsat.rows import Row012, Row012e, RunStats, _var_masks, slot_of_lit
from wildsat.sat import test1 as weak_test1
from wildsat.sat import test2 as weak_test2
from wildsat.sat import (
    augment_cnf,
    dpll_sat,
    final_e,
    find_k_model,
    first_unsettled,
    find_model,
    prob_final,
    row_satisfies_clause,
    search_from,
    solve_row,
)

EQ11_MODELS = {
    (0, 0, 0, 1, 1),
    (0, 1, 0, 1, 1),
    (0, 1, 1, 1, 1),
    (1, 1, 1, 1, 1),
    (1, 0, 1, 0, 1),
    (1, 1, 1, 0, 1),
}


class TestDpll:
    def test_phi2_returns_one_of_its_models(self, phi2):
        assert dpll_sat(phi2) in EQ11_MODELS

    def test_unsat_pair(self):
        assert dpll_sat(Cnf(1, (Clause((1,)), Clause((-1,))))) is None

    def test_empty_cnf_all_zeros(self):
        assert dpll_sat(Cnf(4, ())) == (0, 0, 0, 0)

    def test_model_always_satisfies(self):
        rng = random.Random(101)
        for _ in range(150):
            w = rng.randint(1, 9)
            cnf = random_cnf(rng, w, rng.randint(0, 20), rng.randint(1, min(4, w)))
            model = dpll_sat(cnf)
            expected = cnf_mask(cnf)
            if model is None:
                assert expected == 0
            else:
                assert evaluate_naive(cnf, model)

    def test_deterministic(self, phi2):
        assert dpll_sat(phi2) == dpll_sat(phi2)

    def test_stats_counters(self, phi2):
        stats = RunStats()
        dpll_sat(phi2, stats)
        assert stats.decisions >= 0
        assert stats.propagations >= 0
        assert stats.conflicts >= 0
        assert stats.decisions + stats.propagations > 0


class TestFeasibleSolver:
    def test_full_row_on_phi2(self, phi2):
        assert find_model(Row012.full(5), phi2) is not None

    def test_dead_clause_row(self):
        cnf = Cnf(3, (Clause((1, -2)),))
        assert find_model(row012("012"), cnf) is None  # x1=0, x2=1 kills the clause

    def test_e_row_constraints_respected(self, phi2, table3):
        assert find_model(table3[11], phi2) is not None
        assert find_model(table3[8], phi2) is None

    def test_random_agreement_with_brute_force(self):
        rng = random.Random(103)
        for _ in range(120):
            w = rng.randint(1, 8)
            cnf = random_cnf(rng, w, rng.randint(0, 10), rng.randint(1, min(3, w)))
            row = random_row012e(rng, w)
            expected = row_mask(w, row) & cnf_mask(cnf) != 0
            assert (find_model(row, cnf) is not None) == expected

    def test_pluggable_decision_procedure(self, phi2):
        calls = []

        def fake_solver(cnf):
            calls.append(cnf)
            return dpll_sat(cnf)

        assert find_model(Row012.full(5), phi2, solver=fake_solver) is not None
        assert len(calls) == 1
        assert len(calls[0].clauses) == len(phi2.clauses)  # full row adds nothing
        # the plug sees the formula's clauses followed by the row's
        find_model(row012("10222"), phi2, solver=fake_solver)
        assert calls[1] == Cnf(5, phi2.clauses + (Clause((1,)), Clause((-2,))))

    @pytest.mark.parametrize(
        "answer",
        [(0, 0, 0), True, (1, 1), (1, 1, 1, 1), (0, 1, 2), "011", (0, 1, 0)],
        ids=["no-model", "bool", "short", "long", "not-0/1", "text", "outside-row"],
    )
    def test_a_bad_plug_answer_is_rejected(self, answer):
        # (0, 1, 0) is a model, but not inside the row 1 2 2
        cnf = Cnf(3, ((1, 2), (-1, 3)))
        with pytest.raises(ValueError):
            find_model(row012("122"), cnf, solver=lambda c: answer)

    def test_a_plug_model_inside_the_row_is_taken(self):
        cnf = Cnf(3, ((1, 2), (-1, 3)))
        assert find_model(row012("122"), cnf, solver=lambda c: [1, 0, 1]) == (1, 0, 1)
        assert find_model(row012("122"), cnf, solver=lambda c: None) is None

    def test_a_plug_takes_no_cardinality_bound(self):
        with pytest.raises(ValueError, match="a plugged solver takes no cardinality bound"):
            solve_row(row012("122"), Cnf(3, ((1, 2),)), k=1, solver=lambda c: [1, 0, 0])

    def test_augmented_clauses_pinned(self, phi2):
        # a plug gets the formula's clauses, one unit per fixed variable in
        # increasing order, then one clause per e-bubble
        assert augment_cnf(phi2, row012("02110")).clauses == phi2.clauses + (
            Clause((-1,)),
            Clause((3,)),
            Clause((4,)),
            Clause((-5,)),
        )
        # x1 = 0, x3 = 1 and one bubble over the slots of x2 and -x4
        row = Row012e(4, (0, 1, 3, 2, 1, 0, 2, 3))
        base = (Clause((1, -2, 4)),)
        assert augment_cnf(Cnf(4, base), row).clauses == base + (
            Clause((-1,)),
            Clause((3,)),
            Clause((2, -4)),
        )

    def test_built_in_solver_finds_the_plugged_model(self):
        # the built-in solver takes the row as fixed variables; a plug gets
        # augment_cnf's Cnf: both must return the same model, or both None
        rng = random.Random(113)
        plug = lambda cnf: dpll_sat(cnf)
        for _ in range(300):
            w = rng.randint(1, 10)
            cnf = random_cnf(rng, w, rng.randint(0, 14), rng.randint(1, min(3, w)))
            for row in (random_row012(rng, w), random_row012e(rng, w), Row012.full(w), Row012e.full(w)):
                assert find_model(row, cnf) == find_model(row, cnf, solver=plug)

    def test_width_mismatch_rejected(self, phi2):
        with pytest.raises(ValueError):
            find_model(Row012.full(4), phi2)
        with pytest.raises(ValueError):
            find_model(Row012e.full(4), phi2)
        with pytest.raises(ValueError):
            find_model(Row012.full(4), phi2, solver=lambda cnf: dpll_sat(cnf))
        with pytest.raises(ValueError):
            find_k_model(Row012.full(4), phi2, 2)


class TestTest1:
    def test_positive_clause_inside_zeros(self):
        cnf = Cnf(3, (Clause((1, 2)),))
        assert not weak_test1(row012("002"), cnf)

    def test_positive_yes_is_perfect(self):
        cnf = Cnf(3, (Clause((1, 2)),))
        assert weak_test1(row012("022"), cnf) and cnf.is_positive()
        # the witness described for positive CNFs: everything not zeroed goes 1
        assert evaluate(cnf, (0, 1, 1))

    def test_weak_false_positive_on_mixed(self):
        # r is infeasible, yet no single clause is dead in it
        cnf = Cnf(3, (Clause((1, 2)), Clause((-1, 3))))
        r = row012("200")
        assert weak_test1(r, cnf) and not cnf.is_positive()
        assert row_mask(3, r) & cnf_mask(cnf) == 0  # wrong yes, as a weak test may be

    def test_no_is_always_sound(self):
        rng = random.Random(107)
        for _ in range(200):
            w = rng.randint(1, 8)
            cnf = random_cnf(rng, w, rng.randint(0, 8), rng.randint(1, min(3, w)))
            row = random_row012e(rng, w) if rng.random() < 0.5 else Row012(
                tuple(rng.choice((0, 1, 2, 2)) for _ in range(w))
            )
            if not weak_test1(row, cnf):
                assert row_mask(w, row) & cnf_mask(cnf) == 0

    def test_exact_dead_clause_rule_on_e_rows(self):
        # no exactly when some clause has every literal slot at 0 in the
        # row's per-slot view
        rng = random.Random(127)
        answers = set()
        for _ in range(300):
            w = rng.randint(1, 8)
            cnf = random_cnf(rng, w, rng.randint(0, 8), rng.randint(1, min(3, w)))
            row = random_row012e(rng, w)
            dead = any(all(row.slots[slot_of_lit(l)] == 0 for l in c.lits) for c in cnf.clauses)
            assert weak_test1(row, cnf) == (not dead)
            answers.add(dead)
        assert answers == {False, True}  # the sample holds both answers

    def test_perfect_on_positive(self):
        rng = random.Random(109)
        for _ in range(200):
            w = rng.randint(1, 8)
            cnf = random_cnf(rng, w, rng.randint(0, 8), rng.randint(1, min(3, w)), positive=True)
            row = Row012(tuple(rng.choice((0, 1, 2, 2)) for _ in range(w)))
            assert weak_test1(row, cnf) == (row_mask(w, row) & cnf_mask(cnf) != 0)


class TestTest2:
    def test_shared_variable_forced_both_ways(self):
        cnf = Cnf(3, (Clause((1, 2)), Clause((-1, 3))))
        assert not weak_test2(row012("200"), cnf)

    def test_single_clause_always_yes(self):
        cnf = Cnf(2, (Clause((1, 2)),))
        assert weak_test2(row012("00"), cnf)

    def test_no_is_always_sound(self):
        rng = random.Random(113)
        hits = 0
        for _ in range(400):
            w = rng.randint(2, 8)
            cnf = random_cnf(rng, w, rng.randint(2, 10), rng.randint(1, min(3, w)))
            row = Row012(tuple(rng.choice((0, 1, 2, 2)) for _ in range(w)))
            if not weak_test2(row, cnf):
                hits += 1
                assert row_mask(w, row) & cnf_mask(cnf) == 0
        assert hits > 0  # the test fires on this sample

    def test_e_row_rejected(self):
        # an e-row's masks are slot masks: read as variable masks they made
        # the test refuse this feasible row
        row, cnf = Row012e(3, (1, 0, 2, 2, 2, 2)), Cnf(3, ((3, 2), (-3, 2)))
        assert find_model(row, cnf) == (1, 1, 0)
        with pytest.raises(TypeError):
            weak_test2(row, cnf)


class TestFinal012:
    def test_clause_settled_by_zeroed_negative(self):
        cnf = Cnf(9, (Clause((3, 5, -6, -9)),))
        r = Row012.full(9).with_value(6, 0)
        assert final_e(r, cnf)

    def test_misbehaving_row(self):
        cnf = Cnf(9, (Clause((3, 5, -6, -9)),))
        r = Row012.full(9).with_value(3, 0).with_value(6, 1)  # x5, x9 stay free
        assert not final_e(r, cnf)

    def test_all_two_row_not_final(self):
        cnf = Cnf(3, (Clause((1, 2)),))
        assert not final_e(Row012.full(3), cnf)

    def test_agreement_with_brute_force(self):
        rng = random.Random(127)
        for _ in range(200):
            w = rng.randint(1, 8)
            cnf = random_cnf(rng, w, rng.randint(0, 8), rng.randint(1, min(3, w)))
            row = Row012(tuple(rng.choice((0, 1, 2, 2)) for _ in range(w)))
            expected = row_mask(w, row) & ~cnf_mask(cnf) == 0
            assert final_e(row, cnf) == expected


class TestFinalE:
    def test_table3_final_rows(self, phi2, table3):
        assert final_e(table3[10], phi2)
        assert final_e(table3[11], phi2)

    def test_table3_working_rows_not_final(self, phi2, table3):
        for i in (1, 2, 3, 4, 6, 7):
            assert not final_e(table3[i], phi2)

    def test_true_implies_contained(self):
        # soundness on arbitrary rows, produced or not
        rng = random.Random(131)
        for _ in range(300):
            w = rng.randint(1, 8)
            cnf = random_cnf(rng, w, rng.randint(0, 8), rng.randint(1, min(3, w)))
            row = random_row012e(rng, w)
            if final_e(row, cnf):
                assert row_mask(w, row) & ~cnf_mask(cnf) == 0

    def test_complete_on_purified_rows(self):
        from oracle import random_purified_row

        rng = random.Random(137)
        for _ in range(300):
            w = rng.randint(1, 8)
            cnf = random_cnf(rng, w, rng.randint(0, 8), rng.randint(1, min(3, w)))
            row = random_purified_row(rng, w)
            expected = row_mask(w, row) & ~cnf_mask(cnf) == 0
            assert final_e(row, cnf) == expected


class TestFirstUnsettled:
    @pytest.mark.parametrize("full", [Row012.full, Row012e.full], ids=["012", "012e"])
    def test_negative_start_rejected(self, full):
        # a negative start would read the last clause first
        cnf = Cnf(2, ((1,), (2,)))
        assert first_unsettled(full(2), cnf, 0) == 0
        with pytest.raises(ValueError, match="start at 0"):
            first_unsettled(full(2), cnf, -1)

    @pytest.mark.parametrize(
        "row",
        [row012("1222202"), from_row012(row012("1222011")), row012("122")],
        ids=["012", "012e", "narrow"],
    )
    def test_row_of_another_width_rejected(self, row):
        # the scans read the row's masks against clauses of another width;
        # they answered, for rows that hold no assignment of the formula
        from wildsat.engine import pending_clause

        cnf = Cnf(5, ((1, 2), (-3, 4), (5,)))
        calls = [first_unsettled, final_e, pending_clause, weak_test1]
        if isinstance(row, Row012):
            calls.append(weak_test2)
        for call in calls:
            with pytest.raises(ValueError, match="row width does not match num_vars"):
                call(row, cnf)


class TestRowSatisfiesClauseE:
    def test_bitwise_rule_matches_slot_sets(self):
        # the rule on slot sets: a clause slot holds 1, or a bubble lies
        # inside the clause's slots
        from wildsat.rows import slot_of_lit

        rng = random.Random(149)
        for _ in range(400):
            w = rng.randint(1, 8)
            row = random_row012e(rng, w, max_bubbles=4)
            clause = random_cnf(rng, w, 1, rng.randint(1, min(4, w))).clauses[0]
            cslots = {slot_of_lit(l) for l in clause.lits}
            expected = any(row.slots[s] == 1 for s in cslots) or any(
                set(m) <= cslots for m in row.bubbles
            )
            assert row_satisfies_clause(row, clause) == expected


class TestKFeasible:
    def test_too_many_ones_immediately_no(self):
        cnf = Cnf(4, ())
        assert find_k_model(row012("1112"), cnf, 2) is None

    def test_empty_cnf_all_two(self):
        cnf = Cnf(5, ())
        for k in range(6):
            assert find_k_model(Row012.full(5), cnf, k) is not None

    def test_random_agreement_with_brute_force(self):
        rng = random.Random(139)
        for _ in range(200):
            w = rng.randint(1, 8)
            cnf = random_cnf(rng, w, rng.randint(0, 8), rng.randint(1, min(3, w)))
            row = Row012(tuple(rng.choice((0, 1, 2, 2)) for _ in range(w)))
            k = rng.randint(0, w)
            expected = any(
                weight(u) == k
                for u in models_of_mask(w, row_mask(w, row) & cnf_mask(cnf))
            )
            assert (find_k_model(row, cnf, k) is not None) == expected

    def test_bound_keeps_the_unpruned_model(self):
        # the disjoint-clause bound only cuts subtrees without a k-model, so
        # the first k-model in branching order (or None) stays the same and
        # the search makes no more decisions than without it
        rng = random.Random(151)
        ours = theirs = 0
        for trial in range(240):
            w = rng.randint(1, 9)
            cnf = random_cnf(rng, w, rng.randint(0, 12), rng.randint(1, min(4, w)), positive=trial % 2 == 0)
            row = random_row012(rng, w)
            for k in range(w + 1):
                expected, ref_stats = ref_k_search(w, cnf.masks, row.ones, row.zeros, k)
                stats = RunStats()
                model = find_k_model(row, cnf, k, stats)
                assert model == (None if expected is None else bitstring_of(w, expected))
                assert stats.decisions <= ref_stats.decisions
                ours += stats.decisions
                theirs += ref_stats.decisions
        assert ours < theirs


class TestFixpointStart:
    """A son's search started from an ancestor's root fixpoint finds what
    its search from scratch finds, with the same decisions."""

    @staticmethod
    def _sons(row, cnf):
        """The sons of every split the engine can make of the row."""
        open_clauses = [c for c in cnf.clauses if not row_satisfies_clause(row, c)]
        if isinstance(row, Row012e):
            return [son for c in open_clauses for son in clausewise_e_split(row, c)]
        sons = varwise_split(row) if row.twos else []
        return sons + [son for c in open_clauses for son in clausewise012_split(row, c)]

    def test_son_search_from_the_ancestor_fixpoint(self):
        rng = random.Random(163)
        searched = clashed = 0
        for trial in range(160):
            w = rng.randint(1, 9)
            cnf = random_cnf(rng, w, rng.randint(1, 14), rng.randint(1, min(4, w)), positive=trial % 3 == 0)
            for row in (random_row012(rng, w), random_row012e(rng, w), Row012.full(w), Row012e.full(w)):
                found = solve_row(row, cnf)
                if found is None:
                    continue
                model, start = found
                assert row.contains(model)
                sons = self._sons(row, cnf)
                for son in sons + [g for s in sons[:3] for g in self._sons(s, cnf)]:
                    clashed += self._check(son, cnf, start)
                    searched += 1
        assert searched > 5000 and clashed > 100

    def test_k_son_search_from_the_ancestor_fixpoint(self):
        # the k-bound prunes only after propagation, so the fixpoint start
        # serves the var-wise k-search of the cardinality filter too
        rng = random.Random(173)
        searched = clashed = 0
        for trial in range(200):
            w = rng.randint(1, 9)
            cnf = random_cnf(rng, w, rng.randint(1, 14), rng.randint(1, min(4, w)), positive=trial % 2 == 0)
            for row in (random_row012(rng, w), Row012.full(w)):
                for k in range(w + 1):
                    found = solve_row(row, cnf, k=k)
                    if found is None or not row.twos:
                        continue
                    model, start = found
                    assert row.contains(model) and model.bit_count() == k
                    sons = varwise_split(row)
                    for son in sons + [g for s in sons if s.twos for g in varwise_split(s)]:
                        clashed += self._check(son, cnf, start, k)
                        searched += 1
        assert searched > 5000 and clashed > 100

    @staticmethod
    def _check(son, cnf, start, k=None) -> bool:
        """Compare the son's search from ``start`` with its search from
        scratch; True when the son's pins clash with ``start``."""
        fresh, ours = RunStats(), RunStats()
        want = solve_row(son, cnf, stats=fresh, k=k)
        got = solve_row(son, cnf, start, ours, k)
        assert got == want
        assert ours.decisions == fresh.decisions
        assert ours.propagations <= fresh.propagations
        if isinstance(son, Row012e):
            ones, zeros = _var_masks(son.width, son.ones)
        else:
            ones, zeros = son.ones, son.zeros
        if ones & start[1] or zeros & start[0]:
            assert got is None and ours == RunStats()
            return True
        return False

    def test_find_model_reads_the_search(self, phi2):
        model, start = solve_row(Row012.full(5), phi2)
        assert find_model(Row012.full(5), phi2) == bitstring_of(5, model)
        assert model & start[0] == start[0] and not model & start[1]
        assert solve_row(row012("012"), Cnf(3, (Clause((1, -2)),))) is None


class TestOpenClauses:
    """The search reads only the clauses its start leaves open, and the
    witness carries the formula's open clauses to the sons."""

    @staticmethod
    def _open_at(clauses, ones, zeros):
        return [m for m in clauses if not (m[0] & ones or m[1] & zeros)]

    def test_propagate_leaves_the_unresolved_clauses_in_order(self):
        rng = random.Random(191)
        fixpoints = 0
        for trial in range(400):
            w = rng.randint(1, 10)
            cnf = random_cnf(rng, w, rng.randint(0, 16), rng.randint(1, min(4, w)), positive=trial % 3 == 0)
            row = random_row012(rng, w)
            node = ref_propagate(cnf.masks, row.ones, row.zeros, (1 << w) - 1, RunStats())
            if node is None:
                continue
            ones, zeros, open_, left = node
            assert type(left) is list and left == self._open_at(cnf.masks, ones, zeros)
            union = 0
            for pos, neg in left:
                lits = (pos | neg) & ~(ones | zeros)
                assert lits.bit_count() >= 2
                union |= lits
            assert open_ == union
            fixpoints += 1
        assert fixpoints > 200

    def test_witness_holds_the_formula_clauses_its_fixpoint_leaves_open(self):
        rng = random.Random(193)
        seen = bubbled = 0
        for trial in range(200):
            w = rng.randint(1, 9)
            cnf = random_cnf(rng, w, rng.randint(1, 14), rng.randint(1, min(4, w)), positive=trial % 3 == 0)
            for row in (random_row012(rng, w), random_row012e(rng, w), Row012e.full(w)):
                found = solve_row(row, cnf)
                if found is None:
                    continue
                starts = [found[1]]
                for son in TestFixpointStart._sons(row, cnf)[:4]:
                    got = solve_row(son, cnf, found[1])
                    if got is not None:
                        starts.append(got[1])
                        bubbled += isinstance(son, Row012e) and bool(son.bubble_masks)
                for f1, f0, left in starts:
                    assert left == self._open_at(cnf.masks, f1, f0)
                    # the formula's own tuples, shared: never a bubble clause
                    assert all(any(m is c for c in cnf.masks) for m in left)
                    seen += 1
        assert seen > 500 and bubbled > 100

    def test_search_from_a_start_counts_as_the_search_over_every_clause(self):
        rng = random.Random(197)
        compared = 0
        for trial in range(160):
            w = rng.randint(1, 9)
            cnf = random_cnf(rng, w, rng.randint(1, 14), rng.randint(1, min(4, w)), positive=trial % 2 == 0)
            for row in (random_row012(rng, w), random_row012e(rng, w), Row012.full(w), Row012e.full(w)):
                found = solve_row(row, cnf)
                if found is None:
                    continue
                start = found[1]
                for son in TestFixpointStart._sons(row, cnf):
                    if isinstance(son, Row012e):
                        ones, zeros = _var_masks(w, son.ones)
                        bubbles = [_var_masks(w, b) for b in son.bubble_masks]
                    else:
                        ones, zeros, bubbles = son.ones, son.zeros, []
                    if ones & start[1] or zeros & start[0]:
                        continue
                    for k in (None, rng.randint(0, w)):
                        ours, full = RunStats(), RunStats()
                        got = solve_row(son, cnf, start, ours, k)
                        pins = ones | start[0], zeros | start[1]
                        want = search_from(w, list(cnf.masks) + bubbles, *pins, k=k, stats=full)
                        assert (got is None) == (want is None)
                        if got is not None:
                            assert got[0] == want[0] and got[1][:2] == want[1][:2]
                        assert ours == full
                        compared += 1
        assert compared > 3000

    def test_a_start_reads_its_own_clauses_in_place_of_the_formula(self):
        cnf = Cnf(2, (Clause((-1,)),))
        assert solve_row(Row012.full(2), cnf) == (0, (0, 1, []))
        assert solve_row(Row012.full(2), cnf, (0, 0, [(1, 0)])) == (1, (1, 0, []))

    def test_k_search_past_its_bound_ends_before_propagating(self):
        cnf = Cnf(5, (Clause((1, 2)), Clause((-1, 3)), Clause((4, 5))))
        for row, k in ((row012("11122"), 2), (row012("10222"), 5), (row012("00022"), 3)):
            stats = RunStats()
            assert solve_row(row, cnf, stats=stats, k=k) is None
            assert stats == RunStats()
        stats = RunStats()
        assert solve_row(row012("22222"), cnf, (0b101, 0b10, []), stats, 1) is None
        assert stats == RunStats()


@st.composite
def dense_searches(draw):
    """The arguments of a search on 2-8 variables: clauses of one to three
    literals, w to 4w of them, so that most examples meet a conflict
    partway through a pass; random pins; half the time the root fixpoint
    of a search under some of those pins as ``start``; a bound k or none;
    and up to two ``extra`` clauses."""
    w = draw(st.integers(2, 8))

    def clause():
        pos = neg = 0
        for v in draw(st.lists(st.integers(0, w - 1), min_size=1, max_size=3, unique=True)):
            if draw(st.booleans()):
                pos |= 1 << v
            else:
                neg |= 1 << v
        return pos, neg

    clauses = [clause() for _ in range(draw(st.integers(w, 4 * w)))]
    extra = [clause() for _ in range(draw(st.integers(0, 2)))]
    fixed, values = draw(st.integers(0, (1 << w) - 1)), draw(st.integers(0, (1 << w) - 1))
    ones, zeros = fixed & values, fixed & ~values
    start = None
    if draw(st.booleans()):
        kept = draw(st.integers(0, (1 << w) - 1))
        found = ref_search_from(w, clauses, ones & kept, zeros & kept)
        start = None if found is None else found[1]
    k = draw(st.integers(0, w)) if draw(st.booleans()) else None
    return w, clauses, ones, zeros, start, k, extra


class TestInlinePropagation:
    """``search_from`` propagates inside its own loop and counts in
    locals; the reference calls a propagation function at the root, at
    each decision and at each trail pop, counting into ``stats`` as it
    goes.  Both give the same answer, root fixpoint and counters."""

    @given(dense_searches())
    @settings(max_examples=400, deadline=None)
    def test_the_search_matches_the_reference(self, search):
        w, clauses, ones, zeros, start, k, extra = search
        ours, reference = RunStats(), RunStats()
        want = ref_search_from(w, clauses, ones, zeros, start, k, reference, extra)
        got = search_from(w, clauses, ones, zeros, start, k, ours, extra)
        assert got == want  # the root's open clauses equal and in order
        assert ours == reference
        assert search_from(w, clauses, ones, zeros, start, k, None, extra) == want


class TestDeepInstance:
    """1,500 decision levels: the search keeps no recursion limit."""

    W = 3000

    @pytest.fixture(scope="class")
    def chain(self):
        return Cnf(self.W, tuple(Clause((2 * i - 1, 2 * i)) for i in range(1, self.W // 2 + 1)))

    def test_dpll_sat(self, chain):
        stats = RunStats()
        model = dpll_sat(chain, stats)
        assert model is not None and evaluate(chain, model)
        assert stats.decisions == self.W // 2

    def test_find_model(self, chain):
        model = find_model(Row012.full(self.W), chain)
        assert model is not None and evaluate(chain, model)

    def test_find_k_model(self, chain):
        model = find_k_model(Row012.full(self.W), chain, self.W // 2)
        assert model is not None and evaluate(chain, model)
        assert weight(model) == self.W // 2


class TestProbFinal:
    def test_no_clauses(self):
        assert prob_final(10, 3, 0, 2) == 1.0

    def test_all_twos_with_clauses(self):
        assert prob_final(10, 10, 5, 2) == 0.0

    def test_reported_value(self):
        assert math.isclose(prob_final(25, 9.6, 50, 10), 0.495, abs_tol=0.005)

    def test_w_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            prob_final(0, 0, 1, 0)

    def test_bounds(self):
        with pytest.raises(ValueError):
            prob_final(5, 6, 1, 2)
        with pytest.raises(ValueError):
            prob_final(5, 2, 1, 6)


class TestFinalEOnProducedRows:
    def test_sound_on_stack_rows_exact_on_purified_ones(self):
        # a true answer must always mean containment; on purified rows the
        # rule is exact.  Unpurified stack rows may be under-reported (see
        # the regression below); the run then just splits them once more.
        from wildsat.engine import EngineConfig, EngineObserver, Method, run

        class Collect(EngineObserver):
            def __init__(self):
                self.rows = []

            def on_pop(self, row, degree, depth, emitted):
                self.rows.append(row)

        rng = random.Random(149)
        checked = 0
        for _ in range(60):
            w = rng.randint(2, 12) if rng.random() < 0.25 else rng.randint(2, 8)
            cnf = random_cnf(rng, w, rng.randint(1, 10), rng.randint(1, min(4, w)))
            rec = Collect()
            run(cnf, EngineConfig(method=Method.CLAUSE_E, observer=rec))
            for row in rec.rows:
                contained = row_mask(w, row) & ~cnf_mask(cnf) == 0
                verdict = final_e(row, cnf)
                if verdict:
                    assert contained, "unsound finality answer"
                if row.is_purified():
                    assert verdict == contained
                checked += 1
        assert checked > 200

    def test_known_incompleteness_on_a_bad_pair(self):
        # two bubbles overlap the clause and their slots outside it are
        # complementary, so every member satisfies the clause although no
        # bubble lies inside it; the rule answers no, which is fine: the
        # row merely gets split once more instead of emitted
        from conftest import erow
        from oracle import cnf_mask as cm, row_mask as rm

        row = erow("e1 2 e1 e2 e2 2", 3)  # bubbles {x1, x2} and {~x2, x3}
        cnf = Cnf(3, (Clause((1, 3)),))
        assert rm(3, row) & ~cm(cnf) == 0  # semantically contained
        assert not final_e(row, cnf)  # but the syntactic rule cannot see it
