"""Counting, cardinality profiles and equivalence over row lists."""

from __future__ import annotations

import random

import pytest

from conftest import row012
from oracle import (
    cnf_mask,
    equivalent_pairwise,
    models_of_mask,
    random_cnf,
    random_purified_row,
    random_row012e,
    ref_purify,
    row_mask,
    rows_mask,
)
import wildsat.analysis
from wildsat.analysis import count_by_cardinality, equivalent
from wildsat.bench import GenSpec, gen_random_cnf
from wildsat.engine import EngineConfig, Method, run
from wildsat.formulas import Clause, Cnf, weight
from wildsat.rows import Row012, Row012e, RowList


def eq1_rowlist():
    return RowList(9, (row012("212222222"), row012("202220222")))


def eq11_rowlist():
    return RowList(5, tuple(row012(t) for t in ("02011", "21111", "12101")))


class TestCountModels:
    def test_eq1(self):
        assert eq1_rowlist().total_models() == 384

    def test_eq11(self):
        assert eq11_rowlist().total_models() == 6

    def test_empty(self):
        assert RowList(4, ()).total_models() == 0

    def test_matches_mask_for_enumerations(self):
        rng = random.Random(401)
        for _ in range(40):
            w = rng.randint(1, 9)
            cnf = random_cnf(rng, w, rng.randint(0, 10), rng.randint(1, min(3, w)))
            out = run(cnf, EngineConfig(method=Method.CLAUSE_E))
            assert out.total_models() == cnf_mask(cnf).bit_count()


class TestCountByCardinality:
    def test_full_cube_binomials(self):
        poly = count_by_cardinality(RowList(5, (Row012.full(5),)))
        assert poly.coefficients == (1, 5, 10, 10, 5, 1)

    def test_count_reads_one_coefficient(self):
        poly = count_by_cardinality(RowList(3, (row012("212"),)))
        assert [poly.count(k) for k in range(4)] == [0, 1, 2, 1]
        # -1 would read the weight-3 count, 4 run off the end
        for k in (-1, 4, 9):
            with pytest.raises(ValueError, match="k must lie"):
                poly.count(k)
        for k in (1.0, True, "1", None):
            with pytest.raises(ValueError, match="k must be an integer"):
                poly.count(k)

    def test_eq11_profile(self):
        # tallying the six models by hand: weights 2,3,4,5,3,4
        poly = count_by_cardinality(eq11_rowlist())
        assert poly.coefficients == (0, 0, 1, 2, 2, 1)
        assert poly.total() == 6

    def test_e_rows_with_negative_slots(self, table3):
        poly = count_by_cardinality(RowList(5, (table3[11],)))
        members = models_of_mask(5, row_mask(5, table3[11]))
        expected = [0] * 6
        for u in members:
            expected[weight(u)] += 1
        assert list(poly.coefficients) == expected

    def test_random_rows_match_brute_force_tally(self):
        rng = random.Random(409)
        for _ in range(120):
            w = rng.randint(1, 8)
            rows = tuple(random_purified_row(rng, w) for _ in range(rng.randint(1, 3)))
            poly = count_by_cardinality(RowList(w, rows[:1]))
            expected = [0] * (w + 1)
            for u in models_of_mask(w, row_mask(w, rows[0])):
                expected[weight(u)] += 1
            assert list(poly.coefficients) == expected

    def test_total_equals_count(self):
        rng = random.Random(419)
        for _ in range(40):
            w = rng.randint(1, 8)
            cnf = random_cnf(rng, w, rng.randint(0, 8), rng.randint(1, min(3, w)))
            out = run(cnf, EngineConfig(method=Method.CLAUSE_E))
            assert count_by_cardinality(out).total() == out.total_models()

    def test_row_wider_or_narrower_than_its_list(self):
        # no list holds a row of another width, so count_by_cardinality
        # never reads one
        for width, rows in (
            (2, (Row012((1, 1, 1)),)),
            (3, (row012("222"), row012("12"))),
            (2, (Row012e(3, (1, 0, 2, 2, 2, 2)),)),
        ):
            with pytest.raises(ValueError, match="row widths differ"):
                RowList(width, rows)


class TestEquivalent:
    def test_eq4_vs_clause_e_output(self, phi2, eq4_rowlist):
        esoft = run(phi2, EngineConfig(method=Method.CLAUSE_E))
        verdict = equivalent(eq4_rowlist, esoft)
        assert verdict.equal

    def test_reflexive(self, eq4_rowlist):
        assert equivalent(eq4_rowlist, eq4_rowlist).equal

    def test_different_widths_rejected(self):
        with pytest.raises(ValueError, match="different widths"):
            equivalent(RowList(2, ()), RowList(3, ()))

    def test_removed_model_count_reject(self):
        rows = eq11_rowlist()
        # drop one model by fixing the don't-care of the first row
        mutated = RowList(5, (row012("01011"),) + rows.rows[1:])
        verdict = equivalent(rows, mutated)
        assert not verdict.equal
        assert "count" in verdict.reason

    def test_witness_on_equal_counts(self):
        a = RowList(2, (row012("02"),))  # {00, 01}
        b = RowList(2, (row012("20"),))  # {00, 10}
        verdict = equivalent(a, b)
        assert not verdict.equal
        assert verdict.witness == 0

    def test_symmetric_outcome(self):
        rng = random.Random(421)
        for _ in range(60):
            w = rng.randint(1, 7)
            a = RowList(w, (random_row012e(rng, w),))
            b = RowList(w, (random_row012e(rng, w),))
            va, vb = equivalent(a, b), equivalent(b, a)
            assert va.equal == vb.equal == (row_mask(w, a.rows[0]) == row_mask(w, b.rows[0]))

    def test_different_mechanisms_same_cnf(self):
        rng = random.Random(431)
        for _ in range(25):
            w = rng.randint(1, 8)
            cnf = random_cnf(rng, w, rng.randint(0, 8), rng.randint(1, min(3, w)))
            a = run(cnf, EngineConfig(method=Method.CLAUSE012))
            b = run(cnf, EngineConfig(method=Method.CLAUSE_E))
            assert equivalent(a, b).equal

    def test_mutated_pairs_detected(self):
        rng = random.Random(433)
        found_witness = 0
        for _ in range(40):
            w = rng.randint(2, 7)
            cnf = random_cnf(rng, w, rng.randint(1, 6), rng.randint(1, min(3, w)))
            out = run(cnf, EngineConfig(method=Method.CLAUSE012))
            if not out.rows:
                continue
            rows = list(out.rows)
            # flip one fixed bit of one row, or fix a don't-care
            r = rows[0]
            symbols = list(r.symbols)
            i = next((j for j, s in enumerate(symbols) if s != 2), 0)
            symbols[i] = 1 - symbols[i] if symbols[i] != 2 else 0
            rows[0] = Row012(tuple(symbols))
            mutated = RowList(w, tuple(rows))
            if rows_mask(w, mutated.rows) == rows_mask(w, out.rows):
                continue
            verdict = equivalent(out, mutated)
            assert not verdict.equal
            if verdict.witness is not None:
                found_witness += 1
        assert found_witness > 0

    def test_row_wider_or_narrower_than_its_list(self):
        # no list holds a row of another width, so equivalent never reads one
        for rows in (
            (Row012((1, 1, 1)),),
            (row012("1"), row012("02")),
            (Row012e(3, (1, 0, 2, 2, 2, 2)),),
        ):
            with pytest.raises(ValueError, match="row widths differ"):
                RowList(2, rows)


def _flip_var(cnf: Cnf, var: int) -> Cnf:
    """The CNF with every literal of ``var`` negated: its models are those of
    ``cnf`` with that bit flipped, so the counts are equal."""
    clauses = [Clause(tuple(-l if abs(l) == var else l for l in c.lits)) for c in cnf.clauses]
    return Cnf(cnf.num_vars, tuple(clauses))


class TestEquivalentIndex:
    """``equivalent`` reads only the piece pairs its slot index lets through;
    it must give the verdicts of the plain pair loop."""

    def test_matches_pairwise_oracle_both_ways(self):
        rng = random.Random(443)
        methods = (Method.CLAUSE012, Method.CLAUSE_E, Method.VAR012)
        seen = set()
        for _ in range(80):
            w = rng.randint(2, 8)
            cnf = random_cnf(rng, w, rng.randint(1, 8), rng.randint(1, min(3, w)))
            kind = rng.choice(("same", "flip", "literal"))
            if kind == "same":  # the clauses reordered
                other = Cnf(w, tuple(rng.sample(cnf.clauses, len(cnf.clauses))))
            elif kind == "flip":
                other = _flip_var(cnf, rng.randint(1, w))
            else:  # one literal of one clause negated
                i = rng.randrange(len(cnf.clauses))
                lits = list(cnf.clauses[i].lits)
                j = rng.randrange(len(lits))
                lits[j] = -lits[j]
                other = Cnf(w, cnf.clauses[:i] + (Clause(tuple(lits)),) + cnf.clauses[i + 1:])
            a = run(cnf, EngineConfig(method=rng.choice(methods)))
            b = run(other, EngineConfig(method=rng.choice(methods)))
            for x, y in ((a, b), (b, a)):
                got = equivalent(x, y)
                assert got == equivalent_pairwise(x, y)
                seen.add((got.equal, got.witness is None))
        # equal sets, counts that differ, and equal counts with a witness row
        assert seen == {(True, True), (False, True), (False, False)}

    def test_calls_only_the_pairs_without_a_slot_clash(self, monkeypatch):
        # the golden pair (1, "reorder", 1): equal lists, so every row of the
        # first list is read
        cnf = gen_random_cnf(GenSpec(10, 24, 3, seed=1))
        clauses = list(cnf.clauses)
        random.Random(1).shuffle(clauses)
        config = EngineConfig(method=Method.CLAUSE_E)
        rows_a, rows_b = run(cnf, config), run(Cnf(10, tuple(clauses)), config)
        pa = [p for row in rows_a.rows for p in ref_purify(row)]
        pb = [q for row in rows_b.rows for q in ref_purify(row)]

        def clash(p, q):
            return any({x, y} == {0, 1} for x, y in zip(p.slots, q.slots))

        meeting = sum(not clash(p, q) for p in pa for q in pb)
        calls = []
        kernel = wildsat.analysis._intersection_card
        monkeypatch.setattr(wildsat.analysis, "_intersection_card", lambda *masks: calls.append(1) or kernel(*masks))
        assert equivalent(rows_a, rows_b).equal
        assert len(calls) == meeting
        assert len(calls) * 5 < len(pa) * len(pb)
