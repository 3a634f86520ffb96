"""Counting, cardinality profiles and equivalence over row lists."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import row012
from oracle import (
    card_012,
    card_e,
    card_purified,
    cnf_mask,
    equivalent_pairwise,
    from_row012,
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
from wildsat.rows import TWO, Row012, Row012e, RowList, _census, _evens, _row012e, _spread, _totals, expand_to_012


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
        # first list is read; two bubble-free pieces that meet are counted
        # as a cube, so only the meeting pairs with a bubble make a call
        cnf = gen_random_cnf(GenSpec(10, 24, 3, seed=1))
        clauses = list(cnf.clauses)
        random.Random(1).shuffle(clauses)
        config = EngineConfig(method=Method.CLAUSE_E)
        rows_a, rows_b = run(cnf, config), run(Cnf(10, tuple(clauses)), config)
        pa = [p for row in rows_a.rows for p in ref_purify(row)]
        pb = [q for row in rows_b.rows for q in ref_purify(row)]

        def clash(p, q):
            return any({x, y} == {0, 1} for x, y in zip(p.slots, q.slots))

        meeting = [(p, q) for p in pa for q in pb if not clash(p, q)]
        bubbled = sum(bool(p.bubble_masks or q.bubble_masks) for p, q in meeting)
        assert 0 < bubbled < len(meeting)
        calls, indexed, cubes = [], [], []
        kernel, census, index = (getattr(wildsat.analysis, f) for f in ("_intersection_card", "_census", "_bit_index"))
        monkeypatch.setattr(wildsat.analysis, "_intersection_card", lambda *masks: calls.append(1) or kernel(*masks))
        # the pair loop follows the index; its census calls are the cube counts
        monkeypatch.setattr(wildsat.analysis, "_bit_index", lambda *a: indexed.append(1) or index(*a))
        monkeypatch.setattr(wildsat.analysis, "_census", lambda *m: indexed and cubes.append(m[2]) or census(*m))
        assert equivalent(rows_a, rows_b).equal
        assert len(calls) == bubbled
        assert len(calls) + len(cubes) == len(meeting) and cubes == [()] * len(cubes)
        assert len(calls) * 5 < len(pa) * len(pb)


class TestRowsReadAsTheyAre:
    """``equivalent`` and ``count_by_cardinality`` take an e-row with no bad
    pair as it is and cut only the others with ``_purify``.  The lists mix
    012-rows, purified e-rows and e-rows with bad pairs, made disjoint by
    two leading variables that number the rows."""

    @staticmethod
    def _mixed(rng: random.Random, w: int) -> tuple[RowList, RowList]:
        """Four rows over w + 2 variables, each kind at least once, and a
        list of the same members written another way: an e-row with bad
        pairs as its purified pieces, a purified e-row as its 012 expansion,
        a 012-row as an e-row."""
        rows, alt = [], []
        for i, kind in enumerate(("bad", "pure", "012", rng.choice(("bad", "pure", "012")))):
            number = (i & 1, i >> 1)
            if kind == "012":
                row = Row012(number + tuple(rng.choice((0, 1, 2, 2)) for _ in range(w)))
                rows.append(row)
                alt.append(from_row012(row))
                continue
            core = None
            while core is None or (kind == "bad") != bool(core.bad_pairs()) or not core.bubble_masks:
                core = random_row012e(rng, w, max_bubbles=4)
            row = Row012e(w + 2, tuple(s for b in number for s in ((1, 0) if b else (0, 1))) + core.slots)
            rows.append(row)
            alt.extend(ref_purify(row) if kind == "bad" else expand_to_012(row))
        return RowList(w + 2, rows), RowList(w + 2, alt)

    def test_mixed_lists_match_the_oracles(self, monkeypatch):
        rng = random.Random(457)
        calls = []
        cut = wildsat.analysis._purify
        monkeypatch.setattr(wildsat.analysis, "_purify", lambda w, *masks: calls.append(masks) or cut(w, *masks))
        seen = set()
        for _ in range(60):
            w = rng.randint(2, 6)
            rows, alt = self._mixed(rng, w)
            impure = [(r.ones, r.bubble_masks) for r in rows if isinstance(r, Row012e) and r.bad_pairs()]
            expected = [0] * (w + 3)
            for u in models_of_mask(w + 2, rows_mask(w + 2, rows)):
                expected[weight(u)] += 1
            calls.clear()
            assert list(count_by_cardinality(rows).coefficients) == expected
            assert calls == impure  # only the rows with a bad pair are cut
            assert list(count_by_cardinality(alt).coefficients) == expected
            dropped = RowList(w + 2, alt.rows[:-1])
            for x, y in ((rows, alt), (alt, rows), (rows, dropped), (dropped, rows)):
                got = equivalent(x, y)
                assert got == equivalent_pairwise(x, y)
                seen.add(got.equal)
        assert seen == {True, False}


@st.composite
def mixed_row_lists(draw) -> RowList:
    """Lists of one to six rows over 2-6 variables, each a 012-row, a
    purified e-row or an e-row that may hold bad pairs.  An e-row's
    variable is free, fixed, one slot in one of three bubbles, or, in the
    last kind, both slots in two distinct bubbles."""
    w = draw(st.integers(2, 6))
    rows = []
    for kind in draw(st.lists(st.sampled_from(("bad", "pure", "012")), min_size=1, max_size=6)):
        if kind == "012":
            rows.append(Row012(tuple(draw(st.lists(st.sampled_from((0, 1, 2)), min_size=w, max_size=w)))))
            continue
        slots: list[int] = []
        forms = (5, 5, 3, 4, 0, 1) if kind == "bad" else (3, 4, 0, 1, 2)
        for _ in range(w):
            form, label = draw(st.sampled_from(forms)), draw(st.integers(0, 2))
            if form == 5:  # the mate's bubble is another of the three
                slots += (3 + label, 3 + (label + 1 + draw(st.integers(0, 1))) % 3)
            else:
                slots += ((2, 2), (1, 0), (0, 1), (3 + label, 2), (2, 3 + label))[form]
        for v in set(slots):
            if v >= 3 and slots.count(v) == 1:  # a bubble needs two slots
                slots[slots.index(v)] = 2
        rows.append(Row012e(w, tuple(slots)))
    return RowList(w, rows)


class TestCountWalks:
    """An e-row's count, free variables and bad pairs come from one walk,
    ``rows._census``, which ``rows._totals`` and ``analysis._purified``
    read.  All three agree with the oracle's counts, with the members
    counted one by one and with the slot view."""

    @given(mixed_row_lists())
    @settings(max_examples=300, deadline=None)
    def test_the_three_count_walks_match_the_oracle(self, rows):
        w, cards, free = rows.width, [], 0
        for row in rows.rows:
            if isinstance(row, Row012):
                card = card_012(row)
                assert _census(_evens(w), _spread(row.ones) | _spread(row.zeros) << 1, ()) == (card, row.free_count, 0)
                free += row.free_count
            else:
                slots = row.slots
                bad = [v for v in range(w) if slots[2 * v] >= 3 and slots[2 * v + 1] >= 3]
                card = card_e(row) if bad else card_purified(row)
                members, f, bad_slots = _census(_evens(w), row.ones, row.bubble_masks)
                assert f == row.free_count == sum(slots[2 * v] == slots[2 * v + 1] == TWO for v in range(w))
                assert bad_slots == sum(1 << 2 * v for v in bad)
                assert row.bad_pairs() == tuple(v + 1 for v in bad)
                assert row.is_purified() == (not bad)
                if not bad:
                    assert members == card
                free += f
            assert card == row_mask(w, row).bit_count()
            cards.append(card)
        assert _totals(w, rows.masks) == (sum(cards), free)
        pieces = wildsat.analysis._purified(rows)
        assert [i for i, *_ in pieces] == sorted(i for i, *_ in pieces)
        for i, card in enumerate(cards):
            mine = [(ones, bubbles, n) for j, ones, bubbles, n in pieces if j == i]
            assert sum(n for *_, n in mine) == card
            for ones, bubbles, n in mine:
                assert n == _census(_evens(w), ones, bubbles)[0] == card_purified(_row012e(w, ones, bubbles))
