"""012/012e row algebra: cardinality, membership, intersection, purification,
expansion, and the row text format."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import erow, row012
from oracle import (
    EBuilder,
    assert_disjoint_cover,
    card_012,
    card_e,
    card_purified,
    intersect_012,
    intersect_e,
    models_of_mask,
    pick_model,
    random_purified_row,
    random_row012e,
    ref_bit_index,
    row_mask,
)
import wildsat.rows as rows_module
from wildsat.engine import EngineConfig, Method, run
from wildsat.formulas import parse_dimacs
from wildsat.rows import (
    EmptyRowError,
    PurityError,
    Row012,
    Row012e,
    RowList,
    expand_to_012,
    format_rows,
    impose_on_slots,
    intersection_card_ie,
    member_complement,
    neg_slot,
    parse_rows,
    pos_slot,
    purify,
    _bit_index,
    _row012e,
)

# Purified row over x1..x8 with bubbles {x1, ~x2} and {~x5, x6, ~x7, x8},
# free don't-cares at x3 and x4.
TABLE5 = "e1 2 2 e1 2 2 2 2 2 e2 e2 2 2 e2 e2 2"

# Unpurified row over x1..x6; its bad pairs sit at x1 and x2.
TABLE6_RHO = "e1 e2 e2 e3 e1 2 e3 2 2 e3 e1 2"
TABLE6_PIECES = [
    "1 0 1 0 2 2 e3 2 2 e3 2 2",
    "0 1 1 0 e1 2 e3 2 2 e3 e1 2",
    "0 1 0 1 e1 2 2 2 2 2 e1 2",
]

TABLE4_R = "e1 e4 e3 e5 2 e2 e6 e4 e6 e1 e6 e5 e4 e3 e4 e1 e2 2"
TABLE4_RPP = "1 0 1 0 2 e2 1 0 2 2 0 1 e4 2 e4 2 e2 2"


class TestBitIndex:
    """``_bit_index`` transposes the bit matrix of its masks; the oracle
    sets one bit at a time."""

    @given(st.integers(0, 70).flatmap(lambda n: st.tuples(st.just(n), st.lists(st.integers(0, (1 << n) - 1), max_size=12))))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_per_bit_loop(self, case):
        nbits, masks = case
        assert _bit_index(iter(masks), nbits) == ref_bit_index(masks, nbits)

    def test_no_bits_and_no_masks(self):
        assert _bit_index([0, 0], 0) == []
        assert _bit_index([], 3) == [0, 0, 0]
        assert _bit_index([0b101, 0b110], 3) == [0b01, 0b10, 0b11]


class TestCard012:
    def test_interval_of_eight(self):
        assert card_012(row012("21022")) == 8

    def test_eq1_rows(self):
        a, b = row012("212222222"), row012("202220222")
        assert card_012(a) == 256
        assert card_012(b) == 128
        assert card_012(a) + card_012(b) == 384

    def test_bitstring(self):
        assert card_012(row012("0110")) == 1


class TestIntersect012:
    def test_worked_example(self):
        out = intersect_012(row012("012212"), row012("212022"))
        assert str(out) == "012012"

    def test_idempotent(self):
        r = row012("2102")
        assert intersect_012(r, r) == r

    def test_clash(self):
        assert intersect_012(row012("12"), row012("02")) is None

    def test_matches_mask_semantics(self):
        rng = random.Random(11)
        for _ in range(200):
            w = rng.randint(1, 7)
            a = Row012(tuple(rng.choice((0, 1, 2)) for _ in range(w)))
            b = Row012(tuple(rng.choice((0, 1, 2)) for _ in range(w)))
            meet = intersect_012(a, b)
            expected = row_mask(w, a) & row_mask(w, b)
            assert (row_mask(w, meet) if meet else 0) == expected


class TestRow012eInvariants:
    def test_length_one_bubble_collapses(self):
        r = erow("2 2 2 2", 2)
        b = EBuilder.from_row(r)
        b.new_bubble([0])
        assert b.freeze() == erow("1 0 2 2", 2)

    def test_bubble_over_complementary_pair_is_vacuous(self):
        b = EBuilder(2)
        b.new_bubble([0, 1])
        assert b.freeze() == Row012e.full(2)

    def test_inconsistent_pair_rejected(self):
        with pytest.raises(ValueError):
            Row012e(1, (1, 1))

    def test_condense(self, table3):
        assert str(table3[10].condense()) == "02011"

    def test_pinning_contradiction_raises(self):
        b = EBuilder.from_row(erow("1 0 2 2", 2))
        with pytest.raises(EmptyRowError):
            b.set_fixed(0, 0)

    def test_slot_masks(self):
        r = erow("1 0 e1 2 2 e1 e2 2 2 e2", 5)
        assert (r.ones, r.bubble_masks) == (0b1, (0b100100, 0b1001000000))

    def test_cached_masks_are_not_part_of_identity(self):
        a = erow("1 0 e1 2 2 e1 e2 2 2 e2", 5)  # checked: its views are the given tables
        b = _row012e(a.width, a.ones, a.bubble_masks[::-1])  # unchecked son: masks only
        with pytest.raises(AttributeError):
            b._slots
        assert (a.ones, a.bubble_masks) == (b.ones, b.bubble_masks)
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        assert len({a, b}) == 1

    def test_builder_copy_is_independent(self):
        r = erow("e1 2 e1 2 2 2", 3)
        b = EBuilder.from_row(r)
        c = b.copy()
        c.set_fixed(0, 0)  # shrinks the bubble to slot 2, which takes the 1
        assert b.freeze() == r
        assert c.freeze() == erow("0 1 1 0 2 2", 3)


class TestContains:
    def test_table3_final_row(self, table3):
        assert table3[11].contains((1, 1, 1, 1, 1))

    def test_all_two_row_contains_everything(self):
        r = Row012e.full(3)
        for u in [(0, 0, 0), (1, 0, 1), (1, 1, 1)]:
            assert r.contains(u)

    def test_fixed_zero_excludes(self):
        assert not row012("022").contains((1, 0, 0))

    def test_matches_mask_semantics(self):
        rng = random.Random(5)
        for _ in range(60):
            w = rng.randint(2, 7)
            r = random_row012e(rng, w)
            want = models_of_mask(w, row_mask(w, r))
            got = {u for u in __import__("itertools").product((0, 1), repeat=w) if r.contains(u)}
            assert got == want


class TestCardPurified:
    def test_table5(self):
        assert card_purified(erow(TABLE5)) == 180

    def test_no_bubbles_reduces_to_card_012(self):
        r = erow("2 2 1 0 2 2", 3)
        assert card_purified(r) == card_012(r.condense()) == 4

    def test_rejects_bad_pairs(self, table3):
        # the last final row of the worked run has a bad pair at x4
        with pytest.raises(PurityError):
            card_purified(table3[11])

    def test_unpurified_card_via_pieces(self, table3):
        # brute-force expansion of the same row gives 2 + 2 = 4 members
        assert card_e(table3[11]) == 4
        assert row_mask(5, table3[11]).bit_count() == 4

    def test_random_agreement_with_mask(self):
        rng = random.Random(13)
        for _ in range(150):
            w = rng.randint(2, 8)
            r = random_purified_row(rng, w)
            assert card_purified(r) == row_mask(w, r).bit_count()


class TestPurify:
    def test_table6_exact_pieces(self):
        rho = erow(TABLE6_RHO)
        assert purify(rho) == [erow(spec) for spec in TABLE6_PIECES]

    def test_purified_row_is_fixpoint(self):
        r = erow(TABLE5)
        assert purify(r) == [r]

    def test_table4_partition(self):
        r = erow(TABLE4_R)
        pieces = purify(r)
        assert pieces
        assert all(p.is_purified() for p in pieces)
        assert_disjoint_cover(9, pieces, row_mask(9, r))
        # the purified row derived step by step in the example sits inside r
        rpp = erow(TABLE4_RPP)
        assert row_mask(9, rpp) & ~row_mask(9, r) == 0

    def test_random_partition(self):
        rng = random.Random(17)
        for _ in range(200):
            w = rng.randint(2, 8)
            r = random_row012e(rng, w)
            pieces = purify(r)
            assert pieces, "purify returned nothing"
            assert all(p.is_purified() for p in pieces)
            assert_disjoint_cover(w, pieces, row_mask(w, r))


class TestPickModel:
    def test_all_two_default(self):
        assert pick_model(Row012e.full(3)) == (0, 0, 0)

    def test_single_bubble(self):
        r = erow("e e 2 2 2 2", 3)  # bubble over x1, ~x1? no: slots 0 and 1
        # a bubble over both slots of x1 is vacuous, so build over x1, x2
        r = erow("e 2 e 2 2 2", 3)
        assert pick_model(r) == (1, 1, 0)

    def test_table5_rule(self):
        assert pick_model(erow(TABLE5)) == (1, 0, 0, 0, 0, 1, 0, 1)

    def test_requires_purified(self, table3):
        with pytest.raises(PurityError):
            pick_model(table3[11])

    def test_member_always(self):
        rng = random.Random(23)
        for _ in range(200):
            r = random_purified_row(rng, rng.randint(2, 8))
            assert r.contains(pick_model(r))


class TestExpandTo012:
    def test_single_bubble_staircase(self):
        r = erow("e 2 e 2 e 2 e 2 e 2", 5)
        rows = [str(x) for x in expand_to_012(r)]
        assert rows == ["12222", "01222", "00122", "00012", "00001"]

    def test_bubble_free_row(self):
        r = erow("1 0 2 2 0 1", 3)
        assert expand_to_012(r) == [row012("120")]

    def test_table5_counts(self):
        r = erow(TABLE5)
        rows = expand_to_012(r)
        assert len(rows) == 2 * 4
        assert sum(card_012(x) for x in rows) == 180
        assert_disjoint_cover(8, rows, row_mask(8, r))

    def test_count_is_product_of_lengths(self):
        rng = random.Random(29)
        for _ in range(120):
            r = random_purified_row(rng, rng.randint(2, 7))
            n = 1
            for m in r.bubbles:
                n *= len(m)
            rows = expand_to_012(r)
            assert len(rows) == n
            assert_disjoint_cover(r.width, rows, row_mask(r.width, r))


def _table7_pair():
    r = erow("e1 2 e2 2 e3 2 e3 2 e1 2 e1 2 e3 2 e2 2", 8)
    rho = erow("e1 2 e1 2 e1 2 e1 2 e2 2 e2 2 e2 2 e2 2", 8)
    return r, rho


class TestIntersectE:
    def test_table7_exact(self):
        r, rho = _table7_pair()
        pieces = intersect_e(r, rho)
        assert [card_purified(p) for p in pieces] == [63, 12, 6, 42, 18]
        assert sum(card_purified(p) for p in pieces) == 141
        assert_disjoint_cover(8, pieces, row_mask(8, r) & row_mask(8, rho))

    def test_identity_element(self):
        r, _ = _table7_pair()
        assert intersect_e(r, Row012e.full(8)) == [r]

    def test_fixed_clash(self):
        a = erow("1 0 2 2", 2)
        b = erow("0 1 2 2", 2)
        assert intersect_e(a, b) == []

    def test_random_partition(self):
        rng = random.Random(31)
        for _ in range(150):
            w = rng.randint(2, 8)
            a = random_row012e(rng, w)
            b = random_row012e(rng, w)
            pieces = intersect_e(a, b)
            assert_disjoint_cover(w, pieces, row_mask(w, a) & row_mask(w, b)) if pieces else None
            if not pieces:
                assert row_mask(w, a) & row_mask(w, b) == 0


class TestIntersectionCardIE:
    def test_table7_value(self):
        r, rho = _table7_pair()
        assert intersection_card_ie(r, rho) == 141

    def test_self_intersection(self):
        r, _ = _table7_pair()
        assert intersection_card_ie(r, r) == card_purified(r) == 147

    def test_requires_purified(self, table3):
        with pytest.raises(PurityError):
            intersection_card_ie(table3[11], table3[11])

    def test_agrees_with_intersect_e_and_mask(self):
        rng = random.Random(37)
        for _ in range(150):
            w = rng.randint(2, 8)
            a = random_purified_row(rng, w)
            b = random_purified_row(rng, w)
            got = intersection_card_ie(a, b)
            assert got == (row_mask(w, a) & row_mask(w, b)).bit_count()
            assert got == sum(card_e(p) for p in intersect_e(a, b))


def _row_through(rng: random.Random, u: tuple[int, ...], max_bubbles: int = 4) -> Row012e:
    """A random purified row with member u: each bubble covers one slot of
    each of its variables and holds a slot whose literal u makes true, and
    fixed variables take their value in u."""
    w = len(u)
    b = EBuilder(w)
    free = list(range(1, w + 1))
    rng.shuffle(free)
    for _ in range(rng.randint(0, max_bubbles)):
        n = rng.randint(2, 4)
        chosen, free = free[:n], free[n:]
        if len(chosen) < 2:
            break
        slots = [pos_slot(v) if rng.random() < 0.5 else neg_slot(v) for v in chosen[1:]]
        v = chosen[0]
        slots.append(pos_slot(v) if u[v - 1] else neg_slot(v))
        b.new_bubble(slots)
    for v in free:
        if rng.random() < 0.3:
            b.set_fixed(pos_slot(v), u[v - 1])
    return b.freeze()


class TestIntersectionCardIEReject:
    """The mask reject at the top of intersection_card_ie returns 0 without
    pinning a row; every other pair takes the inclusion-exclusion sum."""

    @staticmethod
    def _no_builder(monkeypatch):
        def fail(*args):
            raise AssertionError("the reject should not pin a row")

        monkeypatch.setattr(rows_module, "_pin", fail)

    @pytest.mark.parametrize(
        "r, rho",
        [
            ("1 0 2 2", "0 1 2 2"),  # x1 = 1 in r, x1 = 0 in rho
            ("e 2 e 2 2 2", "0 1 0 1 2 2"),  # r's bubble {x1, x2} lies in rho's 0-slots
            ("0 1 0 1 2 2", "e 2 e 2 2 2"),  # rho's bubble lies in r's 0-slots
            ("e 2 e 2 2 2 1 0", "0 1 0 1 2 e 2 e"),  # both rows with fixed and bubbled slots
        ],
    )
    def test_each_reject_reason(self, r, rho, monkeypatch):
        r, rho = erow(r), erow(rho)
        assert (row_mask(r.width, r) & row_mask(r.width, rho)) == 0
        self._no_builder(monkeypatch)
        assert intersection_card_ie(r, rho) == 0
        assert intersection_card_ie(rho, r) == 0

    def test_cascade_only_empty_pair_falls_through(self, monkeypatch):
        # r: x1 = 0 and (~x2 or x3); rho: x3 = 0 and (x1 or x2).  No slot
        # clashes and no bubble lies in the other row's 0-slots, but inside
        # rho r's bubble shrinks to ~x2 while rho's shrinks to x2.
        r, rho = erow("0 1 2 e e 2"), erow("e 2 e 2 0 1")
        assert (row_mask(3, r) & row_mask(3, rho)) == 0
        built = []
        pin = rows_module._pin
        monkeypatch.setattr(rows_module, "_pin", lambda *args: built.append(args) or pin(*args))
        assert intersection_card_ie(r, rho) == 0
        assert built  # reached the inclusion-exclusion sum

    @given(st.integers(1, 70), st.integers(0, 2**32), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_matches_reference(self, w, seed, meet):
        # meet: both rows contain one random bitstring, else independent rows
        rng = random.Random(seed)
        if meet:
            u = tuple(rng.randint(0, 1) for _ in range(w))
            a, b = _row_through(rng, u), _row_through(rng, u)
        else:
            a, b = random_purified_row(rng, w, 4), random_purified_row(rng, w, 4)
        if w <= 10:
            expected = (row_mask(w, a) & row_mask(w, b)).bit_count()
        else:
            expected = sum(card_e(p) for p in intersect_e(a, b))
        assert intersection_card_ie(a, b) == expected
        assert intersection_card_ie(b, a) == expected
        if meet:
            assert expected > 0


class TestIntersectionCardIEPruning:
    """Inclusion-exclusion runs only over the bubbles of rho that r, with
    rho's 1-slots pinned, leaves open; r's 1-slots are not pinned again."""

    @staticmethod
    def _count_pins(monkeypatch) -> list:
        pins, pin = [], rows_module._pin
        monkeypatch.setattr(rows_module, "_pin", lambda *args: pins.append(args) or pin(*args))
        return pins

    def test_a_row_inside_the_other_pins_nothing(self, monkeypatch):
        r, _ = _table7_pair()
        pins = self._count_pins(monkeypatch)
        assert intersection_card_ie(r, r) == card_purified(r)
        assert pins == []

    def test_only_the_open_bubble_makes_terms(self, monkeypatch):
        # r: x1 = 1 and (x2 or x3); rho: (x1 or x4), which r settles, and
        # (~x2 or ~x3), which it leaves open
        r, rho = erow("1 0 e 2 e 2 2 2"), erow("e1 2 2 e2 2 e2 e1 2")
        pins = self._count_pins(monkeypatch)
        assert intersection_card_ie(r, rho) == (row_mask(4, r) & row_mask(4, rho)).bit_count() == 4
        assert len(pins) == 2  # the empty subset and {~x2, ~x3}


def _bad_pairs_walk(row: Row012e) -> tuple[int, ...]:
    """The slot walk bad_pairs replaced, kept as the reference."""
    return tuple(
        var
        for var in range(1, row.width + 1)
        if row.slots[pos_slot(var)] >= 3 and row.slots[neg_slot(var)] >= 3
    )


def _row_with_bad_pairs(rng: random.Random, w: int) -> Row012e:
    """A random e-row whose bad pairs sit at random variables: two bubbles
    take the positive and the negative slots of the same variables."""
    b = EBuilder(w)
    vars_ = rng.sample(range(1, w + 1), rng.randint(1, min(w, 8)))
    k = rng.randint(0, len(vars_))
    bad, rest = vars_[:k], vars_[k:]
    half = len(rest) // 2
    for slot, extra in ((pos_slot, rest[:half]), (neg_slot, rest[half:])):
        slots = [slot(v) for v in bad + extra]
        if len(slots) >= 2:
            b.new_bubble(slots)
    for var in range(1, w + 1):
        if b.slots[pos_slot(var)] == 2 and b.slots[neg_slot(var)] == 2 and rng.random() < 0.3:
            b.set_fixed(pos_slot(var), rng.randint(0, 1))
    return b.freeze()


class TestBitwisePurity:
    @given(st.integers(1, 70), st.integers(0, 2**32), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_matches_slot_walk(self, w, seed, forced):
        rng = random.Random(seed)
        row = _row_with_bad_pairs(rng, w) if forced else random_row012e(rng, w, max_bubbles=8)
        assert row.bad_pairs() == _bad_pairs_walk(row)
        assert row.is_purified() == (not _bad_pairs_walk(row))

    def test_bad_pairs_beyond_one_word(self):
        w = 70
        b = EBuilder(w)
        b.new_bubble([pos_slot(3), pos_slot(33), pos_slot(64)])
        b.new_bubble([neg_slot(33), neg_slot(64), neg_slot(70)])
        b.new_bubble([pos_slot(70), neg_slot(3)])
        row = b.freeze()
        assert row.bad_pairs() == _bad_pairs_walk(row) == (3, 33, 64, 70)
        assert not row.is_purified()

    @pytest.mark.parametrize(
        "call",
        [
            lambda row: intersection_card_ie(row, row),
            lambda row: intersection_card_ie(Row012e.full(row.width), row),
            card_purified,
            lambda row: format_rows(RowList(row.width, (row,))),
            pick_model,
            expand_to_012,
        ],
        ids=["ie", "ie_rho", "card_purified", "format_rows", "pick_model", "expand_to_012"],
    )
    @pytest.mark.parametrize("wide", [False, True])
    def test_unpurified_row_raises(self, call, wide, table3):
        row = table3[11]
        if wide:  # bad pairs at x35 and x38, past slot 64
            w = 40
            b = EBuilder(w)
            b.new_bubble([pos_slot(35), pos_slot(38)])
            b.new_bubble([neg_slot(35), neg_slot(38)])
            row = b.freeze()
        assert row.bad_pairs()
        with pytest.raises(PurityError):
            call(row)


class TestImposeOnSlots:
    def test_already_hit_is_identity(self):
        r = erow("1 0 2 2", 2)
        assert impose_on_slots(r, [0, 2]) == [r]

    def test_dead_support(self):
        r = erow("0 1 0 1", 2)
        assert impose_on_slots(r, [0, 2]) == []

    @pytest.mark.parametrize("slots", [[4], [0, 4], [-1], [2, -2], [99]])
    def test_slot_out_of_range_rejected(self, slots):
        # [4] at w = 2 once looped forever: its mate lies outside the row
        with pytest.raises(ValueError, match="slot out of range"):
            impose_on_slots(Row012e.full(2), slots)

    def test_highest_slot_in_range(self):
        r = Row012e.full(2)
        assert impose_on_slots(r, [3]) == [erow("2 2 0 1", 2)]

    def test_random_partition(self):
        rng = random.Random(41)
        for _ in range(250):
            w = rng.randint(2, 7)
            r = random_row012e(rng, w)
            vars_ = rng.sample(range(1, w + 1), rng.randint(1, w))
            slots = [2 * (v - 1) + rng.randint(0, 1) for v in vars_]
            hit_mask = 0
            for s in slots:
                var = s // 2 + 1
                from oracle import lit_mask

                hit_mask |= lit_mask(w, var if s % 2 == 0 else -var)
            pieces = impose_on_slots(r, slots)
            expected = row_mask(w, r) & hit_mask
            if pieces:
                assert_disjoint_cover(w, pieces, expected)
            else:
                assert expected == 0


class TestRowTextFormat:
    def test_round_trip_012(self):
        rl = RowList(3, (row012("212"), row012("002")))
        text = format_rows(rl)
        assert text.splitlines()[0] == "rows w=3 n=2"
        back = parse_rows(text)
        assert back.rows == rl.rows

    def test_round_trip_e_rows_mixed_polarity(self):
        r = erow("e1 2 2 e1 2 2 2 e2 2 e2", 5)  # bubble over x1,~x2; bubble over ~x4,~x5
        text = format_rows(RowList(5, (r,)))
        assert text.splitlines()[1] == "e1 n1 2 n2 n2"
        assert parse_rows(text).rows == (r,)

    @pytest.mark.parametrize(
        "width, rows",
        [
            (3, (row012("11"),)),
            (1, (Row012e.full(2),)),
            (3, (Row012e.full(2),)),
            (2, (row012("12"), row012("121"))),
        ],
        ids=["012-narrow", "e-wide", "e-narrow", "second-row"],
    )
    def test_row_width_mismatch_rejected(self, width, rows):
        # parse_rows would reject what format_rows wrote, so no list holds it
        with pytest.raises(ValueError, match="row widths differ"):
            RowList(width, rows)

    def test_serialising_bad_pairs_rejected(self, table3):
        with pytest.raises(PurityError):
            format_rows(RowList(5, (table3[11],)))

    def test_header_mismatch(self):
        with pytest.raises(ValueError):
            parse_rows("rows w=2 n=3\n12\n")

    @pytest.mark.parametrize(
        "text", ["rows w=3\n", "rows foo\n", "rows w=x n=1\n", "rows w=3 n=1 n=2\n", "", "w=3 n=0\n"]
    )
    def test_malformed_header_named(self, text):
        with pytest.raises(ValueError, match=r"'rows w=<w> n=<n>'"):
            parse_rows(text)

    @pytest.mark.parametrize("token", ["ex", "e", "n", "eK", "e01", "n0", "e1x"])
    def test_malformed_bubble_token_rejected(self, token):
        # a bubble label is what format_rows writes: a number from 1 up
        with pytest.raises(ValueError, match=f"bad row token '{token}'"):
            parse_rows(f"rows w=3 n=1\ne1 {token} 1\n")

    @given(st.integers(0, 10**6))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_random_purified(self, seed):
        # bubble-free e-rows come back as plain 012-rows: the text is the
        # canonical form, so compare semantics and re-serialised text
        rng = random.Random(seed)
        w = rng.randint(2, 7)
        rows = tuple(random_purified_row(rng, w) for _ in range(rng.randint(0, 4)))
        text = format_rows(RowList(w, rows))
        back = parse_rows(text)
        assert [row_mask(w, p) for p in back.rows] == [row_mask(w, r) for r in rows]
        assert format_rows(back) == text


class TestEmptyWidthRowFiles:
    @pytest.mark.parametrize("method", [Method.CLAUSE_E, Method.CLAUSE012, Method.VAR012])
    def test_round_trip(self, method):
        rows = run(parse_dimacs("p cnf 0 0\n"), EngineConfig(method=method))
        assert rows.stats.prob == 1.0
        text = format_rows(rows)
        assert text == "rows w=0 n=1\n\n"
        back = parse_rows(text)
        assert len(back) == 1 and back.total_models() == 1
        assert format_rows(back) == text

    def test_counts_blank_lines_as_rows(self):
        assert len(parse_rows("rows w=0 n=0\n")) == 0
        assert len(parse_rows("rows w=0 n=2\n\n\n")) == 2
        with pytest.raises(ValueError, match="announced 1 rows, found 2"):
            parse_rows("rows w=0 n=1\n\n\n")

    def test_token_line_rejected(self):
        with pytest.raises(ValueError, match="expected 0 tokens"):
            parse_rows("rows w=0 n=1\n1\n")


class TestMembersIteration:
    def test_e_row_members_match_mask(self):
        rng = random.Random(43)
        for _ in range(80):
            w = rng.randint(1, 7)
            r = random_row012e(rng, w)
            got = list(r.members())
            assert len(got) == len(set(got)), "duplicate members"
            assert set(got) == models_of_mask(w, row_mask(w, r))

    def test_012_members_match_mask(self):
        rng = random.Random(47)
        for _ in range(60):
            w = rng.randint(1, 7)
            r = Row012(tuple(rng.choice((0, 1, 2, 2)) for _ in range(w)))
            got = list(r.members())
            assert len(got) == card_012(r)
            assert set(got) == models_of_mask(w, row_mask(w, r))


class TestManyBubbleSerialization:
    def test_two_digit_bubble_labels_round_trip(self):
        w = 24
        b = EBuilder(w)
        for k in range(12):  # twelve bubbles, labels go past e9
            b.new_bubble([4 * k, 4 * k + 2])
        r = b.freeze()
        text = format_rows(RowList(w, (r,)))
        back = parse_rows(text)
        assert back.rows == (r,)
        assert "e10" in text.splitlines()[1]


class TestArgumentChecks:
    @pytest.mark.parametrize(
        "call, error, match",
        [
            (lambda: Row012e(2, (2, 2, 2)), ValueError, "length 2w"),
            (lambda: Row012e(2, (3, 2, 2, 2)), ValueError, "at least two slots"),
            (lambda: Row012e(2, (3, 3, 2, 2)), ValueError, "both slots"),
            (lambda: Row012.full(-1), ValueError, "non-negative"),
            (lambda: erow("e1 2 e1 2", 2).condense(), ValueError, "still has bubbles"),
            (lambda: Row012e.full(2).contains((1,)), ValueError, "length"),
            (lambda: intersect_e(Row012e.full(2), Row012e.full(3)), ValueError, "widths differ"),
            (lambda: intersection_card_ie(Row012e.full(2), Row012e.full(3)), ValueError, "widths differ"),
            (lambda: member_complement(RowList(2, (Row012e.full(2),))), TypeError, "012-rows"),
        ],
    )
    def test_rejected(self, call, error, match):
        with pytest.raises(error, match=match):
            call()

    def test_e_row_full_rejects_a_negative_width(self):
        # the width check comes first, not the slot-vector length check
        with pytest.raises(ValueError, match="width must be non-negative"):
            Row012e.full(-1)

    def test_row_list_iterates_its_rows(self):
        rows = RowList(3, (row012("120"), row012("022")))
        assert list(rows) == list(rows.rows)
