"""The mask-native 012e-row against the symbol-level reference builder, and
the rule that the enumeration and equivalence paths never build the derived
``slots``/``bubbles`` views.

``oracle.EBuilder`` edits a slot list and a dict of bubble sets one pin at
a time, with sequential cascades, and freezes through the validating public
constructor.  The program pins on masks through one fixpoint (``_pin``).
Both must give equal rows, or both raise EmptyRowError.  Widths run from 0
to 40, so rows reach 80 slots, past a 64-bit word.
"""

from __future__ import annotations

import copy
import pickle
import random
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import (
    EBuilder,
    random_cnf,
    random_ebuilder,
    random_row012e,
    ref_e_row_text,
    ref_impose_on_slots,
    ref_purify,
    row_mask,
)
from wildsat.analysis import equivalent
from wildsat.bench import GenSpec, gen_random_cnf
from wildsat.engine import EngineConfig, Method, Policy, run
from wildsat.rows import (
    EmptyRowError,
    PurityError,
    Row012e,
    RowList,
    _pin,
    _row012e,
    card_purified,
    format_rows,
    impose_on_slots,
    parse_rows,
    purify,
    settles,
)
from wildsat.sat import first_unsettled

MAX_W = 40


def _reference(build):
    """build() as a row, or EmptyRowError as the class."""
    try:
        return build()
    except EmptyRowError:
        return EmptyRowError


def _ref_card(row: Row012e) -> int:
    """The purified-row cardinality, read off the row's slot table."""
    free = sum(1 for v in range(row.width) if row.slots[2 * v] == row.slots[2 * v + 1] == 2)
    n = 1 << free
    for members in row.bubbles:
        n *= (1 << len(members)) - 1
    return n


def _ref_text(row: Row012e) -> str:
    """One token per variable from the slot table: 1, 0, eK, nK or 2."""
    toks = []
    for v in range(row.width):
        a, b = row.slots[2 * v], row.slots[2 * v + 1]
        toks.append(
            "1" if a == 1 else "0" if a == 0 else f"e{a - 2}" if a >= 3 else f"n{b - 2}" if b >= 3 else "2"
        )
    return " ".join(toks)


def _row(seed: int, w: int) -> Row012e:
    return random_row012e(random.Random(seed), w, max_bubbles=6)


class TestAgainstReference:
    @given(
        st.integers(0, MAX_W),
        st.integers(0, 2**32),
        st.lists(st.tuples(st.integers(0, 2 * MAX_W - 1), st.booleans()), max_size=8),
    )
    @settings(max_examples=300, deadline=None)
    def test_pin_sequence(self, w, seed, pins):
        row = _row(seed, w)
        pins = [(s % (2 * w), v) for s, v in pins] if w else []

        def ref():
            b = EBuilder.from_row(row)
            for s, v in pins:
                b.set_fixed(s, int(v))
            return b.freeze()

        new = 0
        for s, v in pins:
            new |= 1 << (s if v else s ^ 1)
        got = _reference(lambda: _row012e(w, *_pin(w, row.ones, row.bubble_masks, new)))
        assert got == _reference(ref)

    @given(st.integers(1, MAX_W), st.integers(0, 2**32), st.data())
    @settings(max_examples=300, deadline=None)
    def test_impose_on_slots(self, w, seed, data):
        # any slot order, complementary pairs included: fresh-bubble and
        # shrink columns, one-slot columns and vacuous ones
        row = _row(seed, w)
        slots = data.draw(st.lists(st.integers(0, 2 * w - 1), min_size=1, max_size=6, unique=True))
        assert impose_on_slots(row, slots) == ref_impose_on_slots(row, slots)

    @given(st.integers(0, MAX_W), st.integers(0, 2**32))
    @settings(max_examples=200, deadline=None)
    def test_purify_card_free_count_and_text(self, w, seed):
        row = _row(seed, w)
        pieces = ref_purify(row)
        assert [p.bad_pairs() for p in pieces] == [()] * len(pieces)
        assert purify(row) == pieces
        assert row.free_count == sum(1 for v in range(w) if row.slots[2 * v] == row.slots[2 * v + 1] == 2)
        for piece in pieces:
            assert card_purified(piece) == _ref_card(piece)
        if w <= 8:
            assert sum(map(_ref_card, pieces)) == row_mask(w, row).bit_count()
        text = format_rows(RowList(w, tuple(pieces)))
        assert text.splitlines()[1:] == [_ref_text(p) for p in pieces]
        back = parse_rows(text)
        assert format_rows(back) == text
        assert [p for p in back.rows if isinstance(p, Row012e)] == [p for p in pieces if p.bubble_masks]

    @given(st.integers(1, MAX_W), st.integers(0, 2**32))
    @settings(max_examples=100, deadline=None)
    def test_contains_with_packed_bits(self, w, seed):
        rng = random.Random(seed)
        row = _row(seed, w)
        for _ in range(8):
            u = tuple(rng.randint(0, 1) for _ in range(w))
            bits = sum(b << i for i, b in enumerate(u))
            want = all(row.slots[2 * v] != 1 - u[v] for v in range(w)) and all(
                any(u[s // 2] == 1 - s % 2 for s in m) for m in row.bubbles
            )
            assert row.contains(u) == row.contains(bits) == want
        with pytest.raises(ValueError, match="width"):
            row.contains(1 << w)


def _top_row(rng: random.Random, w: int) -> Row012e:
    """A random purified row whose bubbles sit on its highest variables,
    one slot per variable, with random fixes on the rest."""
    b = EBuilder(w)
    top = list(range(max(1, w - 9), w + 1))
    rng.shuffle(top)
    while len(top) >= 2 and rng.random() < 0.8:
        n = rng.randint(2, min(4, len(top)))
        b.new_bubble([2 * (v - 1) + rng.randint(0, 1) for v in top[:n]])
        del top[:n]
    for s in range(0, 2 * w, 2):
        if b.slots[s] == b.slots[s + 1] == 2 and rng.random() < 0.4:
            b.set_fixed(s, rng.randint(0, 1))
    return b.freeze()


class TestTokenTable:
    """``format_rows`` reads an e-row's tokens from a table of four
    variables' slot bits; ``oracle.ref_e_row_text`` builds the same line
    from the 012-row text.  Widths run to 70, past a 64-bit word of slots,
    through every w % 4."""

    @given(st.integers(0, 70), st.integers(0, 2**32))
    @settings(max_examples=300, deadline=None)
    def test_text_matches_the_reference(self, w, seed):
        rng = random.Random(seed)
        rows = [_top_row(rng, w) for _ in range(3)]
        rows += [random_row012e(rng, w, max_bubbles=6, allow_bad=False) for _ in range(3)]
        text = format_rows(RowList(w, tuple(rows)))
        assert text == "\n".join([f"rows w={w} n=6", *map(ref_e_row_text, rows)]) + "\n"

    @given(st.integers(2, 70), st.integers(0, 2**32))
    @settings(max_examples=200, deadline=None)
    def test_impure_row_rejected(self, w, seed):
        row = random_row012e(random.Random(seed), w, max_bubbles=6)
        if row.is_purified():  # a bad pair on the two highest variables
            b = EBuilder.from_row(row)
            for s in (2 * w - 4, 2 * w - 3, 2 * w - 2, 2 * w - 1):
                if b.slots[s] != 2:
                    return
            b.new_bubble([2 * w - 4, 2 * w - 2])
            b.new_bubble([2 * w - 3, 2 * w - 1])
            row = b.freeze()
        assert not row.is_purified()
        with pytest.raises(PurityError):
            ref_e_row_text(row)
        with pytest.raises(PurityError):
            format_rows(RowList(w, (Row012e.full(w), row)))


class TestImposeCascades:
    """The remainder of a staircase column can settle the listed slots only
    after a chain of unit cascades: pinning the column to 0 leaves a bubble
    {t1}, t1 = 1 empties the mate's bubble down to {t2}, and so on, until a
    bubble inside the listed slots or a 1 on one of them is left.  The
    fused column pass must read that from its last round."""

    @given(st.integers(1, 6), st.booleans(), st.integers(0, 2**32))
    @settings(max_examples=300, deadline=None)
    def test_settles_at_the_end_of_a_chain(self, depth, in_bubble, seed):
        rng = random.Random(seed)
        w = depth + 4 + rng.randint(0, 4)
        variables = rng.sample(range(w), depth + 4)
        slot = lambda i: 2 * variables[i] + rng.randint(0, 1)
        m1, m4, m2, m3 = (slot(i) for i in range(4))
        chain = [slot(4 + i) for i in range(depth)]
        b = EBuilder(w)
        b.new_bubble([m1, chain[0]])
        for t, u in zip(chain, chain[1:]):
            b.new_bubble([t ^ 1, u])
        b.new_bubble([chain[-1] ^ 1, m2, m3] if in_bubble else [chain[-1] ^ 1, m2])
        for v in set(range(w)) - set(variables):
            if rng.random() < 0.5:
                b.set_fixed(2 * v, rng.randint(0, 1))
        row = b.freeze()
        # m4, a free slot listed before m2 and m3, would be the next column
        # of a remainder taken as unsettled
        slots = [m1, m4, m2, m3]
        sons = impose_on_slots(row, slots)
        assert sons == ref_impose_on_slots(row, slots)
        assert len(sons) == 2
        rest = sons[1]
        assert rest.ones >> m1 & 1 == 0 and rest.ones >> (m1 ^ 1) & 1
        assert all(rest.ones >> t & 1 for t in chain)
        if in_bubble:
            assert 1 << m2 | 1 << m3 in rest.bubble_masks
        else:
            assert rest.ones >> m2 & 1


class TestSettlesCopies:
    """``first_unsettled``'s e-row loop and ``impose_on_slots``'s settled
    tests are written-out copies of ``settles``; on every clause they must
    answer as it does.  The remainder's flag after a cascade is pinned by
    ``TestImposeCascades``, since random rows rarely reach it."""

    def test_copies_agree_with_settles(self):
        rng = random.Random(157)
        for _ in range(300):
            w = rng.randint(1, 9)
            row = random_row012e(rng, w, max_bubbles=4)
            cnf = random_cnf(rng, w, rng.randint(1, 10), rng.randint(1, min(4, w)))
            for i, clause in enumerate(cnf.clauses):
                settled = settles(row.ones, row.bubble_masks, clause.slot_mask)
                assert (first_unsettled(row, cnf, i) == i) == (not settled)
                sons = impose_on_slots(row, clause.slots)
                assert (sons == [row]) == settled
                assert all(settles(s.ones, s.bubble_masks, clause.slot_mask) for s in sons)


class TestEqualityAcrossRoutes:
    def test_routes_meet(self):
        w = 40
        b = EBuilder(w)
        b.new_bubble([0, 34, 70])
        b.new_bubble([3, 37, 79])
        b.set_fixed(10, 1)
        b.set_fixed(67, 1)
        checked = b.freeze()
        unchecked = _row012e(w, checked.ones, checked.bubble_masks[::-1])
        parsed = parse_rows(format_rows(RowList(w, (checked,)))).rows[0]
        # slot 67 pinned again, through a bubble that the pin satisfies
        bubbles = [*checked.bubble_masks, 1 << 67 | 1 << 60]
        pinned = _row012e(w, *_pin(w, checked.ones & ~(1 << 67), bubbles, 1 << 67))
        copies = [pickle.loads(pickle.dumps(unchecked)), copy.deepcopy(unchecked)]
        routes = [checked, unchecked, parsed, pinned, *copies]
        assert all(r == checked for r in routes)
        assert len({hash(r) for r in routes}) == 1
        assert len({repr(r) for r in routes}) == 1
        assert len(set(routes)) == 1

    def test_views_match_the_public_tables(self):
        row = _row(7, MAX_W)
        son = _row012e(row.width, row.ones, row.bubble_masks)
        assert (son.slots, son.bubbles) == (row.slots, row.bubbles)
        assert str(son) == str(row)

    @given(st.integers(0, MAX_W), st.integers(0, 2**32))
    @settings(max_examples=200, deadline=None)
    def test_view_round_trip_and_hash(self, w, seed):
        slots, bubbles = random_ebuilder(random.Random(seed), w, max_bubbles=6).tables()
        row = Row012e(w, slots)
        assert (row.slots, row.bubbles) == (slots, bubbles)
        assert hash(row) == hash((row.width, row.ones, row.bubble_masks))

    @given(st.integers(0, MAX_W), st.integers(0, 2**32))
    @settings(max_examples=200, deadline=None)
    def test_slot_view_rebuilds_the_row(self, w, seed):
        row = _row(seed, w)
        assert Row012e(row.width, row.slots) == row

    @given(st.integers(0, MAX_W), st.integers(0, 2**32), st.data())
    @settings(max_examples=200, deadline=None)
    def test_labels_are_names(self, w, seed, data):
        # any distinct ints >= 3 in place of the view's labels 3, 4, ...
        row = _row(seed, w)
        n = len(row.bubble_masks)
        labels = data.draw(st.lists(st.integers(3, 2**70), min_size=n, max_size=n, unique=True))
        slots = [labels[v - 3] if v >= 3 else v for v in row.slots]
        assert Row012e(w, slots) == row

    @given(st.integers(0, MAX_W), st.integers(0, 2**32))
    @settings(max_examples=100, deadline=None)
    def test_pickle_and_deepcopy_round_trip(self, w, seed):
        row = _row(seed, w)
        for back in (pickle.loads(pickle.dumps(row)), copy.deepcopy(row)):
            assert back == row and repr(back) == repr(row)

    def test_public_constructor_still_validates(self):
        with pytest.raises(ValueError, match="at least two slots"):
            Row012e(2, (3, 2, 2, 2))  # a label on one slot only
        with pytest.raises(ValueError, match="inconsistent"):
            Row012e(1, (1, 1))
        for junk in ((-1, 2, 2, 2), (2.5, 2, 2, 2)):  # neither a symbol nor a bubble label
            with pytest.raises(ValueError, match="slot values"):
                Row012e(2, junk)

    def test_rows_are_immutable(self):
        row = Row012e.full(2)
        with pytest.raises(AttributeError):
            row.ones = 1
        with pytest.raises(AttributeError):
            del row.bubble_masks
        with pytest.raises(FrozenInstanceError):
            row.foo = 1
        with pytest.raises(FrozenInstanceError):
            del row.foo


class TestHotPathNeverBuildsViews:
    """run(), format_rows() and equivalent() work on the masks alone: they
    never build the ``slots``/``bubbles`` views, and make no checked
    construction (a clause-e run starts from the root's masks)."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"views": 0, "checked": 0}
        check = Row012e.__post_init__

        def counting(view):
            def get(row):
                counts["views"] += 1
                return view(row)

            return property(get)

        def counting_check(row, *args):
            counts["checked"] += 1
            check(row, *args)

        monkeypatch.setattr(Row012e, "slots", counting(Row012e.slots.fget))
        monkeypatch.setattr(Row012e, "bubbles", counting(Row012e.bubbles.fget))
        monkeypatch.setattr(Row012e, "__post_init__", counting_check)
        return counts

    @pytest.mark.parametrize("policy", [Policy.NONE, Policy.TEST1, Policy.SOLVER])
    def test_run_format_and_equivalent(self, counts, policy):
        cnf = gen_random_cnf(GenSpec(12, 26, 3, positive=policy == Policy.TEST1, seed=2))
        config = EngineConfig(method=Method.CLAUSE_E, policy=policy)
        out = run(cnf, config)
        text = format_rows(out)
        reordered = run(type(cnf)(cnf.num_vars, cnf.clauses[::-1]), config)
        assert equivalent(out, reordered)
        assert len(out) > 10 and text.count("\n") == len(out) + 1
        assert counts == {"views": 0, "checked": 0}
        Row012e.full(2).bubbles  # the probes do see the public paths
        assert counts == {"views": 1, "checked": 1}
