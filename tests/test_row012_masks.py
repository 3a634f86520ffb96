"""The mask-backed 012-row against a symbol-tuple reference, and the rule
that the enumeration path never reads the derived ``symbols`` view.

``RefRow`` below is the plain one-symbol-per-variable row, kept here as the
reference.  Widths run from 0 to 70, past a 64-bit word.
"""

from __future__ import annotations

import copy
import pickle
import random
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import card_012, from_row012, intersect_012, random_cnf
from wildsat.bench import GenSpec, gen_random_cnf
from wildsat.engine import CardinalityFilter, EngineConfig, Method, Policy, run
from wildsat.formulas import Clause, Cnf
from wildsat.rows import (
    Row012,
    Row012e,
    RowList,
    format_rows,
    member_complement,
    parse_rows,
)
from wildsat.sat import test2 as pair_test

MAX_W = 70


class RefRow:
    """A 012-row as a tuple of one symbol per variable."""

    def __init__(self, symbols):
        self.symbols = tuple(symbols)
        if any(s not in (0, 1, 2) for s in self.symbols):
            raise ValueError("row symbols must be 0, 1 or 2")

    @property
    def width(self):
        return len(self.symbols)

    def value(self, var):
        if not 1 <= var <= self.width:
            raise IndexError(var)
        return self.symbols[var - 1]

    def with_value(self, var, value):
        if not 1 <= var <= self.width:
            raise IndexError(var)
        symbols = list(self.symbols)
        symbols[var - 1] = value
        return RefRow(symbols)

    def contains(self, u):
        if len(u) != self.width:
            raise ValueError("bitstring length does not match row width")
        return all(s == 2 or s == b for s, b in zip(self.symbols, u))

    def mask(self, symbol):
        return sum(1 << i for i, s in enumerate(self.symbols) if s == symbol)

    def vars_of(self, symbol):
        return frozenset(i + 1 for i, s in enumerate(self.symbols) if s == symbol)


def ref_intersect(a, b):
    out = []
    for x, y in zip(a.symbols, b.symbols):
        if x == 2:
            out.append(y)
        elif y == 2 or y == x:
            out.append(x)
        else:
            return None
    return RefRow(out)


def ref_test2(row, cnf):
    """Test 2 on variable sets, as first written."""
    zeros, ones = row.vars_of(0), row.vars_of(1)
    # each clause as its (positive, negative) variable sets
    clauses = [
        tuple({v for v in range(1, cnf.num_vars + 1) if m >> (v - 1) & 1} for m in c.masks)
        for c in cnf.clauses
    ]
    for i, (pi, ni) in enumerate(clauses):
        for j, (pj, nj) in enumerate(clauses):
            if i == j:
                continue
            for p in pi & nj:
                if (pi - {p}) | pj <= zeros and (nj - {p}) | ni <= ones:
                    return False
    return True


symbol_lists = st.integers(0, MAX_W).flatmap(
    lambda w: st.lists(st.sampled_from((0, 1, 2)), min_size=w, max_size=w)
)


def assert_same(row: Row012, ref: RefRow) -> None:
    assert row.width == ref.width
    assert row.ones == ref.mask(1)
    assert row.zeros == ref.mask(0)
    assert row.twos == ref.mask(2)
    assert row.free_count == ref.symbols.count(2)
    assert card_012(row) == 2 ** ref.symbols.count(2)
    assert str(row) == "".join(map(str, ref.symbols))
    assert row.symbols == ref.symbols


class TestAgainstReference:
    @given(symbol_lists)
    @settings(max_examples=100, deadline=None)
    def test_constructor_and_views(self, symbols):
        row, ref = Row012(symbols), RefRow(symbols)
        assert_same(row, ref)
        for var in range(1, ref.width + 1):
            assert row.value(var) == ref.value(var)

    @given(symbol_lists, st.data())
    @settings(max_examples=60, deadline=None)
    def test_bad_symbol_rejected(self, symbols, data):
        bad = data.draw(st.sampled_from((3, -1, 4, "1", None, 0.5)))
        pos = data.draw(st.integers(0, len(symbols)))
        with pytest.raises(ValueError, match="0, 1 or 2"):
            Row012(symbols[:pos] + [bad] + symbols[pos:])

    @given(symbol_lists, st.data())
    @settings(max_examples=120, deadline=None)
    def test_with_value_chain(self, symbols, data):
        # a walk of pins and frees, checked against the reference at every
        # step; the sons' symbols are derived from their masks
        row, ref = Row012(symbols), RefRow(symbols)
        w = ref.width
        for _ in range(data.draw(st.integers(0, 12))):
            if not w:
                break
            var = data.draw(st.integers(1, w))
            value = data.draw(st.sampled_from((0, 1, 2)))
            row, ref = row.with_value(var, value), ref.with_value(var, value)
            assert row.value(var) == value
            assert row.ones == ref.mask(1) and row.zeros == ref.mask(0)
        assert_same(row, ref)
        assert row == Row012(ref.symbols)
        assert hash(row) == hash(Row012(ref.symbols))
        assert repr(row) == repr(Row012(ref.symbols))

    @given(symbol_lists, st.data())
    @settings(max_examples=100, deadline=None)
    def test_with_value_errors(self, symbols, data):
        row = Row012(symbols)
        w = row.width
        var = data.draw(st.one_of(st.integers(-3, 0), st.integers(w + 1, w + 70)))
        with pytest.raises(IndexError):
            row.with_value(var, 1)
        with pytest.raises(IndexError):
            row.value(var)
        if w:
            bad = data.draw(st.sampled_from((3, -1, "0", None)))
            with pytest.raises(ValueError, match="0, 1 or 2"):
                row.with_value(data.draw(st.integers(1, w)), bad)

    @given(symbol_lists, st.integers(0, 2**32))
    @settings(max_examples=150, deadline=None)
    def test_contains(self, symbols, seed):
        rng = random.Random(seed)
        row, ref = Row012(symbols), RefRow(symbols)
        w = ref.width
        members = [tuple(rng.randint(0, 1) if s == 2 else s for s in symbols) for _ in range(2)]
        # near misses: a member with one fixed variable flipped
        fixed = [i for i, s in enumerate(symbols) if s != 2]
        misses = []
        for u in members:
            if fixed:
                i = rng.choice(fixed)
                misses.append(u[:i] + (1 - u[i],) + u[i + 1 :])
        others = [tuple(rng.randint(0, 1) for _ in range(w)) for _ in range(2)]
        for u in members + misses + others:
            assert row.contains(u) is ref.contains(u)
            assert row.contains(list(u)) is ref.contains(u)
            assert row.contains(sum(b << i for i, b in enumerate(u))) is ref.contains(u)
        assert all(row.contains(u) for u in members)
        assert not any(row.contains(u) for u in misses)
        with pytest.raises(ValueError, match="length"):
            row.contains((0,) * (w + rng.randint(1, 3)))
        with pytest.raises(ValueError, match="width"):
            row.contains(1 << w + rng.randint(0, 3))
        with pytest.raises(ValueError, match="width"):
            row.contains(-1)
        if w:
            with pytest.raises(ValueError, match="length"):
                row.contains((0,) * (w - 1))

    @given(symbol_lists, st.integers(0, 2**32))
    @settings(max_examples=150, deadline=None)
    def test_intersect(self, symbols, seed):
        rng = random.Random(seed)
        # copy most symbols, so that some pairs meet even at large widths
        other = [s if rng.random() < 0.8 else rng.choice((0, 1, 2)) for s in symbols]
        meet = intersect_012(Row012(symbols), Row012(other))
        expected = ref_intersect(RefRow(symbols), RefRow(other))
        if expected is None:
            assert meet is None
        else:
            assert_same(meet, expected)
            assert meet == Row012(expected.symbols)
        with pytest.raises(ValueError, match="widths differ"):
            intersect_012(Row012(symbols), Row012(other + [2]))

    @given(st.lists(symbol_lists, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_member_complement(self, lists):
        w = len(lists[0]) if lists else 0
        rows = [Row012((s + [2] * w)[:w]) for s in lists]
        flipped = member_complement(RowList(w, tuple(rows))).rows
        for row, flip in zip(rows, flipped):
            swapped = tuple(2 if s == 2 else 1 - s for s in row.symbols)
            assert_same(flip, RefRow(swapped))

    @given(st.integers(0, 2**32))
    @settings(max_examples=150, deadline=None)
    def test_pair_test(self, seed):
        rng = random.Random(seed)
        w = rng.randint(1, MAX_W)
        cnf = random_cnf(rng, w, rng.randint(0, 12), rng.randint(1, min(3, w)))
        # rows fixing most variables make the pair test fire often
        symbols = [rng.choice((0, 1, 0, 1, 2)) for _ in range(w)]
        assert pair_test(Row012(symbols), cnf) == ref_test2(RefRow(symbols), cnf)

    def test_pair_test_fires(self):
        # (x1 | x2) & (~x1 | x3) with x2 = x3 = 0 forces x1 both ways
        cnf = Cnf(3, (Clause((1, 2)), Clause((-1, 3))))
        assert pair_test(Row012((2, 0, 0)), cnf) is False
        assert ref_test2(RefRow((2, 0, 0)), cnf) is False
        assert pair_test(Row012((2, 0, 2)), cnf) is True


class TestEqualityAcrossRoutes:
    def test_routes_meet(self):
        w = 67
        symbols = tuple((0, 1, 2)[i % 3] for i in range(w))
        direct = Row012(symbols)
        pinned = Row012.full(w)
        for var, s in enumerate(symbols, 1):
            pinned = pinned.with_value(var, s)
        met = intersect_012(Row012(symbols[:40] + (2,) * 27), Row012((2,) * 40 + symbols[40:]))
        parsed = parse_rows(format_rows(RowList(w, (pinned,)))).rows[0]
        flipped_twice = member_complement(member_complement(RowList(w, (direct,)))).rows[0]
        routes = [direct, pinned, met, parsed, flipped_twice]
        assert all(r == direct for r in routes)
        assert len({hash(r) for r in routes}) == 1
        assert len({repr(r) for r in routes}) == 1
        assert len(set(routes)) == 1

    def test_width_is_part_of_identity(self):
        assert Row012((2,)) != Row012((2, 2))
        assert Row012(()) != Row012((2,))
        assert Row012((1,)) != (1,)
        r = Row012((1, 2))
        assert from_row012(r) != r and r != from_row012(r)
        e = from_row012(r)
        assert e != (e.width, e.ones, e.bubble_masks)

    @given(st.lists(st.integers(0, 2), max_size=MAX_W))
    @settings(max_examples=200, deadline=None)
    def test_view_round_trip_and_hash(self, symbols):
        row = Row012(symbols)
        assert row.symbols == tuple(symbols)
        assert hash(row) == hash((row.width, row.ones, row.zeros))

    def test_pickle_and_copy(self):
        row = Row012.full(70).with_value(65, 1).with_value(3, 0)
        for twin in (pickle.loads(pickle.dumps(row)), copy.copy(row), copy.deepcopy(row)):
            assert twin == row and hash(twin) == hash(row) and str(twin) == str(row)

    def test_rows_are_immutable(self):
        row = Row012((0, 1))
        with pytest.raises(AttributeError):
            row.ones = 0
        with pytest.raises(AttributeError):
            del row.zeros
        with pytest.raises(FrozenInstanceError):
            row.foo = 1
        with pytest.raises(FrozenInstanceError):
            del row.foo


class TestTextRoundTrip:
    @given(st.lists(symbol_lists, max_size=5), st.integers(0, MAX_W))
    @settings(max_examples=60, deadline=None)
    def test_format_parse(self, lists, w):
        rows = tuple(Row012((s * (w // max(len(s), 1) + 1) + [2] * w)[:w]) for s in lists)
        text = format_rows(RowList(w, rows))
        body = text.splitlines()[1:]
        assert body == [" ".join(map(str, r.symbols)) for r in rows]
        back = parse_rows(text)
        assert back.rows == rows and back.width == w
        assert format_rows(back) == text

    def test_width_zero(self):
        rows = RowList(0, (Row012(()), Row012.full(0)))
        text = format_rows(rows)
        assert text == "rows w=0 n=2\n\n\n"
        assert parse_rows(text).rows == rows.rows
        assert str(Row012(())) == ""


class TestHotPathNeverReadsSymbols:
    """run() and format_rows() work on the masks alone: they neither read
    the derived ``symbols`` view nor run the checked constructor."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"symbols": 0, "checked": 0}
        view = Row012.symbols.fget
        check = Row012.__post_init__

        def counting_view(row):
            counts["symbols"] += 1
            return view(row)

        def counting_check(row, *args):
            counts["checked"] += 1
            check(row, *args)

        monkeypatch.setattr(Row012, "symbols", property(counting_view))
        monkeypatch.setattr(Row012, "__post_init__", counting_check)
        return counts

    @pytest.mark.parametrize(
        "method, policy, k",
        [
            (Method.VAR012, Policy.SOLVER, 5),  # CardinalityFilter
            (Method.VAR012, Policy.NONE, None),
            (Method.CLAUSE012, Policy.SOLVER, None),
        ],
    )
    def test_run_and_format(self, counts, method, policy, k):
        cnf = gen_random_cnf(GenSpec(12, 14, 3, positive=method == Method.VAR012, seed=1))
        spmod = CardinalityFilter(cnf, k) if k is not None else None
        out = run(cnf, EngineConfig(method=method, policy=policy, spmod=spmod))
        text = format_rows(out)
        assert len(out) > 10 and text.count("\n") == len(out) + 1
        assert counts == {"symbols": 0, "checked": 0}
        Row012((0, 1, 2)).symbols  # the probes do see the public paths
        assert counts == {"symbols": 1, "checked": 1}
