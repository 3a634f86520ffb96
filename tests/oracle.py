"""Independent brute-force oracle for the test suite.

Truth tables are big integers: bit m of a mask is set iff the property holds
for the bitstring u(m) with u_i = (m >> (i-1)) & 1.  All expected values in
the suites are computed through these masks (or plain loops), never through
the code paths under test.
"""

from __future__ import annotations

import itertools
import random

from wildsat.analysis import EquivalenceResult
from wildsat.formulas import Clause, Cnf, Dnf
from wildsat.rows import (
    TWO,
    EmptyRowError,
    PurityError,
    Row012,
    Row012e,
    RowList,
    RunStats,
    card_purified,
    impose_on_slots,
    intersection_card_ie,
    neg_slot,
    pos_slot,
    purify,
    slot_var,
)
from wildsat.rows import _condense, _pin, _row012, _row012e, _row_text, _slots_of, _union

_B = 3  # slot values >= _B reference bubble number (value - _B)


class EBuilder:
    """Reference 012e-row builder over per-slot symbols.

    A mutable slot list (0, 1, 2, or 3 + k for bubble k) and a dict of
    bubble slot sets.  ``set_fixed`` pins one slot at a time and cascades
    sequentially: a 1 inside a bubble frees the rest of the bubble, a 0
    shrinks it, a bubble shrunk to one slot forces that slot to 1, and
    every pin fixes the slot's mate to the opposite value.  ``freeze``
    hands the result to the public, validating ``Row012e`` constructor.
    The program's mask fixpoint must agree with it row for row.
    """

    __slots__ = ("width", "slots", "groups", "_next")

    def __init__(self, width: int):
        self.width = width
        self.slots: list[int] = [TWO] * (2 * width)
        self.groups: dict[int, set[int]] = {}
        self._next = 0

    @classmethod
    def from_row(cls, row: Row012e) -> "EBuilder":
        b = cls(row.width)
        b.slots = list(row.slots)
        b.groups = {k: set(m) for k, m in enumerate(row.bubbles)}
        b._next = len(row.bubbles)
        return b

    def copy(self) -> "EBuilder":
        b = EBuilder(self.width)
        b.slots = self.slots.copy()
        b.groups = {k: set(m) for k, m in self.groups.items()}
        b._next = self._next
        return b

    def set_fixed(self, slot: int, value: int) -> None:
        """Pin a slot to 0 or 1, cascading through bubbles and complements."""
        cur = self.slots[slot]
        if cur == value:
            return
        if cur in (0, 1):
            raise EmptyRowError(f"slot {slot} already fixed to {cur}")
        pending = None
        if cur >= _B:
            gid = cur - _B
            members = self.groups[gid]
            members.discard(slot)
            if value == 1:
                for m in members:  # bubble satisfied: its other slots go free
                    self.slots[m] = TWO
                del self.groups[gid]
            else:
                if not members:
                    del self.groups[gid]
                    raise EmptyRowError("all slots of a bubble pinned to 0")
                if len(members) == 1:
                    pending = next(iter(members))
        self.slots[slot] = value
        self.set_fixed(slot ^ 1, 1 - value)
        if pending is not None and self.slots[pending] >= _B:
            self.set_fixed(pending, 1)  # one-slot remnant: it carries the 1

    def new_bubble(self, slots) -> None:
        members = sorted(set(slots))
        if any(self.slots[s] != TWO for s in members):
            raise ValueError("new bubble slots must currently be free")
        if len({slot_var(s) for s in members}) != len(members):
            return  # covers a complementary pair: "at least one 1" holds anyway
        if not members:
            raise ValueError("empty bubble")
        if len(members) == 1:
            self.set_fixed(members[0], 1)
            return
        gid = self._next
        self._next += 1
        self.groups[gid] = set(members)
        for s in members:
            self.slots[s] = _B + gid

    def shrink_to(self, member_slot: int, keep) -> None:
        """Restrict the bubble holding member_slot to ``keep``, freeing the rest."""
        members = self.groups[self.slots[member_slot] - _B]
        keep = set(keep)
        for m in members - keep:
            self.slots[m] = TWO
        members &= keep
        if len(members) == 1:
            self.set_fixed(next(iter(members)), 1)

    def tables(self) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """The canonical ``slots`` and ``bubbles`` views: bubbles numbered
        in order of their first slot."""
        slots = list(self.slots)
        bubbles = []
        for k, members in enumerate(sorted(self.groups.values(), key=min)):
            ms = tuple(sorted(members))
            bubbles.append(ms)
            for m in ms:
                slots[m] = _B + k
        return tuple(slots), tuple(bubbles)

    def freeze(self) -> Row012e:
        return Row012e(self.width, self.slots)  # labels 3 + group id, in no set order


def ref_impose_on_slots(row: Row012e, slots) -> list[Row012e]:
    """The clause staircase of ``impose_on_slots`` on the reference
    builder: a column of free listed slots becomes a fresh bubble, a bubble
    meeting the listed slots shrinks to them, and the column is then pinned
    to 0 in the remainder."""

    def hit(b: EBuilder) -> bool:
        return any(b.slots[s] == 1 for s in slots) or any(m <= set(slots) for m in b.groups.values())

    rest = EBuilder.from_row(row)
    if hit(rest):
        return [row]
    sons = []
    cur = rest.slots
    while True:
        first = next((s for s in slots if cur[s] == TWO or cur[s] >= _B), None)
        if first is None:
            break
        son = rest.copy()
        try:
            if cur[first] == TWO:
                column = [s for s in slots if cur[s] == TWO]
                son.new_bubble(column)
            else:
                column = sorted(m for m in rest.groups[cur[first] - _B] if m in slots)
                son.shrink_to(first, column)
            sons.append(son.freeze())
        except EmptyRowError:
            pass
        try:
            for s in column:
                rest.set_fixed(s, 0)
        except EmptyRowError:
            break
        if hit(rest):
            sons.append(rest.freeze())
            break
    return sons


def ref_k_search(
    num_vars: int, clauses, ones: int, zeros: int, k: int
) -> tuple[int | None, RunStats]:
    """The k-model search of ``sat.search_from`` without the disjoint-clause
    bound: a node is pruned only when it holds more than k ones or too few
    free variables to reach k.  Returns the ones mask of the first k-model
    in branching order (or None) and the search's counters."""
    stats = RunStats()
    full = (1 << num_vars) - 1
    trail: list[tuple[int, int]] = []

    def propagate(ones: int, zeros: int):
        while True:
            free = full & ~(ones | zeros)
            open_ = 0
            unit = False
            for pos, neg in clauses:
                if pos & ones or neg & zeros:
                    continue
                lits = (pos | neg) & free
                if not lits:
                    stats.conflicts += 1
                    return None
                if lits & (lits - 1):
                    open_ |= lits
                    continue
                if pos & lits:
                    ones |= lits
                else:
                    zeros |= lits
                free ^= lits
                unit = True
                stats.propagations += 1
            if not unit:
                return ones, zeros, open_

    while True:
        node = propagate(ones, zeros)
        if node is not None:
            n1 = node[0].bit_count()
            if not n1 <= k <= n1 + (full & ~(node[0] | node[1])).bit_count():
                node = None
        if node is None:
            if not trail:
                return None, stats
            ones, zeros = trail.pop()
            continue
        ones, zeros, open_ = node
        if not open_:
            free = full & ~(ones | zeros)
            for _ in range(k - ones.bit_count()):
                low = free & -free
                ones |= low
                free ^= low
            return ones, stats
        bit = open_ & -open_
        stats.decisions += 1
        trail.append((ones, zeros | bit))
        ones |= bit


def ref_purify(row: Row012e) -> list[Row012e]:
    """Every bad pair instantiated both ways, value 1 first, pinned one
    variable at a time; contradicting instantiations are dropped."""
    bad = [v for v in range(1, row.width + 1) if row.slots[pos_slot(v)] >= _B and row.slots[neg_slot(v)] >= _B]
    if not bad:
        return [row]
    out = []
    for values in itertools.product((1, 0), repeat=len(bad)):
        b = EBuilder.from_row(row)
        try:
            for var, v in zip(bad, values):
                b.set_fixed(pos_slot(var), v)
        except EmptyRowError:
            continue
        out.append(b.freeze())
    return out


def ref_e_row_text(row: Row012e) -> str:
    """An e-row's ``format_rows`` line, built without a token table: the
    012-row text of the 1-slots split into tokens, then each bubble's
    slots overwritten with eK (positive slot) or nK (negative slot)."""
    if not row.is_purified():
        raise PurityError("serialize purified rows only (purify first)")
    cube = _condense(row.width, row.ones)
    toks = _row_text(cube.width, cube.ones, cube.zeros).split(" ")
    for k, b in enumerate(row.bubble_masks, 1):
        for s in _slots_of(b):
            toks[s >> 1] = f"n{k}" if s & 1 else f"e{k}"
    return " ".join(toks)


def equivalent_pairwise(rows_a: RowList, rows_b: RowList) -> EquivalenceResult:
    """``equivalent`` without its slot index: the counts, then every piece
    of the first list against every piece of the second, in list order."""
    if rows_a.width != rows_b.width:
        raise ValueError("row lists have different widths")

    def pieces(rows):
        return [
            (i, p)
            for i, row in enumerate(rows.rows)
            for p in purify(Row012e.from_row012(row) if isinstance(row, Row012) else row)
        ]

    pa, pb = pieces(rows_a), pieces(rows_b)
    na = sum(card_purified(p) for _, p in pa)
    nb = sum(card_purified(p) for _, p in pb)
    if na != nb:
        return EquivalenceResult(False, None, f"model counts differ: {na} != {nb}")
    for i, piece in pa:
        if sum(intersection_card_ie(piece, q) for _, q in pb) != card_purified(piece):
            return EquivalenceResult(False, i, f"row {i} has members outside the other list")
    return EquivalenceResult(True, None, f"equal model sets of size {na}")


def overlap_scan(rows: RowList, row: Row012) -> int:
    """``ComplementFilter._overlap`` without its index: every complement row
    whose fixed values do not clash with the row's adds the members both
    share."""
    fixed = row.ones | row.zeros
    n = 0
    for r in rows.rows:
        if not (row.ones & r.zeros or row.zeros & r.ones):
            n += 1 << (row.width - (fixed | r.ones | r.zeros).bit_count())
    return n


def full_mask(w: int) -> int:
    return (1 << (1 << w)) - 1


def var_mask(w: int, var: int) -> int:
    """Mask of bitstrings with u_var = 1."""
    half = 1 << (var - 1)
    mask = ((1 << half) - 1) << half  # one period: low half 0s, high half 1s
    span = 1 << var
    while span < (1 << w):
        mask |= mask << span
        span <<= 1
    return mask


def lit_mask(w: int, lit: int) -> int:
    m = var_mask(w, abs(lit))
    return m if lit > 0 else full_mask(w) ^ m


def clause_mask(w: int, clause: Clause) -> int:
    m = 0
    for lit in clause.lits:
        m |= lit_mask(w, lit)
    return m


def cnf_mask(cnf: Cnf) -> int:
    m = full_mask(cnf.num_vars)
    for c in cnf.clauses:
        m &= clause_mask(cnf.num_vars, c)
    return m


def row_mask(w: int, row: Row012 | Row012e) -> int:
    m = full_mask(w)
    if isinstance(row, Row012):
        for var in range(1, w + 1):
            v = row.value(var)
            if v == 1:
                m &= lit_mask(w, var)
            elif v == 0:
                m &= lit_mask(w, -var)
        return m
    for var in range(1, w + 1):
        v = row.slots[pos_slot(var)]
        if v == 1:
            m &= lit_mask(w, var)
        elif v == 0:
            m &= lit_mask(w, -var)
    for members in row.bubbles:
        bub = 0
        for s in members:
            var = s // 2 + 1
            bub |= lit_mask(w, var if s % 2 == 0 else -var)
        m &= bub
    return m


def dnf_mask(dnf: Dnf) -> int:
    m = 0
    for t in dnf.terms:
        m |= row_mask(dnf.num_vars, t)
    return m


def rows_mask(w: int, rows) -> int:
    m = 0
    for r in rows:
        m |= row_mask(w, r)
    return m


def weight_mask(w: int, k: int) -> int:
    m = 0
    for bits in itertools.product((0, 1), repeat=w):
        if sum(bits) == k:
            m |= 1 << index_of(bits)
    return m


def index_of(u) -> int:
    return sum(b << i for i, b in enumerate(u))


def bitstring_of(w: int, m: int) -> tuple[int, ...]:
    return tuple((m >> i) & 1 for i in range(w))


def models_of_mask(w: int, mask: int) -> set[tuple[int, ...]]:
    out = set()
    while mask:
        low = mask & -mask
        out.add(bitstring_of(w, low.bit_length() - 1))
        mask ^= low
    return out


def assert_disjoint_cover(w: int, rows, expected_mask: int) -> None:
    """Rows must be pairwise disjoint and union to exactly the expected set."""
    union = 0
    total = 0
    for r in rows:
        m = row_mask(w, r)
        assert m, f"empty row in output: {r}"
        total += m.bit_count()
        union |= m
    assert total == union.bit_count(), "rows overlap"
    assert union == expected_mask, "row union differs from the expected model set"


def all_bitstrings(w: int):
    return itertools.product((0, 1), repeat=w)


def evaluate_naive(cnf: Cnf, u) -> bool:
    for c in cnf.clauses:
        ok = False
        for lit in c.lits:
            val = u[abs(lit) - 1]
            if (lit > 0 and val == 1) or (lit < 0 and val == 0):
                ok = True
                break
        if not ok:
            return False
    return True


def random_cnf(rng: random.Random, w: int, h: int, lam: int, positive: bool = False) -> Cnf:
    clauses = []
    for _ in range(h):
        variables = rng.sample(range(1, w + 1), lam)
        lits = tuple(v if positive or rng.random() < 0.5 else -v for v in variables)
        clauses.append(Clause(lits))
    return Cnf(w, tuple(clauses))


def random_row012(rng: random.Random, w: int) -> Row012:
    return Row012(tuple(rng.choice((0, 1, 2, 2)) for _ in range(w)))


def random_row012e(rng: random.Random, w: int, max_bubbles: int = 3, allow_bad: bool = True) -> Row012e:
    """A random valid 012e-row, biased toward bubbles; may contain bad pairs."""
    return random_ebuilder(rng, w, max_bubbles, allow_bad).freeze()


def random_ebuilder(rng: random.Random, w: int, max_bubbles: int = 3, allow_bad: bool = True) -> EBuilder:
    """The reference builder of ``random_row012e``, before it is frozen."""
    b = EBuilder(w)
    n_bubbles = rng.randint(0, max_bubbles)
    slots_free = lambda: [s for s in range(2 * w) if b.slots[s] == 2]
    for _ in range(n_bubbles):
        pool = slots_free()
        if allow_bad is False:
            pool = [
                s
                for s in pool
                if b.slots[s ^ 1] < 3  # mate not already bubbled
            ]
        rng.shuffle(pool)
        chosen: list[int] = []
        for s in pool:
            if (s ^ 1) in chosen:
                continue
            chosen.append(s)
            if len(chosen) >= rng.randint(2, 4):
                break
        if len(chosen) >= 2:
            b.new_bubble(chosen)
    for var in range(1, w + 1):
        if b.slots[pos_slot(var)] == 2 and b.slots[neg_slot(var)] == 2 and rng.random() < 0.3:
            b.set_fixed(pos_slot(var), rng.randint(0, 1))
    return b


def random_purified_row(rng: random.Random, w: int, max_bubbles: int = 3) -> Row012e:
    return random_row012e(rng, w, max_bubbles, allow_bad=False)


def row_members_naive(w: int, row) -> set[tuple[int, ...]]:
    return {u for u in all_bitstrings(w) if row.contains(u)}


# ---------------------------------------------------------------------------
# Row operations that only the tests use.  They build on the package's row
# primitives, so their tests pin those primitives too.


def intersect_012(a: Row012, b: Row012) -> Row012 | None:
    """Componentwise meet of two subcubes, or None when fixed values clash."""
    if a.width != b.width:
        raise ValueError("row widths differ")
    if a.ones & b.zeros or a.zeros & b.ones:
        return None
    return _row012(a.width, a.ones | b.ones, a.zeros | b.zeros)


def intersect_e(r: Row012e, rho: Row012e) -> list[Row012e]:
    """Intersection of two 012e-rows as a list of disjoint 012e-rows.

    The operand with fewer bubbles is imposed onto the other: first its fixed
    slots, then each of its bubbles via impose_on_slots.
    """
    if r.width != rho.width:
        raise ValueError("row widths differ")
    carrier, imposed = (r, rho) if len(r.bubble_masks) >= len(rho.bubble_masks) else (rho, r)
    try:
        work = [_row012e(r.width, *_pin(r.width, carrier.ones, carrier.bubble_masks, imposed.ones))]
    except EmptyRowError:
        return []
    for b in imposed.bubble_masks:
        members = list(_slots_of(b))
        work = [son for row in work for son in impose_on_slots(row, members)]
        if not work:
            break
    return work


def varwise_split(row: Row012) -> list[Row012]:
    """Pin the first don't-care (the lowest free bit) to 0 and to 1."""
    free = row.twos
    if not free:
        raise ValueError("cannot split a bitstring row")
    w, ones, zeros = row.width, row.ones, row.zeros
    bit = free & -free
    return [_row012(w, ones, zeros | bit), _row012(w, ones | bit, zeros)]


def ref_weight(weights, row: Row012, pick) -> int:
    """The weight of the row's member that ``pick`` (min or max) chooses
    for each free variable, summed by a plain loop over the slot weights:
    slot 2i is variable i+1 set to 1, slot 2i+1 the variable set to 0."""
    total = 0
    for i in range(row.width):
        v = row.value(i + 1)
        total += pick(weights[2 * i : 2 * i + 2]) if v == 2 else weights[2 * i + 1 - v]
    return total


def ref_refine_final(weights, bound: int, row: Row012) -> tuple[list[Row012], int]:
    """``WeightFilter.refine_final`` on rows: a subrow whose cheapest
    member is over the bound is discarded, one whose dearest member is
    within it is kept, and any other splits by ``varwise_split``, 0-son
    first.  Returns the kept subrows and the number of discarded ones."""
    kept: list[Row012] = []
    discards = 0
    stack = [row]
    while stack:
        r = stack.pop()
        if ref_weight(weights, r, min) > bound:
            discards += 1
        elif ref_weight(weights, r, max) <= bound:
            kept.append(r)
        else:
            stack.extend(reversed(varwise_split(r)))
    return kept, discards


def pick_model(row: Row012e) -> tuple[int, ...]:
    """A canonical member of a purified row: every bubble slot asserts its
    literal, free variables go to 0."""
    if not row.is_purified():
        raise PurityError("pick_model requires a purified row")
    true = row.ones | _union(row.bubble_masks)  # the slots set to 1
    return tuple(true >> 2 * v & 1 for v in range(row.width))
