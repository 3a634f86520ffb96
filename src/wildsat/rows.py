"""Wildcard row algebra: 012-rows, 012e-rows, row lists and their operations.

A 012-row is a ternary vector over {0, 1, 2} of length w; the symbol 2 is a
don't-care, so the row denotes a subcube (interval) of {0,1}^w.

A 012e-row refines this with bubbles.  It is indexed by the 2w literal slots
x1, ~x1, ..., xw, ~xw.  A bubble is a labelled group of slots meaning "at
least one of these slots takes the value 1".  A slot holding 1 asserts its
literal (for the slot of ~x3, that means x3 = 0); fixing a slot always fixes
its complement slot to the opposite value.  Slots of one variable are either
(1,0), (0,1), both free, or free/bubbled in any combination, but never fixed
inconsistently.

Rows are immutable values.  Mutation happens inside a private builder which
maintains the slot/bubble invariants and performs the cascades triggered by
pinning a slot: a 1 inside a bubble releases the rest of the bubble to
don't-cares, a 0 shrinks the bubble, and a bubble shrunk to a single slot
forces that slot to 1 (which may cascade further through complement slots).
"""

from __future__ import annotations

import itertools
import re
from dataclasses import FrozenInstanceError, dataclass, field
from typing import Iterable, Iterator, Sequence

ZERO, ONE, TWO = 0, 1, 2
_B = 3  # slot values >= _B reference bubble number (value - _B)


class EmptyRowError(Exception):
    """Raised when pinned constraints contradict: the row denotes no bitstring."""


class PurityError(ValueError):
    """Raised when an operation that requires a purified row gets an unpurified one."""


def pos_slot(var: int) -> int:
    return 2 * (var - 1)


def neg_slot(var: int) -> int:
    return 2 * (var - 1) + 1


def slot_of_lit(lit: int) -> int:
    return pos_slot(lit) if lit > 0 else neg_slot(-lit)


def slot_var(slot: int) -> int:
    return slot // 2 + 1


def slot_mate(slot: int) -> int:
    return slot ^ 1


def slot_is_positive(slot: int) -> bool:
    return slot % 2 == 0


def settles(ones: int, bubbles: Iterable[int], mask: int) -> bool:
    """True when every member of an e-row sets some slot of ``mask`` to 1.

    ``ones`` is the row's mask of slots holding 1 and ``bubbles`` holds one
    slot mask per bubble: a slot of ``mask`` holds 1, or a bubble lies
    inside ``mask`` (some slot of every bubble carries a 1).
    """
    return bool(ones & mask) or any(not b & ~mask for b in bubbles)


def _slot_masks(slots: Sequence[int], groups: Iterable[Iterable[int]]) -> tuple[int, tuple[int, ...]]:
    ones = 0
    for s, v in enumerate(slots):
        if v == ONE:
            ones |= 1 << s
    return ones, tuple(sum(1 << m for m in members) for members in groups)


# ---------------------------------------------------------------------------
# 012-rows


class Row012:
    """A subcube of {0,1}^w: each variable fixed to 0 or 1, or free (2).

    The row is two disjoint variable masks, bit v-1 for variable v, the
    layout of ``Clause.masks`` and of the solver's assignment: ``ones``
    holds the variables fixed to 1 and ``zeros`` those fixed to 0; every
    other variable below ``width`` is a don't-care.  Pinning a variable,
    the hint test ``contains`` and the clause tests of ``wildsat.sat`` are
    a few AND/OR/popcount steps on them.

    ``Row012(symbols)`` takes one 0/1/2 per variable and validates every
    symbol in ``__post_init__``.  Sons come from ``_row012``, which checks
    nothing: ``with_value`` checks only its own ``var`` and ``value``, and
    the other operations combine masks of valid rows.  A son's ``symbols``
    is a view derived from the masks and cached on first use; nothing on
    the enumeration path reads it.  Rows are immutable values.
    """

    __slots__ = ("width", "ones", "zeros", "_symbols")

    def __init__(self, symbols: Iterable[int]) -> None:
        _set_symbols(self, tuple(symbols))
        # a class attribute, as in a dataclass: a probe that replaces it
        # sees every checked construction
        self.__post_init__()

    def __post_init__(self) -> None:
        ones = zeros = 0
        bit = 1
        for s in self._symbols:
            if s == ONE:
                ones |= bit
            elif s == ZERO:
                zeros |= bit
            elif s != TWO:
                raise ValueError("row symbols must be 0, 1 or 2")
            bit <<= 1
        _set_width(self, len(self._symbols))
        _set_ones(self, ones)
        _set_zeros(self, zeros)

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    @classmethod
    def full(cls, width: int) -> "Row012":
        if width < 0:
            raise ValueError("width must be non-negative")
        return _row012(width, 0, 0)

    @property
    def symbols(self) -> tuple[int, ...]:
        """One 0/1/2 per variable: the tuple the public constructor was
        given, or else derived from the masks and cached on first use."""
        try:
            return self._symbols
        except AttributeError:
            symbols = tuple(map(int, str(self)))
            _set_symbols(self, symbols)
            return symbols

    @property
    def twos(self) -> int:
        """Mask of the free variables."""
        return ((1 << self.width) - 1) ^ (self.ones | self.zeros)

    @property
    def free_count(self) -> int:
        return self.width - (self.ones | self.zeros).bit_count()

    def value(self, var: int) -> int:
        if not 0 < var <= self.width:
            raise IndexError(f"variable {var} outside 1..{self.width}")
        bit = 1 << (var - 1)
        return ONE if self.ones & bit else ZERO if self.zeros & bit else TWO

    def with_value(self, var: int, value: int) -> "Row012":
        """The row with variable ``var`` set to ``value`` (2 frees it)."""
        if not 0 < var <= self.width:
            raise IndexError(f"variable {var} outside 1..{self.width}")
        bit = 1 << (var - 1)
        ones, zeros = self.ones & ~bit, self.zeros & ~bit
        if value == ONE:
            ones |= bit
        elif value == ZERO:
            zeros |= bit
        elif value != TWO:
            raise ValueError("row symbols must be 0, 1 or 2")
        return _row012(self.width, ones, zeros)

    def contains(self, u: Sequence[int]) -> bool:
        """True when the bitstring ``u``, one 0/1 per variable, is a member."""
        if len(u) != self.width:
            raise ValueError("bitstring length does not match row width")
        bits = _pack(u)
        return not bits & self.zeros and bits & self.ones == self.ones

    def members(self) -> Iterator[tuple[int, ...]]:
        """All bitstrings of the subcube, in lexicographic order."""
        free = [i for i, s in enumerate(self.symbols) if s == TWO]
        base = list(self.symbols)
        for bits in itertools.product((0, 1), repeat=len(free)):
            for i, b in zip(free, bits):
                base[i] = b
            yield tuple(base)

    def __eq__(self, other) -> bool:
        if other.__class__ is not Row012:
            return NotImplemented
        return self.ones == other.ones and self.zeros == other.zeros and self.width == other.width

    def __hash__(self) -> int:
        return hash((self.width, self.ones, self.zeros))

    def __repr__(self) -> str:
        return f"Row012(symbols={self.symbols!r})"

    def __reduce__(self):
        return Row012, (self.symbols,)

    def __str__(self) -> str:
        return _row_text(self)[::2]


_set_width = Row012.width.__set__
_set_ones = Row012.ones.__set__
_set_zeros = Row012.zeros.__set__
_set_symbols = Row012._symbols.__set__
_BITS = bytes.maketrans(b"\x00\x01", b"01")


def _row012(width: int, ones: int, zeros: int) -> Row012:
    """A row from disjoint masks below ``width``, built without checks."""
    row = object.__new__(Row012)
    _set_width(row, width)
    _set_ones(row, ones)
    _set_zeros(row, zeros)
    return row


# the text of four variables, indexed by their ones | zeros << 4
_CHUNK_TEXTS = [
    " ".join("1" if i >> b & 1 else "0" if i >> b + 4 & 1 else "2" for b in range(4))
    for i in range(256)
]


def _row_text(row: Row012) -> str:
    """The row's symbols separated by spaces, read off its masks four
    variables at a time; the text is cut off at the row's width."""
    ones, zeros, w = row.ones, row.zeros, row.width
    parts = []
    for _ in range((w + 3) // 4):
        parts.append(_CHUNK_TEXTS[(ones & 15) | (zeros & 15) << 4])
        ones >>= 4
        zeros >>= 4
    return " ".join(parts)[: 2 * w - 1]


def _pack(u: Sequence[int]) -> int:
    """A 0/1 sequence as a variable mask: bit i is u[i]."""
    return int(bytes(u[::-1]).translate(_BITS), 2) if u else 0


def card_012(row: Row012) -> int:
    """Number of bitstrings in the subcube: 2 ** (number of don't-cares)."""
    return 1 << row.free_count


def intersect_012(a: Row012, b: Row012) -> Row012 | None:
    """Componentwise meet of two subcubes, or None when fixed values clash."""
    if a.width != b.width:
        raise ValueError("row widths differ")
    if a.ones & b.zeros or a.zeros & b.ones:
        return None
    return _row012(a.width, a.ones | b.ones, a.zeros | b.zeros)


# ---------------------------------------------------------------------------
# 012e-rows


@dataclass(frozen=True)
class Row012e:
    """A row over the 2w literal slots, with don't-cares and e-bubbles.

    ``slots[s]`` is 0, 1, 2, or ``3 + k`` when slot ``s`` belongs to bubble
    ``k``.  Bubbles are canonical: each one is a sorted slot tuple of length
    at least two, and bubbles are numbered by their smallest slot, so equal
    rows compare equal regardless of construction history.
    """

    width: int
    slots: tuple[int, ...]
    bubbles: tuple[tuple[int, ...], ...] = ()
    # filled on first use by slot_masks.  A declared field, not a
    # functools.cached_property: that one writes the instance __dict__,
    # which materialises it and slows every later attribute read of the row.
    _masks: tuple[int, tuple[int, ...]] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    # filled on first use by read_masks, the same way
    _read: tuple[int, int] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if len(self.slots) != 2 * self.width:
            raise ValueError("slot vector must have length 2w")
        for k, members in enumerate(self.bubbles):
            if len(members) < 2:
                raise ValueError("bubbles must cover at least two slots")
            if tuple(sorted(members)) != members:
                raise ValueError("bubble slots must be sorted")
            vars_seen = [slot_var(s) for s in members]
            if len(set(vars_seen)) != len(vars_seen):
                raise ValueError("a bubble may not cover both slots of a variable")
            for s in members:
                if self.slots[s] != _B + k:
                    raise ValueError("slot/bubble tables disagree")
        for k in range(1, len(self.bubbles)):
            if self.bubbles[k - 1][0] > self.bubbles[k][0]:
                raise ValueError("bubbles must be ordered by first slot")
        for var in range(1, self.width + 1):
            a, b = self.slots[pos_slot(var)], self.slots[neg_slot(var)]
            fixed_a, fixed_b = a in (ZERO, ONE), b in (ZERO, ONE)
            if fixed_a != fixed_b or (fixed_a and a == b):
                raise ValueError(f"inconsistent slot pair for variable {var}")

    @property
    def slot_masks(self) -> tuple[int, tuple[int, ...]]:
        """(mask of the slots holding 1, one slot mask per bubble); bit s
        stands for slot s.  Cached per row; not part of its identity."""
        masks = self._masks
        if masks is None:
            masks = _slot_masks(self.slots, self.bubbles)
            object.__setattr__(self, "_masks", masks)
        return masks

    @classmethod
    def full(cls, width: int) -> "Row012e":
        return cls(width, (TWO,) * (2 * width))

    @classmethod
    def from_row012(cls, row: Row012) -> "Row012e":
        slots = []
        for v in range(row.width):
            bit = 1 << v
            if row.ones & bit:
                slots += [ONE, ZERO]
            elif row.zeros & bit:
                slots += [ZERO, ONE]
            else:
                slots += [TWO, TWO]
        return cls(row.width, tuple(slots))

    def value(self, slot: int) -> int:
        return self.slots[slot]

    def bubble_of(self, slot: int) -> int | None:
        v = self.slots[slot]
        return v - _B if v >= _B else None

    def var_value(self, var: int) -> int:
        """0/1 when the variable is fixed, 2 otherwise (free or bubbled)."""
        a = self.slots[pos_slot(var)]
        if a == ONE:
            return 1
        if a == ZERO:
            return 0
        return 2

    @property
    def read_masks(self) -> tuple[int, int]:
        """(mask of the slots holding 0, mask of the bad pairs' positive
        slots), from ``slot_masks``.  Cached per row like it.

        ``even`` marks the positive slots.  A fixed variable's 0-slot is the
        mate of its 1-slot, so the 0-slots are the 1-slots with every slot
        swapped for its mate.  With ``bub`` the union of the bubble masks, a
        variable is a bad pair when both its slots lie in ``bub``: a bubble
        never covers both slots of one variable, so they lie in distinct
        bubbles.
        """
        read = self._read
        if read is None:
            ones, bubbles = self.slot_masks
            even = ((1 << 2 * self.width) - 1) // 3
            bub = 0
            for b in bubbles:
                bub |= b
            zeros = ((ones & even) << 1) | ((ones >> 1) & even)
            read = (zeros, bub & (bub >> 1) & even)
            object.__setattr__(self, "_read", read)
        return read

    def bad_pairs(self) -> tuple[int, ...]:
        """Variables whose two slots are covered by distinct bubbles, in
        increasing order (``purify`` instantiates them in this order).

        Read off the bad-pair mask of ``read_masks``, where the bad
        variables' positive slots are the set bits of
        ``bub & (bub >> 1) & even`` (``bub``: the union of the bubbles).
        """
        m = self.read_masks[1]
        out = []
        while m:
            low = m & -m
            out.append(slot_var(low.bit_length() - 1))
            m ^= low
        return tuple(out)

    def is_purified(self) -> bool:
        return not self.read_masks[1]

    @property
    def free_count(self) -> int:
        """Number of variables with both slots at don't-care."""
        return sum(
            1
            for var in range(1, self.width + 1)
            if self.slots[pos_slot(var)] == TWO and self.slots[neg_slot(var)] == TWO
        )

    def condense(self) -> Row012:
        """Project a bubble-free row onto the w variable positions."""
        if self.bubbles:
            raise ValueError("cannot condense a row that still has bubbles")
        ones = zeros = 0
        for v in range(self.width):
            a = self.slots[2 * v]
            if a == ONE:
                ones |= 1 << v
            elif a == ZERO:
                zeros |= 1 << v
        return _row012(self.width, ones, zeros)

    def contains(self, u: Sequence[int]) -> bool:
        if len(u) != self.width:
            raise ValueError("bitstring length does not match row width")
        for var in range(1, self.width + 1):
            a = self.slots[pos_slot(var)]
            if a == ONE and u[var - 1] != 1:
                return False
            if a == ZERO and u[var - 1] != 0:
                return False
        for members in self.bubbles:
            if not any(u[slot_var(s) - 1] == (1 if slot_is_positive(s) else 0) for s in members):
                return False
        return True

    def members(self) -> Iterator[tuple[int, ...]]:
        for piece in purify(self):
            for cube in expand_to_012(piece):
                yield from cube.members()

    def __str__(self) -> str:
        toks = []
        for s, v in enumerate(self.slots):
            toks.append(f"e{v - _B + 1}" if v >= _B else str(v))
        return " ".join(toks)


class _EBuilder:
    """Mutable scratch representation of a 012e-row."""

    __slots__ = ("width", "slots", "groups", "_next")

    def __init__(self, width: int):
        self.width = width
        self.slots: list[int] = [TWO] * (2 * width)
        self.groups: dict[int, set[int]] = {}
        self._next = 0

    @classmethod
    def from_row(cls, row: Row012e) -> "_EBuilder":
        b = cls(row.width)
        b.slots = list(row.slots)
        b.groups = {k: set(m) for k, m in enumerate(row.bubbles)}
        b._next = len(row.bubbles)
        return b

    def copy(self) -> "_EBuilder":
        b = _EBuilder.__new__(_EBuilder)
        b.width = self.width
        b.slots = self.slots.copy()
        b.groups = {k: set(m) for k, m in self.groups.items()}
        b._next = self._next
        return b

    def value(self, slot: int) -> int:
        return self.slots[slot]

    def set_fixed(self, slot: int, value: int) -> None:
        """Pin a slot to 0 or 1, cascading through bubbles and complements."""
        cur = self.slots[slot]
        if cur == value:
            return
        if cur in (ZERO, ONE):
            raise EmptyRowError(f"slot {slot} already fixed to {cur}")
        pending = None
        if cur >= _B:
            gid = cur - _B
            members = self.groups[gid]
            members.discard(slot)
            if value == ONE:
                # bubble satisfied: remaining slots become free
                for m in members:
                    self.slots[m] = TWO
                del self.groups[gid]
            else:
                if not members:
                    del self.groups[gid]
                    raise EmptyRowError("all slots of a bubble pinned to 0")
                if len(members) == 1:
                    pending = next(iter(members))
        self.slots[slot] = value
        self.set_fixed(slot_mate(slot), 1 - value)
        if pending is not None and self.slots[pending] >= _B:
            # length-1 bubble remnant: its slot must carry the 1
            self.set_fixed(pending, ONE)

    def new_bubble(self, slots: Iterable[int]) -> None:
        members = sorted(set(slots))
        if any(self.slots[s] != TWO for s in members):
            raise ValueError("new bubble slots must currently be free")
        if len({slot_var(s) for s in members}) != len(members):
            return  # covers a complementary pair: "at least one 1" holds anyway
        if not members:
            raise ValueError("empty bubble")
        if len(members) == 1:
            self.set_fixed(members[0], ONE)
            return
        gid = self._next
        self._next += 1
        self.groups[gid] = set(members)
        for s in members:
            self.slots[s] = _B + gid

    def shrink_to(self, member_slot: int, keep: Iterable[int]) -> None:
        """Restrict the bubble containing member_slot to ``keep``, freeing the rest."""
        gid = self.slots[member_slot] - _B
        members = self.groups[gid]
        keep = set(keep)
        for m in members - keep:
            self.slots[m] = TWO
        members &= keep
        if len(members) == 1:
            lone = next(iter(members))
            self.set_fixed(lone, ONE)

    def freeze(self) -> Row012e:
        order = sorted(self.groups.values(), key=min)
        slots = list(self.slots)
        bubbles = []
        for k, members in enumerate(order):
            ms = tuple(sorted(members))
            bubbles.append(ms)
            for m in ms:
                slots[m] = _B + k
        return Row012e(self.width, tuple(slots), tuple(bubbles))


def card_purified(row: Row012e) -> int:
    """Cardinality of a purified row: product of (2^len - 1) over bubbles
    times 2^(free variables)."""
    bad = row.bad_pairs()
    if bad:
        raise PurityError(f"row has bad pairs at variables {bad}")
    n = 1 << row.free_count
    for members in row.bubbles:
        n *= (1 << len(members)) - 1
    return n


def card_e(row: Row012e) -> int:
    """Cardinality of an arbitrary 012e-row (purifies internally)."""
    return sum(card_purified(piece) for piece in purify(row))


def purify(row: Row012e) -> list[Row012e]:
    """Split a row into disjoint purified rows covering the same bitstrings.

    Every bad pair is instantiated both ways (value 1 first); instantiations
    whose cascades contradict are dropped.  At least one row survives.
    """
    bad = row.bad_pairs()
    if not bad:
        return [row]
    out = []
    for values in itertools.product((1, 0), repeat=len(bad)):
        b = _EBuilder.from_row(row)
        try:
            for var, v in zip(bad, values):
                b.set_fixed(pos_slot(var), v)
        except EmptyRowError:
            continue
        out.append(b.freeze())
    if not out:
        raise RuntimeError("purification of a nonempty row produced nothing")
    return out


def pick_model(row: Row012e) -> tuple[int, ...]:
    """A canonical member of a purified row: every bubble slot asserts its
    literal, free variables go to 0."""
    if not row.is_purified():
        raise PurityError("pick_model requires a purified row")
    u = [0] * row.width
    for var in range(1, row.width + 1):
        if row.slots[pos_slot(var)] == ONE:
            u[var - 1] = 1
    for members in row.bubbles:
        for s in members:
            u[slot_var(s) - 1] = 1 if slot_is_positive(s) else 0
    return tuple(u)


def expand_to_012(row: Row012e) -> list[Row012]:
    """Multiply out the bubbles of a purified row into plain 012-rows.

    Each bubble of length n contributes the n-line triangular staircase
    (first slot 1; first 0 and second 1; and so on), so the output has
    exactly the product of the bubble lengths many rows.
    """
    if not row.is_purified():
        raise PurityError("expand_to_012 requires a purified row")
    if not row.bubbles:
        return [row.condense()]
    out = []
    ranges = [range(len(m)) for m in row.bubbles]
    for choice in itertools.product(*ranges):
        b = _EBuilder.from_row(row)
        for members, j in zip(row.bubbles, choice):
            ms = sorted(members)
            # release the bubble, then re-pin the staircase pattern
            gid = b.slots[ms[0]] - _B
            for m in b.groups[gid]:
                b.slots[m] = TWO
            del b.groups[gid]
            for s in ms[:j]:
                b.set_fixed(s, ZERO)
            b.set_fixed(ms[j], ONE)
        out.append(b.freeze().condense())
    return out


# ---------------------------------------------------------------------------
# Imposing "at least one of these slots is 1" on a row

def impose_on_slots(row: Row012e, slots: Sequence[int]) -> list[Row012e]:
    """Partition {u in row : u sets some listed slot to 1} into disjoint rows.

    Proceeds like the triangular clause staircase, one column at a time, in
    the given slot order.  A column is either the group of all currently
    free listed slots (they become one fresh bubble) or an existing bubble
    overlapping the listed slots (it shrinks to the overlap, releasing its
    other slots).  Before the next column, the previous column's slots are
    pinned to 0.  A row that already hits the slots (the rule of
    ``settles``) is returned unchanged, and so is the remainder once its
    pinned zeros cascade into a hit.  An empty result means no member hits
    the slots.

    One running builder carries the remainder from column to column.  Each
    son is copied off it and frozen, and the remainder is frozen only when
    it is a son itself, so every returned row is built and validated once
    and no other row is built.
    """
    mask = 0
    for s in slots:
        mask |= 1 << s
    if settles(*row.slot_masks, mask):
        return [row]
    sons: list[Row012e] = []
    rest = _EBuilder.from_row(row)
    cur = rest.slots
    while True:
        first = next((s for s in slots if cur[s] == TWO or cur[s] >= _B), None)
        if first is None:
            break  # every listed slot is 0: the remainder has no hitting member
        son = rest.copy()
        try:
            if cur[first] == TWO:
                column = [s for s in slots if cur[s] == TWO]
                son.new_bubble(column)
            else:
                column = sorted(m for m in rest.groups[cur[first] - _B] if mask >> m & 1)
                son.shrink_to(first, column)
            sons.append(son.freeze())
        except EmptyRowError:
            pass
        try:
            for s in column:
                rest.set_fixed(s, ZERO)
        except EmptyRowError:
            break
        if settles(*_slot_masks(cur, rest.groups.values()), mask):
            sons.append(rest.freeze())
            break
    return sons


def intersect_e(r: Row012e, rho: Row012e) -> list[Row012e]:
    """Intersection of two 012e-rows as a list of disjoint 012e-rows.

    The operand with fewer bubbles is imposed onto the other: first its fixed
    slots, then each of its bubbles via impose_on_slots.
    """
    if r.width != rho.width:
        raise ValueError("row widths differ")
    carrier, imposed = (r, rho) if len(r.bubbles) >= len(rho.bubbles) else (rho, r)
    try:
        b = _EBuilder.from_row(carrier)
        for s, v in enumerate(imposed.slots):
            if v in (ZERO, ONE):
                b.set_fixed(s, v)
        work = [b.freeze()]
    except EmptyRowError:
        return []
    for members in imposed.bubbles:
        nxt: list[Row012e] = []
        for row in work:
            nxt.extend(impose_on_slots(row, list(members)))
        work = nxt
        if not work:
            break
    return work


def intersection_card_ie(r: Row012e, rho: Row012e) -> int:
    """Cardinality of the intersection of two purified rows.

    First a reject on the cached masks (``slot_masks``, ``read_masks``):
    the result is 0 when a slot holds 1 in one row and 0 in the other, or
    when a bubble of either row lies inside the other row's 0-slots (no
    member of the other row sets any of its slots to 1).  Each test proves
    the rows disjoint with a few bit operations.  Any other pair goes to
    inclusion-exclusion over rho's bubbles: each term pins a subset of
    rho's bubbles entirely to 0 inside r (after applying rho's fixed slots)
    and takes the purified-row cardinality.  Emptiness that shows only
    after cascades, such as a bubble shrunk to one slot that then clashes,
    is left to that sum, which comes to 0.
    """
    zeros_r, bad_r = r.read_masks
    zeros_rho, bad_rho = rho.read_masks
    if bad_r or bad_rho:
        raise PurityError("intersection_card_ie requires purified rows")
    if r.width != rho.width:
        raise ValueError("row widths differ")
    ones_r, bubbles_r = r.slot_masks
    ones_rho, bubbles_rho = rho.slot_masks
    if ones_r & zeros_rho:
        return 0
    for b in bubbles_r:
        if b & zeros_rho == b:
            return 0
    for b in bubbles_rho:
        if b & zeros_r == b:
            return 0
    try:
        base = _EBuilder.from_row(r)
        for s, v in enumerate(rho.slots):
            if v in (ZERO, ONE):
                base.set_fixed(s, v)
        base_row = base.freeze()
    except EmptyRowError:
        return 0
    total = 0
    n = len(rho.bubbles)
    for bits in itertools.product((0, 1), repeat=n):
        sign = -1 if sum(bits) % 2 else 1
        try:
            b = _EBuilder.from_row(base_row)
            for members, violate in zip(rho.bubbles, bits):
                if violate:
                    for s in members:
                        b.set_fixed(s, ZERO)
            total += sign * card_purified(b.freeze())
        except EmptyRowError:
            continue
    return total


# ---------------------------------------------------------------------------
# Row lists


@dataclass
class RunStats:
    """Machine-readable statistics of one enumeration run."""

    method: str = ""
    policy: str = ""
    rows: int = 0
    models: int = 0
    gamma_avg: float = 0.0
    time_s: float = 0.0
    harmful_deletions: int = 0
    weight_pruned: int = 0
    weight_discards: int = 0
    solver_calls: int = 0


@dataclass(frozen=True)
class RowList:
    """An ordered, pairwise-disjoint collection of rows over one width."""

    width: int
    rows: tuple = ()
    stats: RunStats | None = None

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def total_models(self) -> int:
        n = 0
        for row in self.rows:
            n += card_012(row) if isinstance(row, Row012) else card_e(row)
        return n

    def gamma_avg(self) -> float:
        """Mean number of free variables per row (don't-care pairs for e-rows)."""
        if not self.rows:
            return 0.0
        return sum(row.free_count for row in self.rows) / len(self.rows)


def member_complement(rows: RowList) -> RowList:
    """Swap fixed 0s and 1s in every row; don't-cares are untouched.

    Maps an enumeration of a model set to one of its member-wise complement
    (every member bitwise flipped).
    """
    flipped = []
    for row in rows.rows:
        if not isinstance(row, Row012):
            raise TypeError("member_complement is defined on 012-rows")
        flipped.append(_row012(row.width, row.zeros, row.ones))
    return RowList(rows.width, tuple(flipped))


# ---------------------------------------------------------------------------
# Row list text format
#
# One row per line, w whitespace-separated tokens: 0, 1, 2, eK (bubble K on
# the positive slot) or nK (bubble K on the negative slot).  Bubble numbers
# are per row.  A header line "rows w=<w> n=<count>" precedes the rows.


def format_rows(rows: RowList) -> str:
    lines = [f"rows w={rows.width} n={len(rows.rows)}"]
    for row in rows.rows:
        if isinstance(row, Row012):
            lines.append(_row_text(row))
            continue
        if not row.is_purified():
            raise PurityError("serialize purified rows only (purify first)")
        toks = []
        for var in range(1, row.width + 1):
            a, b = row.slots[pos_slot(var)], row.slots[neg_slot(var)]
            if a == ONE:
                toks.append("1")
            elif a == ZERO:
                toks.append("0")
            elif a >= _B:
                toks.append(f"e{a - _B + 1}")
            elif b >= _B:
                toks.append(f"n{b - _B + 1}")
            else:
                toks.append("2")
        lines.append(" ".join(toks))
    return "\n".join(lines) + "\n"


def parse_rows(text: str) -> RowList:
    lines = [ln.strip() for ln in text.lstrip().splitlines()] or [""]
    header = re.fullmatch(r"rows\s+w=(\d+)\s+n=(\d+)", lines[0])
    if header is None:
        raise ValueError(f"malformed header {lines[0]!r}: expected 'rows w=<w> n=<n>'")
    width, count = int(header[1]), int(header[2])
    # a row of width 0 is an empty line; otherwise blank lines are skipped
    body = lines[1:] if width == 0 else [ln for ln in lines[1:] if ln]
    rows = []
    for ln in body:
        toks = ln.split()
        if len(toks) != width:
            raise ValueError(f"expected {width} tokens per row, got {len(toks)}")
        if all(t in ("0", "1", "2") for t in toks):
            rows.append(Row012(tuple(int(t) for t in toks)))
            continue
        b = _EBuilder(width)
        groups: dict[str, list[int]] = {}
        for var, t in enumerate(toks, start=1):
            if t in ("0", "1"):
                b.set_fixed(pos_slot(var), int(t))
            elif t == "2":
                pass
            elif t[0] in ("e", "n"):
                slot = pos_slot(var) if t[0] == "e" else neg_slot(var)
                groups.setdefault(t[1:], []).append(slot)
            else:
                raise ValueError(f"bad row token {t!r}")
        for _, slots in sorted(groups.items()):
            b.new_bubble(slots)
        rows.append(b.freeze())
    if len(rows) != count:
        raise ValueError(f"header announced {count} rows, found {len(rows)}")
    return RowList(width, tuple(rows))
