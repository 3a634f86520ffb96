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

Rows are immutable values over bit masks.  Every edit of an e-row pins
slots through one fixpoint on its masks, which performs the cascades
triggered by pinning a slot: a 1 inside a bubble releases the rest of the
bubble to don't-cares, a 0 shrinks the bubble, and a bubble shrunk to a
single slot forces that slot to 1 (which may cascade further through
complement slots).  Rows are validated only by the public constructors and
by ``parse_rows``.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Iterable, Iterator, Sequence

ZERO, ONE, TWO = 0, 1, 2
_B = 3  # slot values >= _B are bubble labels; the views label bubble k as _B + k


class EmptyRowError(Exception):
    """Raised when pinned constraints contradict: the row denotes no bitstring."""


class PurityError(ValueError):
    """Raised when an operation that requires a purified row gets an unpurified one."""


def pos_slot(var: int) -> int:
    return 2 * (var - 1)


def neg_slot(var: int) -> int:
    return 2 * (var - 1) + 1


def slot_of_lit(lit: int) -> int:
    return 2 * lit - 2 if lit > 0 else -2 * lit - 1


def lit_of_slot(slot: int) -> int:
    return -slot_var(slot) if slot & 1 else slot_var(slot)


def slot_var(slot: int) -> int:
    return slot // 2 + 1


def settles(ones: int, bubbles: Iterable[int], mask: int) -> bool:
    """True when every member of an e-row sets some slot of ``mask`` to 1.

    ``ones`` is the row's mask of slots holding 1 and ``bubbles`` holds one
    slot mask per bubble: a slot of ``mask`` holds 1, or a bubble lies
    inside ``mask`` (some slot of every bubble carries a 1).
    """
    if ones & mask:
        return True
    for b in bubbles:
        if not b & ~mask:
            return True
    return False


# ---------------------------------------------------------------------------
# 012-rows


@dataclass(frozen=True, init=False, repr=False)
class Row012:
    """A subcube of {0,1}^w: each variable fixed to 0 or 1, or free (2).

    The row is two disjoint variable masks, bit v-1 for variable v, the
    layout of ``Clause.masks`` and of the solver's assignment: ``ones``
    holds the variables fixed to 1 and ``zeros`` those fixed to 0; every
    other variable below ``width`` is a don't-care.  Pinning a variable,
    the member test ``contains`` and the clause tests of ``wildsat.sat``
    are a few AND/OR/popcount steps on them.  The driver and ``RowList``
    hold only the masks; a row is built for a consumer that reads one.

    ``Row012(symbols)`` takes one 0/1/2 per variable and validates every
    symbol in ``__post_init__``.  Sons come from ``_row012``, which checks
    nothing: ``with_value`` checks only its own ``var`` and ``value``, and
    the other operations combine masks of valid rows.  ``symbols`` is a
    view derived from the masks on each access; nothing on the enumeration
    path reads it.  Rows are frozen slotted dataclasses whose fields are
    the masks, so equal masks make equal rows.
    """

    __slots__ = ("width", "ones", "zeros")  # not slots=True, which breaks frozen setattr on 3.11
    width: int
    ones: int
    zeros: int

    def __init__(self, symbols: Iterable[int]) -> None:
        # hand-written, as InitVars would shadow the views; __post_init__
        # is a class attribute, so a probe that replaces it sees every
        # checked construction
        self.__post_init__(tuple(symbols))

    def __post_init__(self, symbols: tuple[int, ...]) -> None:
        ones = zeros = 0
        bit = 1
        for s in symbols:
            if not _is_symbol(s):
                raise ValueError("row symbols must be 0, 1 or 2")
            if s == ONE:
                ones |= bit
            elif s == ZERO:
                zeros |= bit
            bit <<= 1
        _set_width(self, len(symbols))
        _set_ones(self, ones)
        _set_zeros(self, zeros)

    @classmethod
    def full(cls, width: int) -> "Row012":
        if width < 0:
            raise ValueError("width must be non-negative")
        return _row012(width, 0, 0)

    @property
    def symbols(self) -> tuple[int, ...]:
        """One 0/1/2 per variable, derived from the masks."""
        return tuple(map(int, str(self)))

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
        if not _is_symbol(value):
            raise ValueError("row symbols must be 0, 1 or 2")
        bit = 1 << (var - 1)
        ones, zeros = self.ones & ~bit, self.zeros & ~bit
        if value == ONE:
            ones |= bit
        elif value == ZERO:
            zeros |= bit
        return _row012(self.width, ones, zeros)

    def contains(self, member: Sequence[int] | int) -> bool:
        """True when the bitstring ``member`` belongs to the row.

        The member is one 0/1 per variable, or a variable mask (bit i for
        variable i+1), as the solver's models are: the test is then two
        ANDs, the driver's hint test.
        """
        if not isinstance(member, int) or member >> self.width:
            member = _member_mask(member, self.width)
        return not member & self.zeros and member & self.ones == self.ones

    def members(self) -> Iterator[tuple[int, ...]]:
        """All bitstrings of the subcube, in lexicographic order."""
        free = [i for i, s in enumerate(self.symbols) if s == TWO]
        base = list(self.symbols)
        for bits in itertools.product((0, 1), repeat=len(free)):
            for i, b in zip(free, bits):
                base[i] = b
            yield tuple(base)

    def __repr__(self) -> str:
        return f"Row012(symbols={self.symbols!r})"

    def __reduce__(self):
        return Row012, (self.symbols,)

    def __str__(self) -> str:
        return _row_text(self.width, self.ones, self.zeros)[::2]


_set_width = Row012.width.__set__
_set_ones = Row012.ones.__set__
_set_zeros = Row012.zeros.__set__
_BITS = bytes.maketrans(b"\x00\x01", b"01")


def _is_symbol(s: object) -> bool:
    """True for an int 0, 1 or 2; a bool or a float equal to one is none."""
    return isinstance(s, int) and not isinstance(s, bool) and ZERO <= s <= TWO


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


def _row_text(w: int, ones: int, zeros: int) -> str:
    """A 012-row's symbols separated by spaces, read off its masks four
    variables at a time; the text is cut off at the row's width."""
    parts = []
    for _ in range((w + 3) // 4):
        parts.append(_CHUNK_TEXTS[(ones & 15) | (zeros & 15) << 4])
        ones >>= 4
        zeros >>= 4
    return " ".join(parts)[: 2 * w - 1]


def _pack(u: Sequence[int]) -> int:
    """A 0/1 sequence as a variable mask: bit i is u[i]."""
    return int(bytes(u[::-1]).translate(_BITS), 2) if u else 0


def _member_mask(member: Sequence[int] | int, width: int) -> int:
    """A bitstring of ``width`` variables, given as 0/1 values, as a
    variable mask; ``contains`` passes an int only when it is too wide."""
    if isinstance(member, int):
        raise ValueError("member mask does not fit the row width")
    if len(member) != width:
        raise ValueError("bitstring length does not match row width")
    return _pack(member)


# ---------------------------------------------------------------------------
# 012e-rows


@dataclass(frozen=True, init=False, repr=False)
class Row012e:
    """A row over the 2w literal slots, with don't-cares and e-bubbles.

    The row is its ``width``, ``ones``, the mask of the slots holding 1 (bit
    s for slot s), and ``bubble_masks``, one slot mask per bubble, ordered
    by lowest bit.  A slot holds 0 when its mate holds 1, and 2 when it is
    neither fixed nor bubbled.  Rows are frozen slotted dataclasses whose
    fields are these masks, so equal rows compare equal regardless of
    construction history.

    ``Row012e(width, slots)`` takes the per-slot view: ``slots[s]`` is 0, 1,
    2 or a bubble label, any int >= 3, and the slots sharing a label form
    one bubble.  Labels are only names; the ``slots`` view numbers the
    bubbles 3, 4, ... in mask order.  It validates in ``__post_init__``.
    Sons come from ``_row012e``, which checks nothing: every operation
    combines the masks of valid rows through the pin fixpoint ``_pin``.
    ``slots`` and ``bubbles`` are views derived from the masks on each
    access; the driver and ``RowList`` hold only the masks.
    """

    __slots__ = ("width", "ones", "bubble_masks")  # not slots=True, which breaks frozen setattr on 3.11
    width: int
    ones: int
    bubble_masks: tuple[int, ...]

    def __init__(self, width: int, slots: Sequence[int]) -> None:
        # hand-written, as InitVars would shadow the views; __post_init__
        # is a class attribute, so a probe that replaces it sees every
        # checked construction
        self.__post_init__(width, tuple(slots))

    def __post_init__(self, width: int, slots: tuple[int, ...]) -> None:
        if len(slots) != 2 * width:
            raise ValueError("slot vector must have length 2w")
        masks: dict[int, int] = {}  # the slots holding each value
        for s, v in enumerate(slots):
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise ValueError("slot values must be 0, 1, 2 or a bubble label >= 3")
            masks[v] = masks.get(v, 0) | 1 << s
        zeros, ones, _ = (masks.pop(v, 0) for v in (ZERO, ONE, TWO))
        if mismatch := _mates(ones, width) ^ zeros:
            var = slot_var((mismatch & -mismatch).bit_length() - 1)
            raise ValueError(f"inconsistent slot pair for variable {var}")
        for b in masks.values():
            if not b & (b - 1):
                raise ValueError("bubbles must cover at least two slots")
            if b & b >> 1 & _evens(width):
                raise ValueError("a bubble may not cover both slots of a variable")
        _set_e_width(self, width)
        _set_e_ones(self, ones)
        _set_e_masks(self, tuple(sorted(masks.values(), key=lambda b: b & -b)))

    @property
    def slots(self) -> tuple[int, ...]:
        """One 0/1/2/3+k per slot, derived from the masks."""
        slots = [TWO] * (2 * self.width)
        for s in _slots_of(self.ones):
            slots[s], slots[s ^ 1] = ONE, ZERO
        for k, b in enumerate(self.bubble_masks):
            for s in _slots_of(b):
                slots[s] = _B + k
        return tuple(slots)

    @property
    def bubbles(self) -> tuple[tuple[int, ...], ...]:
        """Each bubble's sorted slots, derived from the masks."""
        return tuple(tuple(_slots_of(b)) for b in self.bubble_masks)

    @property
    def zeros(self) -> int:
        """Mask of the slots holding 0: the mates of the 1-slots."""
        return _mates(self.ones, self.width)

    @classmethod
    def full(cls, width: int) -> "Row012e":
        if width < 0:
            raise ValueError("width must be non-negative")
        return cls(width, (TWO,) * (2 * width))

    def bad_pairs(self) -> tuple[int, ...]:
        """Variables whose two slots are covered by distinct bubbles, in
        increasing order (``purify`` instantiates them in this order), as
        ``_census`` finds them."""
        return tuple(slot_var(s) for s in _slots_of(_census(_evens(self.width), self.ones, self.bubble_masks)[2]))

    def is_purified(self) -> bool:
        return not _census(_evens(self.width), self.ones, self.bubble_masks)[2]

    @property
    def free_count(self) -> int:
        """Number of variables with both slots at don't-care."""
        return _census(_evens(self.width), self.ones, self.bubble_masks)[1]

    def condense(self) -> Row012:
        """Project a bubble-free row onto the w variable positions."""
        if self.bubble_masks:
            raise ValueError("cannot condense a row that still has bubbles")
        return _condense(self.width, self.ones)

    def contains(self, member: Sequence[int] | int) -> bool:
        """True when the bitstring ``member``, one 0/1 per variable or a
        variable mask, belongs to the row.

        The member's true literal slots are its 1-variables' positive slots
        and its 0-variables' negative ones: they must hold every 1-slot and
        meet every bubble.
        """
        if not isinstance(member, int) or member >> self.width:
            member = _member_mask(member, self.width)
        true = _spread(member) | _spread(((1 << self.width) - 1) ^ member) << 1
        return not self.ones & ~true and all(b & true for b in self.bubble_masks)

    def members(self) -> Iterator[tuple[int, ...]]:
        for piece in purify(self):
            for cube in expand_to_012(piece):
                yield from cube.members()

    def __repr__(self) -> str:
        return f"Row012e(width={self.width!r}, slots={self.slots!r})"

    def __reduce__(self):
        return Row012e, (self.width, self.slots)

    def __str__(self) -> str:
        return " ".join(f"e{v - _B + 1}" if v >= _B else str(v) for v in self.slots)


_set_e_width = Row012e.width.__set__
_set_e_ones = Row012e.ones.__set__
_set_e_masks = Row012e.bubble_masks.__set__
_SPREAD = {ord("0"): "00", ord("1"): "01"}


def _row012e(width: int, ones: int, bubbles: Sequence[int]) -> Row012e:
    """A row from valid masks, built without checks; the bubbles are put in
    order of their lowest bit."""
    row = object.__new__(Row012e)
    _set_e_width(row, width)
    _set_e_ones(row, ones)
    _set_e_masks(row, _in_order(bubbles))
    return row


def _row(width: int, ones: int, rest: int | Sequence[int]) -> Row012 | Row012e:
    """The row whose ``_masks`` these are, built without checks."""
    return _row012(width, ones, rest) if type(rest) is int else _row012e(width, ones, rest)


def _masks(row: Row012 | Row012e) -> tuple:
    """A row's masks: ``(ones, zeros)``, or an e-row's ``(ones, bubbles)``."""
    return (row.ones, row.zeros) if isinstance(row, Row012) else (row.ones, row.bubble_masks)


def _in_order(bubbles: Sequence[int]) -> tuple[int, ...]:
    """The bubble masks as a tuple in order of their lowest bit."""
    return tuple(sorted(bubbles, key=lambda b: b & -b)) if len(bubbles) > 1 else tuple(bubbles)


def _slots_of(mask: int) -> Iterator[int]:
    """The set bits of a mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@cache
def _evens(width: int) -> int:
    """Mask of the positive slots of ``width`` variables."""
    return ((1 << 2 * width) - 1) // 3


def _mates(mask: int, width: int) -> int:
    """The slot mask with every slot swapped for its mate."""
    even = _evens(width)
    return (mask & even) << 1 | (mask >> 1) & even


def _union(masks: Iterable[int]) -> int:
    bub = 0
    for b in masks:
        bub |= b
    return bub


def _bit_index(masks: Iterable[int], nbits: int) -> list[int]:
    """``index[b]`` is the set of the masks holding bit b, as a mask with
    bit i for the i-th mask.  Every mask must lie below ``nbits``.  The
    index is the transpose of the bit matrix whose rows are the masks, last
    mask first and bit 0 last, so that each column reads as one int."""
    spec = f"0{nbits}b"
    rows = [format(m, spec) for m in masks][::-1]
    if not (rows and nbits):  # no mask gives no column, and 0 formats as "0"
        return [0] * nbits
    return [int("".join(column), 2) for column in zip(*rows)][::-1]


def _gather(index: list[int], mask: int) -> int:
    """The masks of a ``_bit_index`` that hold any bit of ``mask``."""
    out = 0
    while mask:  # _slots_of inlined: the generator costs more on this hot path
        low = mask & -mask
        out |= index[low.bit_length() - 1]
        mask ^= low
    return out


def _census(even: int, ones: int, bubbles: Iterable[int]) -> tuple[int, int, int]:
    """``(members, free, bad)`` of an e-row's masks, from one walk over its
    bubbles; ``even`` is ``_evens`` of the row's width, which the callers
    hoist out of their loops.  ``members`` counts a purified row's
    bitstrings: (2^len - 1) per bubble, 2 per free variable.  ``free`` is
    the number of variables with no 1-slot and no bubbled slot.  ``bad``
    holds the positive slots of the bad pairs, the variables whose two
    slots are both bubbled: a bubble never covers both slots of one
    variable, so they lie in distinct bubbles."""
    n, bub = 1, 0
    for b in bubbles:
        n *= (1 << b.bit_count()) - 1
        bub |= b
    fixed = ones | bub
    free = (even & ~(fixed | fixed >> 1)).bit_count()
    return n << free, free, bub & bub >> 1 & even


def _spread(mask: int) -> int:
    """A variable mask as the mask of the variables' positive slots."""
    return int(bin(mask)[2:].translate(_SPREAD), 2)


def _var_masks(width: int, slots: int) -> tuple[int, int]:
    """The (pos, neg) variable masks of a slot mask: the variables of its
    positive slots and those of its negative slots."""
    text = format(slots, f"0{2 * width}b")  # slot 2w-1 first
    return int(text[1::2] or "0", 2), int(text[::2], 2)


def _condense(width: int, ones: int) -> Row012:
    """The 012-row of a bubble-free e-row's 1-slots: a 1 on a positive slot
    fixes its variable to 1, on a negative slot to 0."""
    return _row012(width, *_var_masks(width, ones))


def _pin(width: int, ones: int, bubbles: Sequence[int], new: int) -> tuple[int, Sequence[int]]:
    """Pin the slots of ``new`` to 1 and propagate, on masks.

    Pinning a slot to 0 is pinning its mate to 1.  Each round fixes the
    mates of the 1-slots to 0, drops the bubbles that hold a 1, removes the
    0-slots from the others, and pins a bubble left with one slot to 1 in
    the next round.  Raises EmptyRowError when a bubble is left empty or a
    slot and its mate both hold 1.  This is unit propagation, so the result
    does not depend on the order of the pins.  The bubbles come back in no
    particular order, as a new list; ``bubbles`` is read, never changed or
    copied, and with ``new == 0`` it comes back as it was passed.
    """
    even = _evens(width)
    while new:
        ones |= new
        zeros = (ones & even) << 1 | ones >> 1 & even
        if ones & zeros:
            raise EmptyRowError("a slot and its mate both pinned to 1")
        new = 0
        kept = []
        for b in bubbles:
            if b & ones:
                continue
            b &= ~zeros
            if b & (b - 1):
                kept.append(b)
            elif b:
                new |= b
            else:
                raise EmptyRowError("all slots of a bubble pinned to 0")
        bubbles = kept
    return ones, bubbles


def purify(row: Row012e) -> list[Row012e]:
    """Split a row into disjoint purified rows covering the same bitstrings.

    Every bad pair is instantiated both ways (value 1 first, variables in
    increasing order); instantiations that contradict are dropped.  At
    least one row survives.  The pieces are built from the masks
    ``_purify`` answers.
    """
    return [_row012e(row.width, *piece) for piece in _purify(row.width, row.ones, row.bubble_masks)]


def _purify(width: int, ones: int, bubbles: Sequence[int]) -> list[tuple[int, tuple[int, ...]]]:
    """``purify`` on an e-row's masks, answered as masks: ``(ones,
    bubbles)`` per piece, the bubbles a tuple in order of their lowest bit;
    the row's own masks when it has no bad pair.

    A depth-first split pins one bad pair's variable per level.  Bubbles
    are disjoint and hold no fixed slot, so pinning a slot to 1 drops the
    bubble holding it and shrinks the one holding its mate; ``_pin`` runs
    only when that bubble is left with one slot.  That cascade fixes one
    free slot per round, so it never contradicts: a prefix is dropped, with
    its subtree, only when its next variable is already fixed the other
    way.  Unit propagation is order-free, so the pieces and their order are
    those of pinning each instantiation at once, in ``itertools.product``
    order.
    """
    bub = _union(bubbles)
    bad = bub & bub >> 1 & _evens(width)
    if not bad:
        return [(ones, _in_order(bubbles))]
    bad, out = list(_slots_of(bad)), []
    stack = [(0, ones, bubbles)]
    while stack:
        i, ones, bubbles = stack.pop()
        if i == len(bad):
            out.append((ones, _in_order(bubbles)))
            continue
        s = bad[i]
        for bit, mate in ((2 << s, 1 << s), (1 << s, 2 << s)):  # value 0 pushed first, so value 1 pops first
            if ones & bit:
                stack.append((i + 1, ones, bubbles))
                continue
            if ones & mate:
                continue
            kept, rest = [], 0
            for b in bubbles:
                if b & bit:
                    continue
                if b & mate:
                    b ^= mate
                    if not b & (b - 1):
                        rest = b
                        continue
                kept.append(b)
            stack.append((i + 1, *_pin(width, ones | bit, kept, rest)) if rest else (i + 1, ones | bit, kept))
    if not out:
        raise RuntimeError("purification of a nonempty row produced nothing")
    return out


def expand_to_012(row: Row012e) -> list[Row012]:
    """Multiply out the bubbles of a purified row into plain 012-rows.

    Each bubble of length n contributes the n-line triangular staircase
    (first slot 1; first 0 and second 1; and so on), so the output has
    exactly the product of the bubble lengths many rows.  In a purified row
    the mates of bubble slots are free, so each step only sets 1-slots.
    """
    if not row.is_purified():
        raise PurityError("expand_to_012 requires a purified row")
    stairs = []
    for b in row.bubble_masks:
        steps, zeros = [], 0
        for s in _slots_of(b):
            steps.append(zeros | 1 << s)
            zeros |= 1 << (s ^ 1)
        stairs.append(steps)
    w, ones = row.width, row.ones
    return [_condense(w, ones | _union(choice)) for choice in itertools.product(*stairs)]


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
    the slots.  The work is done on masks by ``impose_masks``, whose sons
    this builds as rows.  Raises ValueError for a slot outside 0..2w-1.
    """
    w = row.width
    top, mask = 2 * w, 0
    for s in slots:
        if not 0 <= s < top:
            raise ValueError("slot out of range")
        mask |= 1 << s
    sons = impose_masks(w, row.ones, row.bubble_masks, slots, mask)
    if sons is None:
        return [row]
    return [_row012e(w, ones, bubbles) for ones, bubbles in sons]


def impose_masks(
    width: int, ones: int, bubbles: Sequence[int], slots: Sequence[int], mask: int
) -> list[tuple[int, Sequence[int]]] | None:
    """``impose_on_slots`` on an e-row's masks: the sons as (ones, bubbles)
    pairs, their bubbles in no particular order, or None when the row
    already settles the slots.  ``mask`` is the slot mask of ``slots``; the
    caller has checked that they lie in 0..2w-1, as ``impose_on_slots``
    and ``clausewise_e_split`` do and as a ``Cnf``'s clauses do by
    construction.

    The remainder is a pair of masks carried from column to column, with
    ``bub``, the union of its bubbles, which tells a held column from a
    fresh one.  Bubbles are disjoint and hold neither a fixed slot nor both
    slots of a variable, so one walk over the bubbles per column finds
    everything the column changes: the son keeps every bubble but
    ``held``, and a one-slot son pins the column, which shrinks only the
    bubble holding its mate; the remainder pins the column's mates to 1,
    which drops the bubbles they hit, and the column to 0, which shrinks
    only ``held``, to ``held & ~mask``.  That is never empty, since a
    bubble inside the listed slots would settle them.  ``_pin`` runs only
    where a bubble shrinks to one slot, and the remainder then takes the
    ``settles`` test; otherwise it settles exactly when a mate of the
    column is listed.
    """
    if ones & mask:
        return None
    bub = 0
    for b in bubbles:  # settles(ones, bubbles, mask), which also takes the union
        if not b & ~mask:
            return None
        bub |= b
    even = _evens(width)
    live = mask & ~(ones | (ones & even) << 1 | ones >> 1 & even)
    sons: list[tuple[int, Sequence[int]]] = []
    while live:
        for first in slots:
            if live >> first & 1:
                break
        held = 0
        if bub >> first & 1:
            for held in bubbles:
                if held >> first & 1:
                    break
            column = held & mask
        else:
            column = live & ~bub
        mates = (column & even) << 1 | column >> 1 & even
        kept, hits = [], []  # the bubbles but held that no mate hits, and those it hits
        for b in bubbles:
            if b & mates:
                hits.append(b)
            elif b != held:
                kept.append(b)
        if column & (column - 1):
            son = kept + hits
            if not column & mates:  # a column with a variable's two slots adds no bubble
                son.append(column)
            sons.append((ones, son))
        elif not hits:
            sons.append((ones | column, kept[:]))
        elif (b := hits[0] & ~mates) & (b - 1):
            sons.append((ones | column, [*kept, b]))
        else:
            try:
                sons.append(_pin(width, ones | column, kept, b))
            except EmptyRowError:
                pass
        if column & mates:
            break  # the remainder sets a variable's two slots to 0: it is empty
        ones |= mates
        bubbles, rest = kept, held & ~mask
        if rest & (rest - 1):
            kept.append(rest)
        elif rest:  # held is left with one slot, which cascades
            try:
                ones, bubbles = _pin(width, ones, kept, rest)
            except EmptyRowError:
                break
            if settles(ones, bubbles, mask):
                sons.append((ones, bubbles))
                break
            live = mask & ~(ones | (ones & even) << 1 | ones >> 1 & even)
            bub = _union(bubbles)
            continue
        if mates & mask:
            sons.append((ones, bubbles))
            break
        live &= ~(column | mates)
        bub ^= held ^ rest
        for b in hits:
            bub ^= b
    return sons


def intersection_card_ie(r: Row012e, rho: Row012e) -> int:
    """Cardinality of the intersection of two purified rows, counted by
    ``_intersection_card`` on their masks.  Raises PurityError when either
    row has a bad pair and ValueError when their widths differ."""
    if not (r.is_purified() and rho.is_purified()):
        raise PurityError("intersection_card_ie requires purified rows")
    if r.width != rho.width:
        raise ValueError("row widths differ")
    return _intersection_card(r.width, r.ones, r.bubble_masks, rho.ones, rho.bubble_masks)


def _intersection_card(
    width: int, ones_p: int, bubbles_p: Sequence[int], ones_q: int, bubbles_q: Sequence[int]
) -> int:
    """``intersection_card_ie`` on the masks of two purified rows p and q,
    which it does not check.

    First a reject on the masks: the result is 0 when a slot holds 1 in one
    row and 0 in the other, or when a bubble of either row lies inside the
    other row's 0-slots.  Otherwise q's 1-slots are pinned into p, one
    ``_pin`` unless p already holds them, and inclusion-exclusion runs over
    the bubbles of q that the pinned p leaves open: each term pins a subset
    of them entirely to 0, one ``_pin`` each, and takes the purified-row
    cardinality of the masks.  A term that pins to 0 a bubble the pinned p
    ``settles`` would clash or empty a bubble, so it is 0 and skipped; when
    p settles every bubble of q, p lies inside q and the sum is p's own
    cardinality.  Emptiness that shows only after cascades is left to the
    sum, which comes to 0.
    """
    even = _evens(width)
    zeros_q = (ones_q & even) << 1 | ones_q >> 1 & even
    if ones_p & zeros_q:
        return 0
    for b in bubbles_p:
        if b & zeros_q == b:
            return 0
    zeros_p = (ones_p & even) << 1 | ones_p >> 1 & even
    for b in bubbles_q:
        if b & zeros_p == b:
            return 0
    ones, bubbles = ones_p, bubbles_p
    if ones_q & ~ones_p:
        try:
            ones, bubbles = _pin(width, ones_p, bubbles_p, ones_q)
        except EmptyRowError:
            return 0
    open_q = []
    for b in bubbles_q:  # the bubbles that settles(ones, bubbles, b) leaves open, inlined
        if not ones & b:
            for c in bubbles:
                if not c & ~b:
                    break
            else:
                open_q.append(b)
    if not open_q:
        return _census(even, ones, bubbles)[0]
    total = 0
    for bits in itertools.product((0, 1), repeat=len(open_q)):
        violated = _union(b for b, v in zip(open_q, bits) if v)
        try:
            term = _census(even, *_pin(width, ones, bubbles, _mates(violated, width)))[0]
        except EmptyRowError:
            continue
        total += -term if sum(bits) % 2 else term
    return total


def _totals(width: int, masks: Iterable[tuple]) -> tuple[int, int]:
    """The models and the free variables of a list's rows, each summed in
    one walk over their masks.  An e-row with a bad pair counts the models
    of its ``_purify`` pieces and its own free variables."""
    models = free = 0
    even = _evens(width)
    for ones, rest in masks:
        if type(rest) is int:
            f = width - (ones | rest).bit_count()
            models += 1 << f
        else:
            n, f, bad = _census(even, ones, rest)
            models += sum(_census(even, *p)[0] for p in _purify(width, ones, rest)) if bad else n
        free += f
    return models, free


# ---------------------------------------------------------------------------
# Row lists


@dataclass
class RunStats:
    """Machine-readable statistics of one enumeration run: every number the
    command line reports.  ``prob`` is the paper's finality probability
    ``prob_final`` at the run's ``gamma_avg``.  ``solver_calls`` counts the
    searches the driver makes, plus the sons that var-012's walk refutes
    under a bound k without searching them (see ``engine._drive``).
    ``decisions``, ``propagations`` and ``conflicts`` are the built-in
    solver's counters, summed over the run's searches under policy solver
    and over the k-searches of ``CardinalityFilter``; the ``sat`` functions
    that take ``stats`` count into a ``RunStats``.  ``weight_pruned`` counts the
    candidates that a filter's ``admit`` rejected as a screen (any filter
    that is not exact), and ``weight_discards`` the subrows of final rows
    that a filter's ``refine_final`` dropped.  ``hint_hits`` (the sons that
    took their parent's witness in place of a search) and ``pops`` (the
    entries the driver popped, one per ``on_pop`` call) are the driver's
    counts, which the command line does not print."""

    method: str = ""
    policy: str = ""
    rows: int = 0
    models: int = 0
    gamma_avg: float = 0.0
    prob: float = 0.0
    time_s: float = 0.0
    harmful_deletions: int = 0
    weight_pruned: int = 0
    weight_discards: int = 0
    solver_calls: int = 0
    decisions: int = 0
    propagations: int = 0
    conflicts: int = 0
    hint_hits: int = 0
    pops: int = 0


@dataclass(frozen=True, init=False)
class RowList:
    """An ordered, pairwise-disjoint collection of rows over one width,
    held as their masks: ``(ones, zeros)`` for a 012-row, ``(ones,
    bubbles)`` for an e-row, its bubbles a tuple in order of their lowest
    bit.  ``RowList(width, rows, stats)`` reads the rows' masks once and
    raises ValueError for a row of another width; ``_row_list`` takes
    masks.  ``rows`` builds the rows on its first read and keeps them."""

    width: int
    masks: tuple
    stats: RunStats | None

    def __init__(self, width: int, rows: Iterable[Row012 | Row012e] = (), stats: RunStats | None = None) -> None:
        rows = tuple(rows)
        if any(r.width != width for r in rows):
            raise ValueError("row widths differ")
        vars(self).update(width=width, masks=tuple(map(_masks, rows)), stats=stats, rows=rows)

    @cached_property
    def rows(self) -> tuple:
        """The rows, built from the masks on the first read and kept."""
        return tuple(_row(self.width, *entry) for entry in self.masks)

    def __len__(self) -> int:
        return len(self.masks)

    def __iter__(self):
        return iter(self.rows)

    def total_models(self) -> int:
        return _totals(self.width, self.masks)[0]

    def gamma_avg(self) -> float:
        """Mean number of free variables per row (don't-care pairs for e-rows)."""
        return _totals(self.width, self.masks)[1] / len(self) if self.masks else 0.0


def _row_list(width: int, masks: tuple, stats: RunStats | None = None) -> RowList:
    """A list from masks of its width, built without checks."""
    out = object.__new__(RowList)
    vars(out).update(width=width, masks=masks, stats=stats)
    return out


def member_complement(rows: RowList) -> RowList:
    """Swap fixed 0s and 1s in every row; don't-cares are untouched.

    Maps an enumeration of a model set to one of its member-wise complement
    (every member bitwise flipped).
    """
    masks = rows.masks
    if any(type(zeros) is not int for _, zeros in masks):
        raise TypeError("member_complement is defined on 012-rows")
    return _row_list(rows.width, tuple((zeros, ones) for ones, zeros in masks))


# ---------------------------------------------------------------------------
# Row list text format
#
# One row per line, w whitespace-separated tokens: 0, 1, 2, eK (bubble K on
# the positive slot) or nK (bubble K on the negative slot).  Bubble numbers
# are per row.  A header line "rows w=<w> n=<count>" precedes the rows.


# the text of four variables, indexed by the eight slot bits of their
# 1-slots, two per variable from the lowest: 2 with neither slot, 1 with the
# positive one, 0 with the negative one (a row never holds both); product
# varies its last item fastest, hence the reversal
_SLOT_TEXTS = [" ".join(t[::-1]) for t in itertools.product("2101", repeat=4)]


def format_rows(rows: RowList) -> str:
    """The row list as text, read off its masks one column of four
    variables at a time: a 012-row's column is a ``_CHUNK_TEXTS`` entry and
    an e-row's one of its 1-slots' ``_SLOT_TEXTS``; the columns are joined
    row by row and cut at the width.  Then the bubbles of each e-row that
    has some write their eK/nK tokens.  Raises PurityError for an e-row
    with bad pairs; the widths were checked when the list was built."""
    w, even, masks = rows.width, _evens(rows.width), rows.masks
    columns = [
        [
            _CHUNK_TEXTS[ones >> c & 15 | (rest >> c & 15) << 4] if type(rest) is int else _SLOT_TEXTS[ones >> 2 * c & 255]
            for ones, rest in masks
        ]
        for c in range(0, w, 4)
    ]
    cut = 2 * w - 1
    lines = [line[:cut] for line in map(" ".join, zip(*columns))] if w else [""] * len(masks)
    for i, (_, rest) in enumerate(masks):
        if type(rest) is int or not rest:
            continue
        toks, bub = lines[i].split(" "), 0
        for k, b in enumerate(rest, 1):
            bub |= b
            e, n = f"e{k}", f"n{k}"
            while b:  # _slots_of inlined: the generator costs more on this hot path
                low = b & -b
                s = low.bit_length() - 1
                toks[s >> 1] = n if s & 1 else e
                b ^= low
        if bub & bub >> 1 & even:  # _census's bad pairs, on the union the loop takes
            raise PurityError("serialize purified rows only (purify first)")
        lines[i] = " ".join(toks)
    return "\n".join([f"rows w={w} n={len(masks)}", *lines]) + "\n"


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
        ones = 0
        groups: dict[str, int] = {}
        for var, t in enumerate(toks, start=1):
            if t in ("0", "1"):
                ones |= 1 << (pos_slot(var) if t == "1" else neg_slot(var))
            elif re.fullmatch(r"[en][1-9][0-9]*", t):
                slot = pos_slot(var) if t[0] == "e" else neg_slot(var)
                groups[t[1:]] = groups.get(t[1:], 0) | 1 << slot
            elif t != "2":
                raise ValueError(f"bad row token {t!r}")
        # a one-slot bubble is a fixed 1
        single = _union(b for b in groups.values() if not b & (b - 1))
        bubbles = [b for b in groups.values() if b & (b - 1)]
        rows.append(_row012e(width, *_pin(width, ones, bubbles, single)))
    if len(rows) != count:
        raise ValueError(f"header announced {count} rows, found {len(rows)}")
    return RowList(width, tuple(rows))
