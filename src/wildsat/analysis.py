"""Model-set analytics over row lists: counting, cardinality profiles,
equivalence testing."""

from __future__ import annotations

from dataclasses import dataclass

from .formulas import _check_k
from .rows import (
    RowList,
    _bit_index,
    _census,
    _evens,
    _intersection_card,
    _purify,
    _spread,
)
# intersection_card_ie and purify are unused here but stay: perfbench's
# trace probes wrap these names
from .rows import intersection_card_ie, purify


@dataclass(frozen=True)
class CountPolynomial:
    """coefficients[k] = number of models of cardinality k (length w+1)."""

    coefficients: tuple[int, ...]

    def count(self, k: int) -> int:
        """The number of models with k ones; k must be an int in 0..w."""
        _check_k(k, len(self.coefficients) - 1)
        return self.coefficients[k]

    def total(self) -> int:
        return sum(self.coefficients)

    def __str__(self) -> str:
        return "\n".join(f"{k} {c}" for k, c in enumerate(self.coefficients))


@dataclass(frozen=True)
class EquivalenceResult:
    equal: bool
    witness: int | None = None
    reason: str = ""

    def __bool__(self) -> bool:
        return self.equal


def _purified(rows: RowList) -> list[tuple[int, int, tuple[int, ...], int]]:
    """The purified pieces of a list's rows as ``(row index, ones, bubbles,
    cardinality)``: a 012-row's masks spread to slots, an e-row with no bad
    pair as it is (a ``RowList`` holds its bubbles in lowest-bit order), an
    e-row with one cut by ``_purify``.  The ``_census`` that looks for a
    bad pair also counts the row."""
    w, even, out = rows.width, _evens(rows.width), []
    for i, (ones, rest) in enumerate(rows.masks):
        if type(rest) is int:
            out.append((i, _spread(ones) | _spread(rest) << 1, (), 1 << (w - (ones | rest).bit_count())))
            continue
        n, _, bad = _census(even, ones, rest)
        if bad:
            out.extend((i, *piece, _census(even, *piece)[0]) for piece in _purify(w, ones, rest))
        else:
            out.append((i, ones, rest, n))
    return out


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _binomials(n: int) -> list[int]:
    row = [1]
    for _ in range(n):
        row = [a + b for a, b in zip([0] + row, row + [0])]
    return row


def _row_polynomial(width: int, ones: int, bubbles: tuple[int, ...]) -> list[int]:
    """Generating polynomial of a purified row's masks: coefficient of x^k
    counts the members with k ones.

    Fixed-one variables contribute a factor x, free variables (1+x).  A
    bubble contributes its full slot-assignment product minus the all-zero
    assignment; a positive slot at 1 adds an x, a negative slot at 0 does
    (the variable is then 1), so the subtracted term is x^(negative slots).
    """
    even = _evens(width)  # the positive slots
    poly = [1]
    fixed_ones = (ones & even).bit_count()
    poly = _poly_mul(poly, [0] * fixed_ones + [1]) if fixed_ones else poly
    free = _census(even, ones, bubbles)[1]
    if free:
        poly = _poly_mul(poly, _binomials(free))
    for b in bubbles:
        factor = _binomials(b.bit_count())
        factor[(b & ~even).bit_count()] -= 1
        poly = _poly_mul(poly, factor)
    return poly


def count_by_cardinality(rows: RowList) -> CountPolynomial:
    """Model counts split by cardinality, summed over (purified) rows."""
    w = rows.width
    coeff = [0] * (w + 1)
    for _, ones, bubbles, _ in _purified(rows):
        for k, c in enumerate(_row_polynomial(w, ones, bubbles)):
            coeff[k] += c
    return CountPolynomial(tuple(coeff))


def equivalent(rows_a: RowList, rows_b: RowList) -> EquivalenceResult:
    """Do two disjoint row lists describe the same model set?

    Counts are compared first (fast reject).  Then every row of the first
    list must spend its whole cardinality inside the second list, checked by
    inclusion-exclusion intersections; together with equal totals this forces
    set equality.  On failure the witnessing row index (of the first list)
    is reported.

    Both lists must be disjoint, as the engine's output always is; on
    overlapping rows the sums prove nothing: ``2 2`` against the list
    ``1 2``, ``1 2`` reads equal.

    Each list's rows are read as they are: an e-row with no bad pair is
    already purified, so only the others go through ``_purify``, and each
    piece's cardinality comes from the walk that looks for a bad pair.  The
    second list's pieces are indexed once by their 1-slots, as one table per
    byte of a slot mask: entry v is the set of pieces holding 1 on a slot of
    v.  A piece of the second list that holds 1 on a 0-slot of a piece of
    the first misses it, and a skipped pair would add 0, so only the other
    pieces are counted: two bubble-free pieces meet in the cube of their
    joint 1-slots, which ``_census`` counts, and every other pair goes to
    ``_intersection_card``.
    """
    if rows_a.width != rows_b.width:
        raise ValueError("row lists have different widths")
    w = rows_a.width
    pa, pb = _purified(rows_a), _purified(rows_b)
    na = sum(card for *_, card in pa)
    nb = sum(card for *_, card in pb)
    if na != nb:
        return EquivalenceResult(False, None, f"model counts differ: {na} != {nb}")
    masks_b = [(ones, bubbles) for _, ones, bubbles, _ in pb]
    ones_b = [ones for ones, _ in masks_b]
    one = _bit_index(ones_b, 2 * w)
    tables = []
    for j in range(0, 2 * w, 8):
        table = [0]
        for pieces in one[j : j + 8]:
            table += [t | pieces for t in table]
        tables.append(table)
    every = (1 << len(masks_b)) - 1
    plain = sum(1 << j for j, (_, bubbles) in enumerate(masks_b) if not bubbles)
    even = _evens(w)
    for i, ones, bubbles, card in pa:
        clash, mates = 0, (ones & even) << 1 | ones >> 1 & even  # _mates inlined
        for table in tables:
            clash |= table[mates & 255]
            mates >>= 8
        meets = every & ~clash
        inside = 0
        if not bubbles:  # two cubes that meet share the cube of their joint 1-slots
            cubes, meets = meets & plain, meets & ~plain
            while cubes:
                low = cubes & -cubes
                inside += _census(even, ones | ones_b[low.bit_length() - 1], ())[0]
                cubes ^= low
        while meets:
            low = meets & -meets
            inside += _intersection_card(w, ones, bubbles, *masks_b[low.bit_length() - 1])
            meets ^= low
        if inside != card:
            return EquivalenceResult(
                False, i, f"row {i} has members outside the other list"
            )
    return EquivalenceResult(True, None, f"equal model sets of size {na}")
