"""Model-set analytics over row lists: counting, cardinality profiles,
equivalence testing."""

from __future__ import annotations

from dataclasses import dataclass

from .formulas import _check_k
from .rows import (
    RowList,
    _bit_index,
    _card,
    _evens,
    _gather,
    _intersection_card,
    _mates,
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
    e-row with one cut by ``_purify``.  The walk that looks for a bad pair
    also counts the row."""
    w, even, out = rows.width, _evens(rows.width), []
    for i, (ones, rest) in enumerate(rows.masks):
        if type(rest) is int:
            out.append((i, _spread(ones) | _spread(rest) << 1, (), 1 << (w - (ones | rest).bit_count())))
            continue
        n, bub = 1, 0
        for b in rest:
            n *= (1 << b.bit_count()) - 1
            bub |= b
        if bub & bub >> 1 & even:
            out.extend((i, *piece, _card(w, *piece)) for piece in _purify(w, ones, rest))
        else:  # _free_count inlined, on the union the loop takes
            out.append((i, ones, rest, n << (w - ones.bit_count() - ((bub | bub >> 1) & even).bit_count())))
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
    free = width - ones.bit_count() - sum(b.bit_count() for b in bubbles)  # one slot per set variable
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
    second list's pieces are indexed once by their 1-slots.  A piece of the
    second list that holds 1 on a 0-slot of a piece of the first misses it,
    so only the other pieces go to ``_intersection_card``, in list order; a
    skipped pair would have added 0.
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
    one = _bit_index((ones for ones, _ in masks_b), 2 * w)
    every = (1 << len(masks_b)) - 1
    for i, ones, bubbles, card in pa:
        meets = every & ~_gather(one, _mates(ones, w))
        inside = 0
        while meets:
            low = meets & -meets
            inside += _intersection_card(w, ones, bubbles, *masks_b[low.bit_length() - 1])
            meets ^= low
        if inside != card:
            return EquivalenceResult(
                False, i, f"row {i} has members outside the other list"
            )
    return EquivalenceResult(True, None, f"equal model sets of size {na}")
