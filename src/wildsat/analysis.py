"""Model-set analytics over row lists: counting, cardinality profiles,
equivalence testing."""

from __future__ import annotations

from dataclasses import dataclass

from .formulas import _check_k
from .rows import (
    Row012,
    Row012e,
    RowList,
    _bit_index,
    _card,
    _evens,
    _gather,
    _intersection_card,
    _mates,
    purify,
)
# intersection_card_ie is unused here but stays: perfbench's trace probes
# wrap this name
from .rows import intersection_card_ie


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


def _purified(rows: RowList) -> list[tuple[int, Row012e]]:
    """Purified e-row pieces tagged with their originating row index.
    Raises ValueError when a row is not as wide as its list."""
    out = []
    for i, row in enumerate(rows.rows):
        if row.width != rows.width:
            raise ValueError("row widths differ")
        if isinstance(row, Row012):
            row = Row012e.from_row012(row)
        for piece in purify(row):
            out.append((i, piece))
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


def _row_polynomial(piece: Row012e) -> list[int]:
    """Generating polynomial of a purified row: coefficient of x^k counts the
    members with k ones.

    Fixed-one variables contribute a factor x, free variables (1+x).  A
    bubble contributes its full slot-assignment product minus the all-zero
    assignment; a positive slot at 1 adds an x, a negative slot at 0 does
    (the variable is then 1), so the subtracted term is x^(negative slots).
    """
    even = _evens(piece.width)  # the positive slots
    poly = [1]
    fixed_ones = (piece.ones & even).bit_count()
    poly = _poly_mul(poly, [0] * fixed_ones + [1]) if fixed_ones else poly
    free = piece.free_count
    if free:
        poly = _poly_mul(poly, _binomials(free))
    for b in piece.bubble_masks:
        factor = _binomials(b.bit_count())
        factor[(b & ~even).bit_count()] -= 1
        poly = _poly_mul(poly, factor)
    return poly


def count_by_cardinality(rows: RowList) -> CountPolynomial:
    """Model counts split by cardinality, summed over (purified) rows."""
    w = rows.width
    coeff = [0] * (w + 1)
    for _, piece in _purified(rows):
        for k, c in enumerate(_row_polynomial(piece)):
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

    Each purified piece's masks are read once, and its cardinality comes
    from ``_card`` without a second purity test: ``purify`` output is
    purified by construction.  The second list's pieces are indexed once by
    their 1-slots.  A piece of the second list that holds 1 on a 0-slot of
    a piece of the first misses it, so only the other pieces go to
    ``_intersection_card``, in list order; a skipped pair would have added 0.
    """
    if rows_a.width != rows_b.width:
        raise ValueError("row lists have different widths")
    w = rows_a.width
    pa = [(i, p.ones, p.bubble_masks) for i, p in _purified(rows_a)]
    pb = [(q.ones, q.bubble_masks) for _, q in _purified(rows_b)]
    cards = [_card(w, ones, bubbles) for _, ones, bubbles in pa]
    na = sum(cards)
    nb = sum(_card(w, ones, bubbles) for ones, bubbles in pb)
    if na != nb:
        return EquivalenceResult(False, None, f"model counts differ: {na} != {nb}")
    one = _bit_index((ones for ones, _ in pb), 2 * w)
    every = (1 << len(pb)) - 1
    for (i, ones, bubbles), card in zip(pa, cards):
        meets = every & ~_gather(one, _mates(ones, w))
        inside = 0
        while meets:
            low = meets & -meets
            inside += _intersection_card(w, ones, bubbles, *pb[low.bit_length() - 1])
            meets ^= low
        if inside != card:
            return EquivalenceResult(
                False, i, f"row {i} has members outside the other list"
            )
    return EquivalenceResult(True, None, f"equal model sets of size {na}")
