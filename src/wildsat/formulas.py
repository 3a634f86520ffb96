"""CNF/DNF data model, DIMACS round-tripping and direct evaluation.

Literals are DIMACS-style signed integers: +v asserts variable v, -v its
negation.  Variables are numbered 1..w.  Clause order and the literal order
inside each clause are preserved exactly as given; both matter downstream,
because clause-wise branching imposes clauses in this order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

from .rows import Row012


class DimacsError(ValueError):
    """Malformed DIMACS input; carries the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _distinct(lits: tuple) -> list[int]:
    """The distinct literals in order, checked one at a time: the first
    that is no nonzero int, or that meets its negation, raises ValueError."""
    seen = []
    for lit in lits:
        if not isinstance(lit, int) or isinstance(lit, bool) or lit == 0:
            raise ValueError("literals are nonzero integers")
        if -lit in seen:
            raise ValueError(f"tautologous clause: {lit} and {-lit}")
        if lit not in seen:
            seen.append(lit)
    if not seen:
        raise ValueError("empty clause")
    return seen


@dataclass(frozen=True, init=False)
class Clause:
    """A disjunction of literals.  Duplicates are dropped, order is kept.
    It is built with its (pos, neg) variable ``masks`` (bit v-1 for variable
    v), its literal ``slots`` in literal order and their ``slot_mask``."""

    lits: tuple[int, ...]

    def __init__(self, lits: tuple[int, ...]) -> None:
        # all but a tuple of plain ints take the checked walk: it reads an
        # iterator once, and the dict would merge True or 1.0 with an equal int
        seen = dict.fromkeys(lits) if type(lits) is tuple and set(map(type, lits)) == {int} else _distinct(lits)
        pos = neg = slot_mask = 0
        slots = []
        for lit in seen:
            if not lit or -lit in seen:
                _distinct(lits)  # raises the first error in literal order
            if lit > 0:
                pos |= 1 << lit - 1
                s = 2 * lit - 2
            else:
                neg |= 1 << -lit - 1
                s = -2 * lit - 1
            slots.append(s)
            slot_mask |= 1 << s
        vars(self).update(lits=tuple(seen), masks=(pos, neg), slots=tuple(slots), slot_mask=slot_mask)

    def __len__(self) -> int:
        return len(self.lits)

    def __iter__(self):
        return iter(self.lits)

    def __str__(self) -> str:
        return " ".join(str(l) for l in self.lits)


@dataclass(frozen=True)
class Cnf:
    """A conjunction of clauses over variables 1..num_vars."""

    num_vars: int
    clauses: tuple[Clause, ...] = ()
    # bookkeeping from parsing; not part of the formula's identity
    tautologies_dropped: int = field(default=0, compare=False, repr=False)

    def __post_init__(self) -> None:
        n = self.num_vars
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            raise ValueError("num_vars must be a non-negative integer")
        clauses = tuple(c if isinstance(c, Clause) else Clause(tuple(c)) for c in self.clauses)
        if any((pos | neg) >> n for pos, neg in (c.masks for c in clauses)):
            raise ValueError("literal outside 1..num_vars")
        object.__setattr__(self, "clauses", clauses)

    @classmethod
    def _unchecked(cls, num_vars: int, clauses: tuple[Clause, ...], tautologies_dropped: int = 0) -> "Cnf":
        """A Cnf over Clause objects already known to lie within 1..num_vars,
        built without re-running the validation of ``__post_init__``."""
        cnf = object.__new__(cls)
        vars(cnf).update(num_vars=num_vars, clauses=clauses, tautologies_dropped=tautologies_dropped)
        return cnf

    @cached_property
    def masks(self) -> tuple[tuple[int, int], ...]:
        """The clauses' (pos, neg) variable masks, in clause order."""
        return tuple(c.masks for c in self.clauses)

    @cached_property
    def slot_masks(self) -> tuple[int, ...]:
        """The clauses' literal-slot masks, in clause order."""
        return tuple(c.slot_mask for c in self.clauses)

    def is_positive(self) -> bool:
        return all(not neg for _, neg in self.masks)

    def mean_clause_len(self) -> float:
        if not self.clauses:
            return 0.0
        return sum(len(c) for c in self.clauses) / len(self.clauses)


@dataclass(frozen=True)
class Dnf:
    """A disjunction of terms; every term is a (nonempty) 012-row."""

    num_vars: int
    terms: tuple[Row012, ...] = ()

    def __post_init__(self) -> None:
        for t in self.terms:
            if t.width != self.num_vars:
                raise ValueError("term width does not match num_vars")


def weight(u: Sequence[int]) -> int:
    """Cardinality of a bitstring: its number of 1s."""
    return sum(u)


def _check_k(k: int, num_vars: int) -> None:
    """Reject a cardinality that is not an int in 0..num_vars (a bool too)."""
    if not isinstance(k, int) or isinstance(k, bool):
        raise ValueError("k must be an integer")
    if not 0 <= k <= num_vars:
        raise ValueError("k must lie in [0, num_vars]")


def evaluate(cnf: Cnf, u: Sequence[int]) -> bool:
    """True iff every clause has a literal satisfied by the bitstring."""
    if len(u) != cnf.num_vars:
        raise ValueError("bitstring length does not match num_vars")
    for clause in cnf.clauses:
        for lit in clause.lits:
            if u[abs(lit) - 1] == (1 if lit > 0 else 0):
                break
        else:
            return False
    return True


def parse_dimacs(text: str | bytes) -> Cnf:
    """Parse DIMACS CNF.  Tautologous clauses are dropped (the count is kept
    on the returned Cnf); duplicate literals inside a clause are merged.
    The one ``p cnf`` header comes before the first clause: a second one is
    an error, and so is a file with none, at its last line, or a clause
    count other than the header's (dropped tautologies count as written).
    A line that holds exactly one clause and its 0 is converted at once;
    any other line is read token by token, which names the first error."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    num_vars = None
    declared = None
    clauses: list[Clause] = []
    tautologies = 0
    pending: list[int] = []
    pending_line = 0
    lines = text.splitlines()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if num_vars is not None:
                raise DimacsError("duplicate 'p cnf' header", lineno)
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise DimacsError("malformed header (expected 'p cnf <vars> <clauses>')", lineno)
            try:
                num_vars, declared = int(parts[2]), int(parts[3])
            except ValueError:
                raise DimacsError("malformed header (non-integer fields)", lineno) from None
            if num_vars < 0 or declared < 0:
                raise DimacsError("malformed header (negative counts)", lineno)
            continue
        if num_vars is None:
            raise DimacsError("clause before 'p cnf' header", lineno)
        if not pending:  # a line of one whole clause: one conversion, one zero and one range check
            try:
                lits = list(map(int, line.split()))
                whole = lits.index(0) == len(lits) - 1 > 0  # its one 0 ends it, after a literal
            except ValueError:  # a token that is no integer, or no 0
                whole = False
            if whole and max(map(abs, lits)) <= num_vars:
                lits.pop()
                try:
                    clauses.append(Clause(tuple(lits)))
                except ValueError:
                    tautologies += 1
                continue
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError:
                raise DimacsError(f"bad literal {tok!r}", lineno) from None
            if lit == 0:
                if not pending:
                    raise DimacsError("empty clause", lineno)
                try:
                    clauses.append(Clause(tuple(pending)))
                except ValueError:
                    tautologies += 1
                pending = []
                continue
            if abs(lit) > num_vars:
                raise DimacsError(f"literal {lit} exceeds declared {num_vars} variables", lineno)
            if not pending:
                pending_line = lineno
            pending.append(lit)
    if num_vars is None:
        raise DimacsError("missing 'p cnf' header", len(lines) or 1)
    if pending:
        raise DimacsError("clause not terminated by 0", pending_line)
    found = len(clauses) + tautologies
    if found != declared:
        raise DimacsError(f"header declares {declared} clauses, found {found}", len(lines))
    return Cnf._unchecked(num_vars, tuple(clauses), tautologies)


def serialize_dimacs(cnf: Cnf) -> str:
    lines = [f"p cnf {cnf.num_vars} {len(cnf.clauses)}"]
    for clause in cnf.clauses:
        lines.append(" ".join(str(l) for l in clause.lits) + " 0")
    return "\n".join(lines) + "\n"


def parse_dnf(text: str, num_vars: int | None = None) -> Dnf:
    """Companion DNF text format: one term per line as a 012 string."""
    terms = []
    width = num_vars
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if any(ch not in "012" for ch in line):
            raise ValueError(f"line {lineno}: DNF terms are strings over 0/1/2")
        if width is None:
            width = len(line)
        elif len(line) != width:
            raise ValueError(f"line {lineno}: term width {len(line)} != {width}")
        terms.append(Row012(tuple(int(ch) for ch in line)))
    if width is None:
        raise ValueError("empty DNF input and no width given")
    return Dnf(width, tuple(terms))
