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

from .rows import Row012, slot_of_lit


class DimacsError(ValueError):
    """Malformed DIMACS input; carries the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class Clause:
    """A disjunction of literals.  Duplicates are dropped, order is kept."""

    lits: tuple[int, ...]

    def __post_init__(self) -> None:
        seen = []
        for lit in self.lits:
            if not isinstance(lit, int) or isinstance(lit, bool) or lit == 0:
                raise ValueError("literals are nonzero integers")
            if -lit in seen:
                raise ValueError(f"tautologous clause: {lit} and {-lit}")
            if lit not in seen:
                seen.append(lit)
        if not seen:
            raise ValueError("empty clause")
        object.__setattr__(self, "lits", tuple(seen))

    @cached_property
    def masks(self) -> tuple[int, int]:
        """(pos, neg) variable bitmasks; bit v-1 stands for variable v."""
        pos = neg = 0
        for lit in self.lits:
            if lit > 0:
                pos |= 1 << (lit - 1)
            else:
                neg |= 1 << (-lit - 1)
        return pos, neg

    @cached_property
    def slots(self) -> tuple[int, ...]:
        """The literal slots ``slot_of_lit(l)``, in literal order."""
        return tuple(map(slot_of_lit, self.lits))

    @cached_property
    def slot_mask(self) -> int:
        """Literal-slot bitmask; bit ``slot_of_lit(l)`` stands for literal l."""
        mask = 0
        for s in self.slots:
            mask |= 1 << s
        return mask

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
        clauses = tuple(
            c if isinstance(c, Clause) else Clause(tuple(c)) for c in self.clauses
        )
        object.__setattr__(self, "clauses", clauses)
        for c in clauses:
            if any(abs(l) > self.num_vars for l in c.lits):
                raise ValueError("literal outside 1..num_vars")

    @classmethod
    def _unchecked(cls, num_vars: int, clauses: tuple[Clause, ...]) -> "Cnf":
        """A Cnf over Clause objects already known to lie within 1..num_vars,
        built without re-running the validation of ``__post_init__``."""
        cnf = object.__new__(cls)
        object.__setattr__(cnf, "num_vars", num_vars)
        object.__setattr__(cnf, "clauses", clauses)
        object.__setattr__(cnf, "tautologies_dropped", 0)
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


def evaluate_dnf(dnf: Dnf, u: Sequence[int]) -> bool:
    return any(t.contains(u) for t in dnf.terms)


def parse_dimacs(text: str | bytes) -> Cnf:
    """Parse DIMACS CNF.  Tautologous clauses are dropped (the count is kept
    on the returned Cnf); duplicate literals inside a clause are merged.
    The one ``p cnf`` header comes before the first clause: a second one is
    an error, and so is a file with none, at its last line, or a clause
    count other than the header's (dropped tautologies count as written)."""
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
    return Cnf(num_vars, tuple(clauses), tautologies_dropped=tautologies)


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


def serialize_dnf(dnf: Dnf) -> str:
    return "\n".join(str(t) for t in dnf.terms) + ("\n" if dnf.terms else "")
