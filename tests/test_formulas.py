"""CNF model, DIMACS round-tripping, evaluation, member-wise complement."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import PHI2_DIMACS, row012
from oracle import (
    all_bitstrings,
    dnf_mask,
    evaluate_naive,
    index_of,
    random_cnf,
    ref_clause,
    ref_parse_dimacs,
    rows_mask,
)
from wildsat.formulas import (
    Clause,
    Cnf,
    DimacsError,
    Dnf,
    evaluate,
    parse_dimacs,
    parse_dnf,
    serialize_dimacs,
)
from wildsat.rows import Row012, RowList, member_complement


class TestClause:
    def test_pos_neg_views(self):
        c = Clause((3, 5, -6, -9))
        assert c.masks == (1 << 2 | 1 << 4, 1 << 5 | 1 << 8)

    def test_duplicates_merge_keeping_order(self):
        assert Clause((1, -2, 1, -2)).lits == (1, -2)

    def test_tautology_rejected(self):
        with pytest.raises(ValueError):
            Clause((1, -1, 2))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Clause(())

    def test_iteration_and_text(self):
        clause = Clause((3, -1, 3))
        assert list(clause) == [3, -1]
        assert str(clause) == "3 -1"

    def test_slot_mask(self):
        # slots x1 ~x1 x2 ~x2 ...: x1 -> 0, ~x2 -> 3, x3 -> 4
        assert Clause((1, -2, 3)).slot_mask == 0b11001

    @pytest.mark.parametrize(
        "lits, message",
        [
            # the first bad literal in literal order names the error
            ((1, -1, True), "tautologous clause: -1 and 1"),
            ((True, 1, -1), "literals are nonzero integers"),
            ((2, 0, -2), "literals are nonzero integers"),
            ((2, -2, 0), "tautologous clause: -2 and 2"),
            ((3, -1, 2, 1, 0), "tautologous clause: 1 and -1"),
            # equal to an earlier literal, yet no int
            ((1, True), "literals are nonzero integers"),
            ((1, 1.0), "literals are nonzero integers"),
            ((-1, True), "literals are nonzero integers"),
            ((), "empty clause"),
        ],
    )
    def test_the_first_error_wins(self, lits, message):
        with pytest.raises(ValueError) as err:
            Clause(lits)
        assert str(err.value) == message
        with pytest.raises(ValueError) as ref:
            ref_clause(lits)
        assert str(ref.value) == message

    @given(st.lists(st.one_of(st.integers(-6, 6), st.sampled_from([True, False, 1.0, -2.0, "1", None])), max_size=7))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_checked_walk(self, lits):
        try:
            want = ref_clause(lits)
        except ValueError as err:
            want = str(err)
        for given_as in (tuple(lits), list(lits), iter(lits)):  # any iterable, read once
            try:
                c = Clause(given_as)
            except ValueError as err:
                assert str(err) == want
                continue
            assert (c.lits, c.masks, c.slots, c.slot_mask) == want


class TestParseDimacs:
    def test_minimal(self):
        cnf = parse_dimacs("p cnf 2 1\n1 -2 0")
        assert cnf.num_vars == 2
        assert [c.lits for c in cnf.clauses] == [(1, -2)]

    def test_phi0(self):
        cnf = parse_dimacs("p cnf 9 1\n2 -6 0")
        assert cnf.num_vars == 9
        assert cnf.clauses[0].masks == (1 << 1, 1 << 5)

    def test_tautology_dropped_with_count(self):
        cnf = parse_dimacs("p cnf 3 1\n1 -1 2 0")
        assert cnf.num_vars == 3
        assert cnf.clauses == ()
        assert cnf.tautologies_dropped == 1

    def test_bytes_accepted(self):
        assert parse_dimacs(b"p cnf 1 1\n1 0\n").num_vars == 1

    def test_comments_and_blank_lines(self):
        cnf = parse_dimacs("c hi\n\np cnf 2 2\nc mid\n1 0\n2 0\n")
        assert len(cnf.clauses) == 2

    def test_clause_spanning_lines(self):
        cnf = parse_dimacs("p cnf 3 1\n1 2\n3 0\n")
        assert cnf.clauses[0].lits == (1, 2, 3)

    @pytest.mark.parametrize(
        "text,line",
        [
            ("p dnf 2 1\n1 0", 1),
            ("p cnf two 1\n1 0", 1),
            ("p cnf 2 1\n0\n", 2),
            ("p cnf 2 1\n3 0\n", 2),
            ("1 0\n", 1),
            ("p cnf 2 1\n1 2\n", 2),
            ("p cnf -1 0\n", 1),
            ("p cnf 2 1\n1 0\np cnf 5 1\n5 0\n", 3),
            ("p cnf 5 1\n5 0\np cnf 2 0\n", 3),
            ("", 1),
            ("c only\n\nc comments\n", 3),
        ],
    )
    def test_errors_name_line(self, text, line):
        with pytest.raises(DimacsError) as err:
            parse_dimacs(text)
        assert err.value.line == line
        assert f"line {line}" in str(err.value)

    @pytest.mark.parametrize(
        "text, message",
        [
            # a second header would change the width in mid-file
            ("p cnf 2 1\n1 0\np cnf 5 1\n5 0\n", "line 3: duplicate 'p cnf' header"),
            ("p cnf 5 1\n5 0\np cnf 2 0\n", "line 3: duplicate 'p cnf' header"),
            ("", "line 1: missing 'p cnf' header"),
            ("c only\nc comments", "line 2: missing 'p cnf' header"),
            # the clause count is checked at the last line; a dropped
            # tautology counts as written
            ("p cnf 2 5\n1 0", "line 2: header declares 5 clauses, found 1"),
            ("p cnf 2 1\n1 0\n2 0\nc end\n", "line 4: header declares 1 clauses, found 2"),
            ("p cnf 2 1\n1 -1 0\n2 0\n", "line 3: header declares 1 clauses, found 2"),
        ],
    )
    def test_header_errors(self, text, message):
        with pytest.raises(DimacsError) as err:
            parse_dimacs(text)
        assert str(err.value) == message


def _token(lit: int, style: int) -> str:
    """A literal as DIMACS text: plain, or with a sign int() accepts (+3, -0)."""
    if style == 1 and lit >= 0:
        return f"+{lit}"
    if style == 2 and lit == 0:
        return "-0"
    return str(lit)


def dimacs_text(seed: int) -> str:
    """DIMACS text with the shapes both parsers must agree on: comments and
    blank lines, clauses split across lines or sharing one, tautologies,
    duplicate literals, +3 and -0 tokens, out-of-range and non-integer
    tokens, and a missing, duplicate, late or wrong header; about half the
    texts parse."""
    rng = random.Random(seed)
    n = rng.randint(0, 6)
    # the literals of 1..n, and sometimes of n + 1, out of range
    lits = [v for v in range(-n - 1, n + 2) if v] if rng.random() < 0.2 else [v for v in range(-n, n + 1) if v]
    clauses = [[rng.choice(lits) for _ in range(rng.randint(1, 4))] for _ in range(rng.randint(0, 6) if lits else 0)]
    tokens = []
    for clause in clauses + [[]] * (rng.random() < 0.05):  # rarely an empty clause
        tokens += [_token(lit, rng.randrange(4)) for lit in clause]
        tokens.append(_token(0, rng.randrange(4)))
    if rng.random() < 0.1:  # a token that is no integer
        tokens.insert(rng.randint(0, len(tokens)), rng.choice(["x", "1.5", "--1", "2a", "0x1"]))
    if tokens and rng.random() < 0.05:  # an unterminated last clause
        tokens.pop()
    lines, line = [], []
    for tok in tokens:
        line.append(tok)
        if rng.random() < 0.6 and tok not in ("0", "+0", "-0") or rng.random() < 0.3:
            continue  # most lines end at a clause's 0, some hold two clauses
        lines.append(" ".join(line))
        line = []
        if rng.random() < 0.15:
            lines.append(rng.choice(["", "c a comment", "   ", "c", "\t"]))
    if line:
        lines.append(" ".join(line))
    declared = len(clauses) if rng.random() < 0.9 else rng.randint(0, 8)
    header = f"p cnf {n} {declared}"
    if rng.random() < 0.1:
        header = rng.choice([f"p cnf {n}", "p dnf 2 1", f"p cnf -1 {declared}", "p cnf x 1"])
    if rng.random() < 0.95:  # else no header
        lines.insert(0 if rng.random() < 0.9 else rng.randint(0, len(lines)), header)
        if rng.random() < 0.05:
            lines.insert(rng.randint(0, len(lines)), header)
    if rng.random() < 0.3:
        lines.insert(0, "c leading comment")
    return "\n".join(lines) + rng.choice(["", "\n"])


def _parsed(parse, text):
    """The Cnf with its dropped tautologies, or the DimacsError's text and line."""
    try:
        cnf = parse(text)
    except DimacsError as err:
        return str(err), err.line
    return cnf, cnf.tautologies_dropped


class TestParseAgainstTokenLoop:
    """``parse_dimacs`` reads a line of one whole clause in one conversion
    and every other line token by token; ``ref_parse_dimacs`` reads every
    line by tokens.  They must agree on every text."""

    @given(st.integers(0, 2**32))
    @settings(max_examples=500, deadline=None)
    def test_same_formula_or_same_error(self, seed):
        text = dimacs_text(seed)
        assert _parsed(parse_dimacs, text) == _parsed(ref_parse_dimacs, text)

    @pytest.mark.parametrize(
        "text",
        [
            "p cnf 3 2\n+1 -2 0 3 -0\n",
            "p cnf 3 1\n1 -1 2 0\n",
            "p cnf 3 1\n1 1 -2 1 0\n",
            "p cnf 3 1\n1 4 0\n",
            "p cnf 3 1\n1 x 0\n",
            "p cnf 3 1\n0 1 0\n",
            "p cnf 3 2\n1 0 2 0\n",
            "p cnf 3 1\n1 2\n3 0\n",
            "p cnf 3 1\n1 2\n-1 0\n",
            "p cnf 3 1\n1 0 2\n",
            "p cnf 3 1\n-3 0\np cnf 3 1\n",
        ],
    )
    def test_cases(self, text):
        assert _parsed(parse_dimacs, text) == _parsed(ref_parse_dimacs, text)


class TestSerializeDimacs:
    def test_single_clause(self):
        assert serialize_dimacs(Cnf(2, (Clause((1,)),))) == "p cnf 2 1\n1 0\n"

    def test_empty(self):
        assert serialize_dimacs(Cnf(4, ())) == "p cnf 4 0\n"

    def test_phi2_round_trip(self):
        cnf = parse_dimacs(PHI2_DIMACS)
        assert len(cnf.clauses) == 7
        assert parse_dimacs(serialize_dimacs(cnf)) == cnf

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_random(self, data):
        w = data.draw(st.integers(1, 8))
        h = data.draw(st.integers(0, 10))
        lam_max = min(4, w)
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        cnf = random_cnf(rng, w, h, data.draw(st.integers(1, lam_max)))
        assert parse_dimacs(serialize_dimacs(cnf)) == cnf


class TestEvaluate:
    def test_phi2_model(self, phi2):
        assert evaluate(phi2, (0, 1, 0, 1, 1))

    def test_phi2_nonmodel(self, phi2):
        # violates clause 4 (x1 or x3 or x5)
        assert not evaluate(phi2, (0, 0, 0, 0, 0))

    def test_empty_cnf_everything_models(self):
        assert evaluate(Cnf(3, ()), (0, 1, 0))

    def test_length_mismatch(self, phi2):
        with pytest.raises(ValueError):
            evaluate(phi2, (0, 1))

    def test_agreement_with_naive_scan(self):
        rng = random.Random(7)
        for _ in range(30):
            w = rng.randint(1, 8)
            cnf = random_cnf(rng, w, rng.randint(0, 12), rng.randint(1, min(3, w)))
            for u in all_bitstrings(w):
                assert evaluate(cnf, u) == evaluate_naive(cnf, u)


class TestMemberComplement:
    def test_definition_swap(self):
        out = member_complement(RowList(3, (row012("210"),)))
        assert [str(r) for r in out.rows] == ["201"]

    def test_eq1_rows(self):
        rows = RowList(9, (row012("212222222"), row012("202220222")))
        out = member_complement(rows)
        assert [str(r) for r in out.rows] == ["202222222", "212221222"]

    def test_all_twos_fixpoint(self):
        rows = RowList(4, (row012("2222"),))
        assert member_complement(rows).rows == rows.rows

    def test_involution_and_model_swap(self):
        rng = random.Random(3)
        for _ in range(25):
            w = rng.randint(1, 9)
            cnf = random_cnf(rng, w, rng.randint(0, 8), rng.randint(1, min(3, w)))
            from wildsat.engine import EngineConfig, Method, run

            rows = run(cnf, EngineConfig(method=Method.CLAUSE012))
            comp = member_complement(rows)
            assert member_complement(comp).rows == rows.rows
            # complemented rows describe the member-wise complemented set
            expected = 0
            for u in all_bitstrings(w):
                if evaluate_naive(cnf, u):
                    flipped = tuple(1 - b for b in u)
                    expected |= 1 << sum(b << i for i, b in enumerate(flipped))
            assert rows_mask(w, comp.rows) == expected


class TestDnfFormat:
    def test_round_trip(self):
        dnf = parse_dnf("212\n021\n")
        assert dnf.num_vars == 3
        assert "".join(f"{t}\n" for t in dnf.terms) == "212\n021\n"

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            parse_dnf("21\n021\n")

    def test_blank_and_comment_lines_skipped(self):
        assert parse_dnf("c two terms\n\n212\n  \nc x\n021\n") == parse_dnf("212\n021\n")

    def test_evaluate_dnf(self):
        dnf = parse_dnf("212\n021\n")
        for u in all_bitstrings(3):
            assert bool(dnf_mask(dnf) >> index_of(u) & 1) == (u[1] == 1 or (u[0], u[2]) == (0, 1))


class TestArgumentChecks:
    @pytest.mark.parametrize(
        "call, match",
        [
            (lambda: Clause((1, "2")), "nonzero integers"),
            (lambda: Cnf(-1), "non-negative"),
            (lambda: Dnf(3, (Row012.full(2),)), "term width"),
            (lambda: parse_dnf("21x\n"), "strings over 0/1/2"),
            (lambda: parse_dnf(""), "empty DNF input"),
            (lambda: Cnf(2, ((1, 3),)), "literal outside 1..num_vars"),
        ],
    )
    def test_rejected(self, call, match):
        with pytest.raises(ValueError, match=match):
            call()

    # a bool is an int in Python, but DIMACS text has no literal True
    @pytest.mark.parametrize(
        "call, match",
        [
            pytest.param(lambda: Clause((True, 2)), "nonzero integers", id="bool literal"),
            pytest.param(
                lambda: Cnf(2, ((2, False),)), "nonzero integers", id="bool literal in cnf"
            ),
            pytest.param(lambda: Cnf(2.5, ((1,),)), "non-negative integer", id="float n"),
            pytest.param(lambda: Cnf("3"), "non-negative integer", id="str n"),
            pytest.param(lambda: Cnf(True, ((1,),)), "non-negative integer", id="bool n"),
        ],
    )
    def test_rejected_non_int(self, call, match):
        with pytest.raises(ValueError, match=match):
            call()
