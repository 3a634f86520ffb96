"""Special-model-set filters: fixed cardinality, weight bound, DNF k-models,
hitting sets, and enumeration from a complement row list."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wildsat.engine
from conftest import row012
from oracle import (
    all_bitstrings,
    assert_disjoint_cover,
    cnf_mask,
    evaluate_naive,
    overlap_scan,
    random_cnf,
    random_row012,
    ref_refine_final,
    ref_weight,
    row_mask,
    rows_mask,
)
from wildsat.bench import GenSpec, gen_random_cnf
from wildsat.engine import (
    CardinalityFilter,
    ComplementFilter,
    DnfKFilter,
    EngineConfig,
    EngineObserver,
    Method,
    Policy,
    SpModFilter,
    WeightFilter,
    enumerate_dnf_k,
    enumerate_from_complement,
    enumerate_hitting_sets,
    run,
    validate_config,
)
from wildsat.formulas import Clause, Cnf, Dnf, weight
from wildsat.rows import Row012, Row012e, RowList, RunStats, _row012


@st.composite
def weight_finals(draw):
    """A width of 0 to 20, slot weights, an entry's masks and a bound from
    one below the entry's cheapest member to its dearest.  At most 10
    variables are free, which bounds the subrows the split visits."""
    w = draw(st.integers(0, 20))
    weights = draw(st.lists(st.integers(0, 4), min_size=2 * w, max_size=2 * w))
    free = sum(1 << v for v in draw(st.sets(st.integers(0, w - 1), max_size=10))) if w else 0
    ones = draw(st.integers(0, (1 << w) - 1)) & ~free
    zeros = (1 << w) - 1 ^ free ^ ones
    row = _row012(w, ones, zeros)
    bound = draw(st.integers(ref_weight(weights, row, min) - 1, ref_weight(weights, row, max)))
    return w, weights, bound, ones, zeros


def _models(cnf):
    return [u for u in all_bitstrings(cnf.num_vars) if evaluate_naive(cnf, u)]


def _masks(text: str) -> tuple[int, int]:
    """The (ones, zeros) masks a filter's hooks get for the row ``text``."""
    row = row012(text)
    return row.ones, row.zeros


def _built_for(w: int) -> list:
    """One built-in filter of each kind, built for w variables."""
    return [
        WeightFilter([1] * (2 * w), 5),
        DnfKFilter(Dnf(w, (Row012.full(w),)), 0),
        ComplementFilter(RowList(w, ())),
        CardinalityFilter(Cnf(w, ()), 0),
    ]


class _Emitted(EngineObserver):
    def __init__(self):
        self.rows, self.pops = [], []

    def on_emit(self, row):
        self.rows.append(row)

    def on_pop(self, row, *_):
        self.pops.append(row)


class TestCardinalityFilter:
    def test_k0_on_positive_cnf(self):
        cnf = Cnf(3, (Clause((1, 2)),))
        out = run(cnf, EngineConfig(method=Method.VAR012, spmod=CardinalityFilter(cnf, 0)))
        assert out.rows == ()

    def test_k_equals_w_on_empty_cnf(self):
        cnf = Cnf(4, ())
        out = run(cnf, EngineConfig(method=Method.VAR012, spmod=CardinalityFilter(cnf, 4)))
        assert [str(r) for r in out.rows] == ["1111"]

    def test_requires_varwise(self):
        cnf = Cnf(2, ())
        with pytest.raises(ValueError):
            run(cnf, EngineConfig(method=Method.CLAUSE012, spmod=CardinalityFilter(cnf, 1)))

    def test_filter_on_another_formula_rejected(self):
        cnf = Cnf(2, (Clause((1, 2)),))
        other = Cnf(2, (Clause((-1,)), Clause((-2,))))
        with pytest.raises(ValueError, match="another formula"):
            run(cnf, EngineConfig(method=Method.VAR012, spmod=CardinalityFilter(other, 0)))
        # an equal formula built separately is the run's formula
        same = Cnf(2, (Clause((1, 2)),))
        out = run(cnf, EngineConfig(method=Method.VAR012, spmod=CardinalityFilter(same, 1)))
        assert [str(r) for r in out.rows] == ["01", "10"]

    def test_random_matches_brute_force(self):
        rng = random.Random(301)
        for _ in range(60):
            w = rng.randint(1, 9)
            cnf = random_cnf(rng, w, rng.randint(0, 10), rng.randint(1, min(3, w)))
            k = rng.randint(0, w)
            out = run(cnf, EngineConfig(method=Method.VAR012, spmod=CardinalityFilter(cnf, k)))
            expected = {u for u in _models(cnf) if weight(u) == k}
            got = {r.symbols for r in out.rows}
            assert got == expected


class TestWeightFilter:
    def _weights(self, rng, w):
        return [rng.randint(0, 20) for _ in range(2 * w)]

    def test_vacuous_bound_admits_everything(self):
        cnf = Cnf(3, (Clause((1, -2)),))
        weights = list(range(1, 7))
        bound = sum(max(weights[2 * i], weights[2 * i + 1]) for i in range(3))
        filt = WeightFilter(weights, bound)
        out = run(cnf, EngineConfig(method=Method.CLAUSE012, spmod=filt))
        plain = run(cnf, EngineConfig(method=Method.CLAUSE012))
        assert rows_mask(3, out.rows) == rows_mask(3, plain.rows)
        assert out.stats.weight_pruned == 0

    def test_impossible_bound_empties_output(self):
        cnf = Cnf(2, ())
        filt = WeightFilter([5, 5, 5, 5], 9)
        out = run(cnf, EngineConfig(method=Method.CLAUSE012, spmod=filt))
        assert out.rows == ()

    def test_rejected_for_clause_e(self):
        cnf = Cnf(2, ())
        with pytest.raises(ValueError):
            run(cnf, EngineConfig(method=Method.CLAUSE_E, spmod=WeightFilter([1, 1, 1, 1], 4)))

    @pytest.mark.parametrize("num_vars", [3, 9, 17])
    def test_row_wider_than_the_weights_rejected(self, num_vars):
        # one variable short, inside the last partial byte or past a full
        # one; validate_config rejects each built-in filter of that width
        cnf = Cnf(num_vars, (Clause((1, 2)),))
        for filt in _built_for(num_vars - 1):
            with pytest.raises(ValueError, match="wider than the filter's"):
                validate_config(cnf, EngineConfig(method=Method.VAR012, spmod=filt))

    def test_row_narrower_than_the_weights_rejected(self):
        # six weights on a 2-variable run: the extra pair may not be ignored,
        # nor the third variable of any other built-in filter; the run stops
        # before its first pop
        cnf = Cnf(2, (Clause((1, 2)),))
        for filt in [WeightFilter([1, 1, 1, 1, 9, 9], 2), *_built_for(3)]:
            emitted = _Emitted()
            config = EngineConfig(method=Method.VAR012, spmod=filt, observer=emitted)
            with pytest.raises(ValueError, match="narrower than the filter's"):
                validate_config(cnf, config)
            with pytest.raises(ValueError, match="narrower than the filter's"):
                run(cnf, config)
            assert emitted.rows == emitted.pops == []

    def _brute(self, cnf, weights, bound):
        out = set()
        for u in _models(cnf):
            f = sum(
                weights[2 * i] if b else weights[2 * i + 1] for i, b in enumerate(u)
            )
            if f <= bound:
                out.add(u)
        return out

    @pytest.mark.parametrize("method", [Method.VAR012, Method.CLAUSE012])
    def test_random_matches_brute_force(self, method):
        rng = random.Random(307)
        for _ in range(50):
            w = rng.randint(1, 8)
            cnf = random_cnf(rng, w, rng.randint(0, 8), rng.randint(1, min(3, w)))
            weights = self._weights(rng, w)
            bound = rng.randint(0, sum(weights))
            filt = WeightFilter(weights, bound)
            out = run(cnf, EngineConfig(method=method, spmod=filt))
            expected = self._brute(cnf, weights, bound)
            got = set()
            for r in out.rows:
                for u in r.members():
                    assert u not in got, "overlapping members"
                    got.add(u)
            assert got == expected

    @given(weight_finals())
    @settings(max_examples=200, deadline=None)
    def test_refine_final_matches_the_row_reference(self, final):
        # the masks version keeps the same subrows, in the same order, and
        # drops as many as the row-based split it replaced
        w, weights, bound, ones, zeros = final
        kept, discards = WeightFilter(weights, bound).refine_final(ones, zeros)
        ref_kept, ref_discards = ref_refine_final(weights, bound, _row012(w, ones, zeros))
        assert kept == [(r.ones, r.zeros) for r in ref_kept]
        assert discards == ref_discards


class TestDnfK:
    def test_full_cube_term(self):
        dnf = Dnf(4, (Row012.full(4),))
        out = enumerate_dnf_k(dnf, 2)
        assert {r.symbols for r in out.rows} == {u for u in all_bitstrings(4) if weight(u) == 2}
        assert len(out.rows) == 6

    def test_two_terms_k1(self):
        dnf = Dnf(3, (row012("120"), row012("021")))
        out = enumerate_dnf_k(dnf, 1)
        assert {r.symbols for r in out.rows} == {(1, 0, 0), (0, 0, 1)}

    def test_dnf_of_another_width_rejected(self):
        # a 3-variable DNF on a 2-variable run may not emit the non-model 10,
        # nor may a 1-variable DNF read the run's first variable alone
        for dnf in (Dnf(3, (Row012((1, 2, 2)),)), Dnf(1, (Row012((1,)),))):
            emitted = _Emitted()
            config = EngineConfig(method=Method.VAR012, spmod=DnfKFilter(dnf, 1), observer=emitted)
            with pytest.raises(ValueError, match="row widths differ"):
                validate_config(Cnf(2, ()), config)
            with pytest.raises(ValueError, match="row widths differ"):
                run(Cnf(2, ()), config)
            assert emitted.rows == emitted.pops == []

    @pytest.mark.parametrize("policy", [Policy.NONE, Policy.TEST1, Policy.SOLVER])
    def test_the_filter_replaces_the_policy_and_the_model_check(self, policy):
        # an exact filter's answers stand for the run's: under any policy a
        # var-012 run emits the filter's set, with no model check on the
        # bitstrings and no harmful deletion
        dnf = Dnf(3, (row012("122"), row012("201")))
        cnf = Cnf(3, (Clause((-1,)),))
        out = run(cnf, EngineConfig(method=Method.VAR012, policy=policy, spmod=DnfKFilter(dnf, 2)))
        assert {r.symbols for r in out.rows} == {(1, 1, 0), (1, 0, 1)}
        assert out.stats.harmful_deletions == 0

    def test_random_matches_brute_force(self):
        rng = random.Random(311)
        for _ in range(60):
            w = rng.randint(1, 9)
            terms = tuple(
                Row012(tuple(rng.choice((0, 1, 2, 2)) for _ in range(w)))
                for _ in range(rng.randint(0, 5))
            )
            dnf = Dnf(w, terms)
            k = rng.randint(0, w)
            out = enumerate_dnf_k(dnf, k)
            expected = {
                u
                for u in all_bitstrings(w)
                if weight(u) == k and any(t.contains(u) for t in terms)
            }
            assert {r.symbols for r in out.rows} == expected


class TestHittingSets:
    def test_forced_pair(self):
        out = enumerate_hitting_sets([{1}, {2}], 2, 2)
        assert {r.symbols for r in out.rows} == {(1, 1)}

    def test_single_edge_k1(self):
        out = enumerate_hitting_sets([{1, 2}], 1, 2)
        assert {r.symbols for r in out.rows} == {(1, 0), (0, 1)}

    def test_empty_edge_no_hitting_set(self):
        assert enumerate_hitting_sets([{1}, set()], 1, 2).rows == ()

    def test_empty_edge_keeps_checks_and_stats(self):
        with pytest.raises(ValueError, match="k must lie"):
            enumerate_hitting_sets([[]], 99, 3)
        with pytest.raises(ValueError, match="outside"):
            enumerate_hitting_sets([[7], []], 1, 3)
        out = enumerate_hitting_sets([[1], []], 1, 3)
        assert out == RowList(3, (), RunStats(method="var-012", policy="solver"))

    def test_vertex_outside_the_range_rejected(self):
        # a negative vertex is no negated literal
        for edges in ([[1, -2]], [[0, 1]], [[3]]):
            with pytest.raises(ValueError, match="outside"):
                enumerate_hitting_sets(edges, 1, 2)

    def test_random_rank3_matches_brute_force(self):
        rng = random.Random(313)
        for _ in range(60):
            w = rng.randint(2, 9)
            edges = [
                set(rng.sample(range(1, w + 1), rng.randint(1, min(3, w))))
                for _ in range(rng.randint(1, 6))
            ]
            k = rng.randint(0, w)
            out = enumerate_hitting_sets(edges, k, w)
            expected = set()
            for u in all_bitstrings(w):
                chosen = {i + 1 for i, b in enumerate(u) if b}
                if len(chosen) == k and all(chosen & e for e in edges):
                    expected.add(u)
            assert {r.symbols for r in out.rows} == expected


class TestComplementFilter:
    def test_empty_complement_full_cube(self):
        out = enumerate_from_complement(RowList(3, ()))
        assert [str(r) for r in out.rows] == ["222"]

    def test_full_complement_empty_output(self):
        out = enumerate_from_complement(RowList(3, (Row012.full(3),)))
        assert out.rows == ()

    def test_eq1_complement_recovers_phi0(self):
        # complement of the one-clause formula: x2=0 and x6=1
        comp = RowList(9, (row012("202221222"),))
        out = enumerate_from_complement(comp)
        assert out.total_models() == 384
        full = (1 << (1 << 9)) - 1
        assert_disjoint_cover(9, out.rows, full ^ rows_mask(9, comp.rows))

    def test_proper_rows_can_be_final_early(self):
        comp = RowList(3, (row012("122"),))  # complement: x1 = 1
        out = enumerate_from_complement(comp)
        assert [str(r) for r in out.rows] == ["022"]

    def test_one_overlap_scan_per_admitted_row(self, monkeypatch):
        # admit keeps the overlap it computed for final_override, so each
        # screened row is scanned once: 951 scans for 830 pops (1,781 when
        # final_override scanned again)
        cnf = gen_random_cnf(GenSpec(12, 20, 3, seed=3))
        comp = run(cnf, EngineConfig(method=Method.CLAUSE012))
        assert len(comp) == 48
        scans = []
        overlap = ComplementFilter._overlap
        monkeypatch.setattr(
            ComplementFilter, "_overlap", lambda self, *masks: scans.append(masks) or overlap(self, *masks)
        )
        pops = []

        class Pops(EngineObserver):
            def on_pop(self, row, *_):
                pops.append(row)

        config = EngineConfig(method=Method.VAR012, spmod=ComplementFilter(comp), observer=Pops())
        out = run(Cnf(12, ()), config)
        assert len(out) == 355 and len(pops) == 830
        assert len(scans) == 951
        assert len(set(scans)) == len(scans)
        assert out.rows == enumerate_from_complement(comp).rows

    def test_final_override_of_a_row_admit_never_saw(self):
        filt = ComplementFilter(RowList(3, (row012("122"),)))
        assert filt.final_override(*_masks("022")) is True
        assert filt.final_override(*_masks("222")) is None
        assert filt.admit(*_masks("112")) is False
        assert filt.admit(*_masks("222")) is True
        assert filt.final_override(*_masks("222")) is None

    def test_overlapping_complement_rows_rejected(self):
        # 12 and 21 share the member 11, so the overlap of the full row
        # would read 2 + 2 and emit nothing, where 00 is the answer
        with pytest.raises(ValueError, match="complement rows overlap: row 1 "):
            enumerate_from_complement(RowList(2, (row012("12"), row012("21"))))
        # the pair need not be adjacent: 122 holds 102
        with pytest.raises(ValueError, match="complement rows overlap: row 1 "):
            ComplementFilter(RowList(3, (row012("102"), row012("002"), row012("122"))))
        # each row clashes with every other: accepted
        out = enumerate_from_complement(RowList(3, (row012("102"), row012("002"), row012("112"))))
        assert [str(r) for r in out.rows] == ["012"]

    def test_complement_row_of_another_width_rejected(self):
        for rows in ((row012("12"),), (row012("122"), row012("1222"))):
            with pytest.raises(ValueError, match="row widths differ"):
                ComplementFilter(RowList(3, rows))

    def test_overlap_matches_plain_scan(self):
        # the index lets through only the rows that do not clash; the sum
        # must be the plain scan's, on the disjoint lists the filter takes
        rng = random.Random(331)
        for _ in range(200):
            w = rng.randint(1, 8)
            rows = []
            for _ in range(rng.randint(0, 12)):
                r = random_row012(rng, w)
                if all(r.ones & q.zeros or r.zeros & q.ones for q in rows):
                    rows.append(r)
            comp = RowList(w, tuple(rows))
            filt = ComplementFilter(comp)
            for _ in range(5):
                row = random_row012(rng, w)
                assert filt._overlap(row.ones, row.zeros) == overlap_scan(comp, row)

    def test_random_matches_brute_force(self):
        rng = random.Random(317)
        for _ in range(50):
            w = rng.randint(1, 8)
            cnf = random_cnf(rng, w, rng.randint(0, 8), rng.randint(1, min(3, w)))
            # enumerate the complement set with the plain engine, negated via masks
            comp_rows = run(cnf, EngineConfig(method=Method.CLAUSE012)).rows
            comp = RowList(w, comp_rows)
            out = enumerate_from_complement(comp)
            full = (1 << (1 << w)) - 1
            expected = full ^ cnf_mask(cnf)
            if expected:
                assert_disjoint_cover(w, out.rows, expected)
            else:
                assert out.rows == ()


class _AdmitOnly(SpModFilter):
    """A filter with ``admit`` alone: the rows that hold a model."""

    methods = (Method.VAR012, Method.CLAUSE012)

    def __init__(self, cnf: Cnf, exact: bool):
        self.cnf, self.exact, self.models = cnf, exact, cnf_mask(cnf)

    def admit(self, ones: int, zeros: int) -> bool:
        w = self.cnf.num_vars
        return bool(row_mask(w, _row012(w, ones, zeros)) & self.models)


class TestOptionalHooks:
    @pytest.mark.parametrize(
        "method, exact", [(Method.VAR012, True), (Method.CLAUSE012, False)], ids=["exact-var-012", "screen-clause-012"]
    )
    def test_a_filter_with_admit_alone(self, method, exact):
        # final_override and refine_final stay None, and the run never calls them
        rng = random.Random(223)
        for _ in range(24):
            w = rng.randint(1, 8)
            cnf = random_cnf(rng, w, rng.randint(0, 12), rng.randint(1, min(3, w)))
            filt = _AdmitOnly(cnf, exact)
            assert filt.final_override is None and filt.refine_final is None
            out = run(cnf, EngineConfig(method=method, spmod=filt))
            assert_disjoint_cover(w, out.rows, cnf_mask(cnf))


class TestRowBuilds:
    """A filter reads a candidate's masks, so a filtered run builds a row
    only for its output."""

    @pytest.mark.parametrize("kind", ["complement", "dnf-k", "weight"])
    def test_one_row_per_output_row(self, monkeypatch, kind):
        if kind == "complement":
            comp = run(gen_random_cnf(GenSpec(12, 20, 3, seed=3)), EngineConfig(method=Method.CLAUSE012))
            enumerate_rows = lambda: enumerate_from_complement(comp)
        elif kind == "dnf-k":
            dnf = Dnf(6, (row012("122202"), row012("202121"), row012("022222")))
            enumerate_rows = lambda: enumerate_dnf_k(dnf, 3)
        else:
            # at most 5 ones: refine_final splits the finals that hold heavier members
            cnf = gen_random_cnf(GenSpec(12, 20, 3, seed=3))
            config = EngineConfig(method=Method.CLAUSE012, spmod=WeightFilter([1, 0] * 12, 5))
            enumerate_rows = lambda: run(cnf, config)
        built, build = [], wildsat.engine._row012
        monkeypatch.setattr(wildsat.engine, "_row012", lambda *args: built.append(args) or build(*args))
        out = enumerate_rows()
        assert len(out) > 10
        assert len(built) == len(out)
        if kind == "weight":  # a dropped subrow means a final was split
            assert out.stats.weight_discards > 0


class TestArgumentChecks:
    @pytest.mark.parametrize(
        "call, match",
        [
            (lambda: DnfKFilter(Dnf(2, ()), 3), "k must lie"),
            (lambda: DnfKFilter(Dnf(2, ()), -1), "k must lie"),
            (lambda: WeightFilter([1, -1], 0), "non-negative"),
            (lambda: WeightFilter([1, 1, 1], 0), "2w values"),
            (lambda: WeightFilter([1, 1], None), "integer"),
            (lambda: WeightFilter([1, 1], "3"), "integer"),
            (lambda: WeightFilter([1, 1], 2.0), "integer"),
            (lambda: WeightFilter(["1", 1], 3), "integer"),
            (lambda: WeightFilter([True, 1], 3), "integer"),
            (lambda: ComplementFilter(RowList(2, (Row012e.full(2),))), "012-rows"),
        ],
    )
    def test_rejected(self, call, match):
        with pytest.raises(ValueError, match=match):
            call()

    # 2.0 would pass the range check and fail later in the run; True would
    # run as k = 1
    @pytest.mark.parametrize("k", [2.0, True, "2", None], ids=["float", "bool", "str", "none"])
    @pytest.mark.parametrize(
        "make",
        [lambda k: CardinalityFilter(Cnf(3, ()), k), lambda k: DnfKFilter(Dnf(3, ()), k)],
        ids=["cardinality", "dnf-k"],
    )
    def test_k_that_is_not_an_int_rejected(self, make, k):
        with pytest.raises(ValueError, match="k must be an integer"):
            make(k)
