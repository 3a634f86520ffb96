"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime.  Expected values come from the worked examples or from the
independent truth-table oracle, never from the code paths under test."""

from __future__ import annotations

import math
import random
import statistics
import time

from conftest import EQ4_ROWS, EQ11_ROWS, PHI0_DIMACS, PHI2_DIMACS, erow, row012
from oracle import (
    all_bitstrings,
    assert_disjoint_cover,
    card_purified,
    clause_mask,
    cnf_mask,
    evaluate_naive,
    intersect_e,
    models_of_mask,
    random_cnf,
    random_purified_row,
    random_row012e,
    row_mask,
)
from wildsat.analysis import count_by_cardinality, equivalent
from wildsat.bench import GenSpec, gen_random_cnf
from wildsat.engine import (
    CardinalityFilter,
    EngineConfig,
    EngineObserver,
    Method,
    Policy,
    WeightFilter,
    clausewise_e_split,
    enumerate_dnf_k,
    enumerate_from_complement,
    enumerate_hitting_sets,
    run,
)
from wildsat.formulas import Dnf, parse_dimacs, weight
from wildsat.rows import (
    Row012,
    RowList,
    expand_to_012,
    intersection_card_ie,
    purify,
)
from wildsat.sat import final_e, prob_final, row_satisfies_clause


def _report(name: str, started: float, budget: float) -> None:
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert elapsed < budget, f"{name} exceeded its {budget}s budget"


def test_criterion_1_worked_example_goldens():
    t0 = time.perf_counter()
    phi2 = parse_dimacs(PHI2_DIMACS)
    esoft = run(phi2, EngineConfig(method=Method.CLAUSE_E))
    expanded = set()
    for r in esoft.rows:
        for piece in expand_to_012(r):
            expanded.update(piece.members())
    eq4 = set()
    for text in EQ4_ROWS:
        eq4.update(row012(text).members())
    assert len(eq4) == 6
    assert expanded == eq4
    assert [str(r.condense()) for r in esoft.rows] == EQ11_ROWS

    phi0 = parse_dimacs(PHI0_DIMACS)
    esop = run(phi0, EngineConfig(method=Method.CLAUSE012))
    assert [str(r) for r in esop.rows] == ["212222222", "202220222"]
    assert esop.total_models() == 384
    _report("1 worked-example goldens", t0, 1.0)


def test_criterion_2_table_values():
    t0 = time.perf_counter()
    table5 = erow("e1 2 2 e1 2 2 2 2 2 e2 e2 2 2 e2 e2 2")
    assert card_purified(table5) == 180

    r = erow("e1 2 e2 2 e3 2 e3 2 e1 2 e1 2 e3 2 e2 2", 8)
    rho = erow("e1 2 e1 2 e1 2 e1 2 e2 2 e2 2 e2 2 e2 2", 8)
    pieces = intersect_e(r, rho)
    assert [card_purified(p) for p in pieces] == [63, 12, 6, 42, 18]
    assert sum(card_purified(p) for p in pieces) == 141
    assert intersection_card_ie(r, rho) == 141
    # the four inclusion-exclusion terms: 147 - 3 - 3 + 0
    assert card_purified(r) == 147
    from oracle import EBuilder
    from wildsat.rows import EmptyRowError

    def zeroed(row, *slot_groups):
        b = EBuilder.from_row(row)
        try:
            for slots in slot_groups:
                for s in slots:
                    b.set_fixed(s, 0)
        except EmptyRowError:
            return 0
        return card_purified(b.freeze())

    bubble_a, bubble_b = rho.bubbles
    assert zeroed(r, bubble_a) == 3
    assert zeroed(r, bubble_b) == 3
    assert zeroed(r, bubble_a, bubble_b) == 0

    assert math.isclose(prob_final(25, 9.6, 50, 10), 0.495, abs_tol=0.005)
    _report("2 table values", t0, 1.0)


def _sampled_instances(n: int, seed: int, w_max: int, h_max: int, lam_max: int, model_cap: int):
    """Random instances within the stated caps; instances with more models
    than the cap are redrawn so the one-by-one method stays affordable."""
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        w = rng.randint(2, w_max)
        lam = rng.randint(1, min(lam_max, w))
        h = rng.randint(1, h_max)
        positive = rng.random() < 0.4
        cnf = random_cnf(rng, w, h, lam, positive)
        mask = cnf_mask(cnf)
        if mask.bit_count() > model_cap:
            continue
        out.append((cnf, mask))
    return out


def test_criterion_3_oracle_equivalence_suite():
    t0 = time.perf_counter()
    instances = _sampled_instances(500, seed=31415, w_max=14, h_max=40, lam_max=5, model_cap=200)
    for cnf, mask in instances:
        n_models = mask.bit_count()
        for method in (Method.VAR012, Method.CLAUSE012, Method.CLAUSE_E):
            out = run(cnf, EngineConfig(method=method))
            assert_disjoint_cover(cnf.num_vars, out.rows, mask) if out.rows else None
            if not out.rows:
                assert mask == 0
            assert len(out.rows) <= max(n_models, 0) or n_models == 0
            if n_models:
                assert len(out.rows) <= n_models
    _report("3 oracle equivalence (500 instances x 3 methods)", t0, 120.0)


def test_criterion_4_mechanism_contract_suite():
    t0 = time.perf_counter()
    rng = random.Random(27182)

    class ContractChecker(EngineObserver):
        def __init__(self, w, mod_mask):
            self.w, self.mod = w, mod_mask
            self.splits = 0

        def on_split(self, parent, parent_degree, sons, son_degrees):
            self.splits += 1
            union = 0
            total = 0
            for son, deg in zip(sons, son_degrees):
                assert deg > parent_degree, "(7b) violated"
                m = row_mask(self.w, son)
                assert m & self.mod, "(7a) violated: infeasible son"
                total += m.bit_count()
                union |= m
            assert total == union.bit_count(), "sons overlap"
            assert union & self.mod == row_mask(self.w, parent) & self.mod, "(7c) violated"

    checked_splits = 0
    for _ in range(80):
        w = rng.randint(2, 10)
        cnf = random_cnf(rng, w, rng.randint(1, 15), rng.randint(1, min(4, w)))
        mod = cnf_mask(cnf)
        for method in (Method.VAR012, Method.CLAUSE012, Method.CLAUSE_E):
            checker = ContractChecker(w, mod)
            out = run(cnf, EngineConfig(method=method, observer=checker))
            assert out.stats.harmful_deletions == 0, "solver policy admitted an infeasible row"
            checked_splits += checker.splits
    assert checked_splits > 1000
    _report(f"4 mechanism contract ({checked_splits} instrumented splits)", t0, 30.0)


def test_criterion_5_e_calculus_suite():
    t0 = time.perf_counter()
    rng = random.Random(16180)

    n = 1000
    for _ in range(n):
        w = rng.randint(2, 10)
        r = random_row012e(rng, w)
        pieces = purify(r)
        assert pieces, "purify returned an empty list"
        assert all(p.is_purified() for p in pieces)
        assert_disjoint_cover(w, pieces, row_mask(w, r))

    for _ in range(n):
        w = rng.randint(2, 10)
        r = random_purified_row(rng, w)
        rows = expand_to_012(r)
        expected = 1
        for m in r.bubbles:
            expected *= len(m)
        assert len(rows) == expected
        assert_disjoint_cover(w, rows, row_mask(w, r))

    agree = 0
    for _ in range(n):
        w = rng.randint(2, 10)
        cnf = random_cnf(rng, w, rng.randint(0, 10), rng.randint(1, min(4, w)))
        r = random_purified_row(rng, w)
        contained = row_mask(w, r) & ~cnf_mask(cnf) == 0
        assert final_e(r, cnf) == contained
        agree += 1
    assert agree == n

    splits = 0
    while splits < n:
        w = rng.randint(2, 10)
        cnf = random_cnf(rng, w, 1, rng.randint(1, min(4, w)))
        clause = cnf.clauses[0]
        r = random_row012e(rng, w)
        if row_satisfies_clause(r, clause):
            continue
        sons = clausewise_e_split(r, clause)
        expected = row_mask(w, r) & clause_mask(w, clause)
        if sons:
            assert_disjoint_cover(w, sons, expected)
        else:
            assert expected == 0
        splits += 1
    _report("5 e-calculus (4x1000 randomized checks)", t0, 60.0)


def test_criterion_6_analysis_suite():
    t0 = time.perf_counter()
    rng = random.Random(14142)

    for _ in range(60):
        w = rng.randint(2, 12)
        cnf = random_cnf(rng, w, rng.randint(0, 14), rng.randint(1, min(4, w)))
        out = run(cnf, EngineConfig(method=Method.CLAUSE_E))
        poly = count_by_cardinality(out)
        expected = [0] * (w + 1)
        for u in models_of_mask(w, cnf_mask(cnf)):
            expected[weight(u)] += 1
        assert list(poly.coefficients) == expected

    made_witness = 0
    for _ in range(30):
        w = rng.randint(2, 9)
        cnf = random_cnf(rng, w, rng.randint(1, 10), rng.randint(1, min(3, w)))
        esop = run(cnf, EngineConfig(method=Method.CLAUSE012))
        esoft = run(cnf, EngineConfig(method=Method.CLAUSE_E))
        assert equivalent(esop, esoft).equal
        models = sorted(models_of_mask(w, cnf_mask(cnf)))
        if not models:
            continue
        # drop one model from the ESOP: re-emit all members except one
        keep = [Row012(u) for u in models[1:]]
        verdict = equivalent(esop, RowList(w, tuple(keep)))
        assert not verdict.equal
        assert verdict.reason
        # a same-count corruption must be caught with a row witness
        if len(models) >= 2:
            swapped = [Row012(u) for u in models[1:]]
            flipped = tuple(1 - b for b in models[0])
            if not evaluate_naive(cnf, flipped):
                swapped.append(Row012(flipped))
                verdict = equivalent(esop, RowList(w, tuple(swapped)))
                assert not verdict.equal
                if verdict.witness is not None:
                    made_witness += 1
    assert made_witness > 0

    phi2 = parse_dimacs(PHI2_DIMACS)
    eq4 = RowList(5, tuple(row012(t) for t in EQ4_ROWS))
    esoft = run(phi2, EngineConfig(method=Method.CLAUSE_E))
    assert equivalent(eq4, esoft).equal
    _report("6 analysis suite", t0, 60.0)


def test_criterion_7_filter_suites():
    t0 = time.perf_counter()
    rng = random.Random(17320)
    per_filter = 200

    for _ in range(per_filter):
        w = rng.randint(2, 12) if rng.random() < 0.2 else rng.randint(2, 9)
        cnf = random_cnf(rng, w, rng.randint(0, 10), rng.randint(1, min(3, w)))
        k = rng.randint(0, w)
        out = run(cnf, EngineConfig(method=Method.VAR012, spmod=CardinalityFilter(cnf, k)))
        expected = {
            u for u in models_of_mask(w, cnf_mask(cnf)) if weight(u) == k
        }
        assert {r.symbols for r in out.rows} == expected

    for _ in range(per_filter):
        w = rng.randint(2, 12) if rng.random() < 0.2 else rng.randint(2, 9)
        cnf = random_cnf(rng, w, rng.randint(0, 8), rng.randint(1, min(3, w)))
        weights = [rng.randint(0, 20) for _ in range(2 * w)]
        bound = rng.randint(0, sum(weights))
        method = Method.CLAUSE012 if rng.random() < 0.5 else Method.VAR012
        out = run(cnf, EngineConfig(method=method, spmod=WeightFilter(weights, bound)))
        expected = set()
        for u in models_of_mask(w, cnf_mask(cnf)):
            f = sum(weights[2 * i] if b else weights[2 * i + 1] for i, b in enumerate(u))
            if f <= bound:
                expected.add(u)
        got = set()
        for r in out.rows:
            got.update(r.members())
        assert got == expected

    for _ in range(per_filter):
        w = rng.randint(2, 12) if rng.random() < 0.2 else rng.randint(2, 9)
        terms = tuple(
            Row012(tuple(rng.choice((0, 1, 2, 2)) for _ in range(w)))
            for _ in range(rng.randint(0, 5))
        )
        k = rng.randint(0, w)
        out = enumerate_dnf_k(Dnf(w, terms), k)
        dnf_mask_ = 0
        for t in terms:
            dnf_mask_ |= row_mask(w, t)
        expected = {u for u in models_of_mask(w, dnf_mask_) if weight(u) == k}
        assert {r.symbols for r in out.rows} == expected

    for _ in range(per_filter):
        w = rng.randint(2, 12) if rng.random() < 0.2 else rng.randint(2, 9)
        edges = [
            set(rng.sample(range(1, w + 1), rng.randint(1, min(3, w))))
            for _ in range(rng.randint(1, 8))
        ]
        k = rng.randint(0, w)
        out = enumerate_hitting_sets(edges, k, w)
        expected = set()
        for u in all_bitstrings(w):
            chosen = {i + 1 for i, b in enumerate(u) if b}
            if len(chosen) == k and all(chosen & e for e in edges):
                expected.add(u)
        assert {r.symbols for r in out.rows} == expected

    for _ in range(per_filter):
        w = rng.randint(2, 10)
        cnf = random_cnf(rng, w, rng.randint(0, 8), rng.randint(1, min(3, w)))
        comp_rows = run(cnf, EngineConfig(method=Method.CLAUSE012)).rows
        out = enumerate_from_complement(RowList(w, comp_rows))
        full = (1 << (1 << w)) - 1
        expected = full ^ cnf_mask(cnf)
        if expected:
            assert_disjoint_cover(w, out.rows, expected)
        else:
            assert out.rows == ()
    _report("7 filter suites (5 x 200 instances)", t0, 60.0)


def test_criterion_8_compression_trend():
    t0 = time.perf_counter()
    r_e, r_012 = [], []
    for seed in range(20):
        spec = GenSpec(20, 10, 4, positive=True, seed=1000 + seed)
        cnf = gen_random_cnf(spec)
        out_e = run(cnf, EngineConfig(method=Method.CLAUSE_E, policy=Policy.TEST1))
        out_012 = run(cnf, EngineConfig(method=Method.CLAUSE012, policy=Policy.TEST1))
        assert out_e.total_models() == out_012.total_models()
        r_e.append(len(out_e.rows))
        r_012.append(len(out_012.rows))
    assert statistics.median(r_e) < statistics.median(r_012), (r_e, r_012)
    wins = sum(1 for a, b in zip(r_e, r_012) if a <= b)
    assert wins >= 18, f"e-rows beat 012-rows on only {wins}/20 seeds"

    for seed in (1, 2, 3):
        spec = GenSpec(18, 30, 8, positive=False, seed=seed)
        cnf = gen_random_cnf(spec)
        out = run(cnf, EngineConfig(method=Method.CLAUSE012))
        assert out.stats.gamma_avg > 0
        assert out.total_models() == cnf_mask(cnf).bit_count()
    _report(
        f"8 compression trend (median R_e {statistics.median(r_e)} < R_012 {statistics.median(r_012)}, {wins}/20 wins)",
        t0,
        300.0,
    )
