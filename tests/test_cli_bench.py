"""Random instance generation, the bench harness, and the command line."""

from __future__ import annotations

import pytest

from conftest import PHI2_DIMACS
from oracle import all_bitstrings, cnf_mask, evaluate_naive
from wildsat.bench import BenchRecord, GenSpec, gen_random_cnf, run_bench
from wildsat.cli import main
from wildsat.engine import Method, Policy
from wildsat.formulas import parse_dimacs, serialize_dimacs
from wildsat.rows import parse_rows
from wildsat.sat import prob_final


class TestGen:
    def test_shape(self):
        cnf = gen_random_cnf(GenSpec(10, 7, 3, seed=42))
        assert cnf.num_vars == 10
        assert len(cnf.clauses) == 7
        assert all(len(c) == 3 for c in cnf.clauses)

    def test_zero_clauses(self):
        cnf = gen_random_cnf(GenSpec(5, 0, 3, seed=1))
        assert cnf.clauses == ()
        assert cnf_mask(cnf).bit_count() == 32

    def test_deterministic_per_seed(self):
        a = gen_random_cnf(GenSpec(8, 10, 4, seed=99))
        b = gen_random_cnf(GenSpec(8, 10, 4, seed=99))
        assert a == b
        c = gen_random_cnf(GenSpec(8, 10, 4, seed=100))
        assert a != c  # overwhelmingly likely; pinned by these seeds

    def test_positive_only(self):
        cnf = gen_random_cnf(GenSpec(8, 12, 3, positive=True, seed=5))
        assert cnf.is_positive()

    def test_lambda_validation(self):
        with pytest.raises(ValueError):
            GenSpec(3, 1, 4)

    def test_can_hit_the_one_clause_target(self):
        # some seed produces exactly the clause (x2 or not-x6) over 9 vars
        for seed in range(4000):
            cnf = gen_random_cnf(GenSpec(9, 1, 2, seed=seed))
            if cnf.clauses[0].lits == (2, -6):
                return
        raise AssertionError("no seed below 4000 generates the target clause")


class TestBench:
    def test_records_and_prob_field(self):
        spec = GenSpec(8, 6, 3, seed=11)
        records = run_bench(spec, [Method.CLAUSE012, Method.CLAUSE_E])
        assert [r.method for r in records] == ["clause-012", "clause-e"]
        for rec in records:
            assert rec.models == cnf_mask(gen_random_cnf(spec)).bit_count()
            expected = prob_final(spec.w, rec.gamma_avg, spec.h, spec.lam)
            assert abs(rec.prob - expected) < 1e-9

    @pytest.mark.parametrize("policy", [Policy.TEST12, Policy.TEST1])
    def test_invalid_pair_rejected_before_any_run(self, monkeypatch, policy):
        # clause-e takes neither test12 nor, on a mixed CNF, test1; the pair
        # is refused instead of silently run under another policy
        import wildsat.bench

        ran = []
        monkeypatch.setattr(wildsat.bench, "run", lambda cnf, config: ran.append(config))
        with pytest.raises(ValueError, match="clause-e"):
            run_bench(GenSpec(8, 6, 3, seed=11), [Method.CLAUSE012, Method.CLAUSE_E], policy)
        assert ran == []

    def test_line_format(self):
        rec = BenchRecord("clause-e", "solver", 3, 6, 1.0, 0.25, 0.01, 0)
        line = rec.as_line()
        for key in ("method=", "R=3", "models=6", "prob=0.250000", "harmful=0"):
            assert key in line

    def test_tiny_prob_rendered_as_approx_zero(self):
        rec = BenchRecord("clause-e", "solver", 3, 6, 1.0, 1e-9, 0.01, 0)
        assert "prob=≈0" in rec.as_line()


@pytest.fixture
def phi2_file(tmp_path):
    p = tmp_path / "phi2.cnf"
    p.write_text(PHI2_DIMACS)
    return p


class TestCli:
    def test_count_phi2_clause_e(self, phi2_file, capsys):
        assert main(["count", str(phi2_file), "--method", "clause-e"]) == 0
        assert capsys.readouterr().out.strip() == "6"

    def test_scan_method(self, phi2_file, capsys):
        assert main(["enumerate", str(phi2_file), "--method", "scan"]) == 0
        rl = parse_rows(capsys.readouterr().out)
        assert len(rl.rows) == 6
        assert all(r.free_count == 0 for r in rl.rows)

    def test_count_all_methods_agree(self, phi2_file, capsys):
        for m in ("var-012", "clause-012", "clause-e", "scan"):
            assert main(["count", str(phi2_file), "--method", m]) == 0
            assert capsys.readouterr().out.strip() == "6"

    def test_enumerate_writes_rows_and_stats(self, phi2_file, tmp_path, capsys):
        out = tmp_path / "rows.txt"
        assert main(["enumerate", str(phi2_file), "--out", str(out)]) == 0
        rl = parse_rows(out.read_text())
        assert rl.width == 5 and len(rl.rows) == 3
        stats = capsys.readouterr().out
        assert "R=3" in stats and "models=6" in stats and "harmful=0" in stats

    def test_enumerate_stdout(self, phi2_file, capsys):
        assert main(["enumerate", str(phi2_file), "--method", "clause-012"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("rows w=5")
        assert "models=6" in captured.err

    def test_count_k(self, phi2_file, capsys):
        assert main(["count-k", str(phi2_file)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == ["0 0", "1 0", "2 1", "3 2", "4 2", "5 1"]

    def test_equiv_self(self, phi2_file, capsys):
        assert main(["equiv", str(phi2_file), str(phi2_file)]) == 0
        assert "equivalent" in capsys.readouterr().out

    def test_equiv_differs(self, phi2_file, tmp_path, capsys):
        other = tmp_path / "other.cnf"
        other.write_text("p cnf 5 1\n1 0\n")
        assert main(["equiv", str(phi2_file), str(other)]) == 1
        assert "not equivalent" in capsys.readouterr().out

    def test_gen_round_trip(self, tmp_path, capsys):
        out = tmp_path / "gen.cnf"
        assert main([
            "gen", "--w", "7", "--h", "5", "--lambda", "3",
            "--seed", "3", "--out", str(out),
        ]) == 0
        cnf = parse_dimacs(out.read_text())
        assert cnf.num_vars == 7 and len(cnf.clauses) == 5
        assert serialize_dimacs(gen_random_cnf(GenSpec(7, 5, 3, seed=3))) == out.read_text()

    def test_gen_positive_flag(self, capsys):
        assert main(["gen", "--w", "5", "--h", "4", "--lambda", "2", "--positive", "--seed", "1"]) == 0
        assert parse_dimacs(capsys.readouterr().out).is_positive()

    def test_bench_rows(self, capsys):
        assert main([
            "bench", "--w", "8", "--h", "5", "--lambda", "3", "--seed", "2",
            "--methods", "clause-012,clause-e",
        ]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("method=clause-012")
        assert lines[1].startswith("method=clause-e")

    def test_bench_invalid_pair_exits_2_without_records(self, capsys):
        assert main([
            "bench", "--w", "8", "--h", "5", "--lambda", "3",
            "--methods", "clause-012,clause-e", "--feasibility", "test12",
        ]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1
        assert "clause-e" in captured.err

    def test_cardinality_flag(self, phi2_file, capsys):
        assert main([
            "enumerate", str(phi2_file), "--method", "var-012", "--k", "3",
        ]) == 0
        rl = parse_rows(capsys.readouterr().out)
        assert {tuple(r.symbols) for r in rl.rows} == {(0, 1, 0, 1, 1), (1, 0, 1, 0, 1)}

    def test_weights_flow(self, phi2_file, tmp_path, capsys):
        wfile = tmp_path / "weights.txt"
        wfile.write_text("".join(f"{i} {1 if i % 2 else 0}\n" for i in range(1, 11)))
        assert main([
            "enumerate", str(phi2_file), "--method", "clause-012",
            "--weights", str(wfile), "--bound", "3",
        ]) == 0
        rl = parse_rows(capsys.readouterr().out)
        cnf = parse_dimacs(PHI2_DIMACS)
        expected = set()
        for u in all_bitstrings(5):
            if evaluate_naive(cnf, u) and sum(u) <= 3:  # odd slots weigh 1 = the 1-bits
                expected.add(u)
        got = {u for r in rl.rows for u in r.members()}
        assert got == expected

    def test_complement_flow(self, tmp_path, capsys):
        cnf_file = tmp_path / "phi0.cnf"
        cnf_file.write_text("p cnf 9 1\n2 -6 0\n")
        comp = tmp_path / "comp.rows"
        comp.write_text("rows w=9 n=1\n2 0 2 2 2 1 2 2 2\n")
        assert main([
            "count", str(cnf_file), "--method", "clause-012",
        ]) == 0
        assert capsys.readouterr().out.strip() == "384"
        assert main([
            "enumerate", str(cnf_file), "--method", "var-012", "--complement", str(comp),
        ]) == 0
        assert "models=384" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["enumerate", "X", "--method", "clause-e", "--k", "2"],
            ["enumerate", "X", "--method", "clause-e", "--weights", "w", "--bound", "1"],
            ["enumerate", "X", "--method", "clause-012", "--complement", "c"],
            ["enumerate", "X", "--bound", "3"],
            ["enumerate", "X", "--method", "clause-e", "--feasibility", "test12"],
        ],
    )
    def test_conflicting_flags_exit_usage(self, phi2_file, argv, tmp_path):
        argv = [a if a != "X" else str(phi2_file) for a in argv]
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
