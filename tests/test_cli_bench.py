"""Random instance generation, the bench harness, and the command line."""

from __future__ import annotations

import re

import pytest

from conftest import PHI2_DIMACS
from oracle import all_bitstrings, cnf_mask, evaluate_naive
from wildsat.bench import GenSpec, gen_random_cnf, run_bench
from wildsat.cli import _stats_fields, main
from wildsat.engine import EngineConfig, Method, Policy, WeightFilter, run
from wildsat.formulas import parse_dimacs, serialize_dimacs
from wildsat.rows import RunStats, parse_rows
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

    @pytest.mark.parametrize("w, h, match", [(0, 1, "w must be positive"), (3, -1, "h must be non-negative")])
    def test_size_validation(self, w, h, match):
        with pytest.raises(ValueError, match=match):
            GenSpec(w, h, 1)

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
        st = RunStats("clause-e", "solver", rows=3, models=6, gamma_avg=1.0, prob=0.25, time_s=0.01)
        line = " ".join(_stats_fields(st))
        for key in ("R=3", "models=6", "prob=0.250000", "harmful=0"):
            assert key in line

    def test_tiny_prob_rendered_as_approx_zero(self):
        st = RunStats("clause-e", "solver", rows=3, models=6, gamma_avg=1.0, prob=1e-9, time_s=0.01)
        assert "prob=≈0" in " ".join(_stats_fields(st))


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

    def test_bench_without_methods_exits_2(self, capsys):
        assert main(["bench", "--w", "3", "--h", "2", "--lambda", "2", "--methods", ","]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1
        with pytest.raises(ValueError):
            run_bench(GenSpec(3, 2, 2), [])

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
    def test_conflicting_flags_exit_usage(self, phi2_file, argv, capsys):
        # rejected before any filter file ("w", "c") is read
        argv = [a if a != "X" else str(phi2_file) for a in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("wildsat enumerate: error: ")

    def test_argparse_errors_keep_usage(self, phi2_file, capsys):
        for argv in (
            ["enumerate", str(phi2_file), "--nope"],
            ["enumerate", str(phi2_file), "--method", "foo"],
            ["enumerate"],
        ):
            with pytest.raises(SystemExit) as err:
                main(argv)
            assert err.value.code == 2
            assert capsys.readouterr().err.startswith("usage: wildsat")


class TestCliStatsText:
    """The stats text of enumerate and bench, field by field, against the
    run() stats on the same input."""

    TIME = re.compile(r"time_s=\d+\.\d{4}")

    @classmethod
    def _assert_fields(cls, fields, cnf, st):
        prob = prob_final(cnf.num_vars, st.gamma_avg, len(cnf.clauses), cnf.mean_clause_len())
        expected = [
            f"R={st.rows}",
            f"models={st.models}",
            f"gamma={st.gamma_avg:.4f}",
            f"prob={prob:.6f}",
            None,
            f"harmful={st.harmful_deletions}",
        ]
        if st.weight_pruned or st.weight_discards:
            expected += [f"weight_pruned={st.weight_pruned}", f"weight_discards={st.weight_discards}"]
        assert len(fields) == len(expected)
        for got, want in zip(fields, expected):
            if want is None:
                assert cls.TIME.fullmatch(got), got
            else:
                assert got == want

    @pytest.mark.parametrize("method", ["clause-012", "clause-e", "var-012", "scan"])
    def test_enumerate_block(self, method, phi2_file, capsys):
        assert main(["enumerate", str(phi2_file), "--method", method]) == 0
        cnf = parse_dimacs(PHI2_DIMACS)
        st = run(cnf, EngineConfig(method=Method(method))).stats
        self._assert_fields(capsys.readouterr().err.splitlines(), cnf, st)

    def test_enumerate_block_with_weight_lines(self, tmp_path, capsys):
        cnf = gen_random_cnf(GenSpec(12, 14, 3, seed=4))
        cnf_file, wfile = tmp_path / "g.cnf", tmp_path / "weights.txt"
        cnf_file.write_text(serialize_dimacs(cnf))
        weights = [1 if i % 2 else 0 for i in range(1, 25)]
        wfile.write_text("".join(f"{i} {w}\n" for i, w in enumerate(weights, 1)))
        argv = ["enumerate", str(cnf_file), "--method", "clause-012", "--weights", str(wfile), "--bound", "3"]
        assert main([*argv, "--out", str(tmp_path / "rows.txt")]) == 0
        config = EngineConfig(method=Method.CLAUSE012, spmod=WeightFilter(weights, 3))
        st = run(cnf, config).stats
        assert st.weight_pruned > 0
        self._assert_fields(capsys.readouterr().out.splitlines(), cnf, st)

    def test_bench_lines(self, capsys):
        methods = ["clause-012", "clause-e", "var-012", "scan"]
        argv = ["bench", "--w", "12", "--h", "14", "--lambda", "3", "--seed", "4"]
        assert main([*argv, "--methods", ",".join(methods)]) == 0
        lines = capsys.readouterr().out.splitlines()
        cnf = gen_random_cnf(GenSpec(12, 14, 3, seed=4))
        assert len(lines) == len(methods)
        for line, method in zip(lines, methods):
            fields = line.split(" ")
            assert fields[:2] == [f"method={method}", "policy=solver"]
            self._assert_fields(fields[2:], cnf, run(cnf, EngineConfig(method=Method(method))).stats)


class TestCliInputErrors:
    """Malformed or missing inputs give one line on stderr and exit code 2."""

    @staticmethod
    def _one_line_error(capsys, command: str) -> str:
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"wildsat {command}: error: ")
        return lines[0]

    @pytest.mark.parametrize("command", ["enumerate", "count", "count-k", "equiv"])
    def test_malformed_dimacs(self, command, phi2_file, tmp_path, capsys):
        bad = tmp_path / "bad.cnf"
        bad.write_text("p cnf 3 2\n1 2 0\n1 x 0\n")
        files = [str(phi2_file), str(bad)] if command == "equiv" else [str(bad)]
        assert main([command, *files]) == 2
        line = self._one_line_error(capsys, command)
        assert "bad.cnf: line 3: bad literal 'x'" in line

    def test_missing_cnf_file(self, tmp_path, capsys):
        assert main(["count", str(tmp_path / "absent.cnf")]) == 2
        assert "absent.cnf" in self._one_line_error(capsys, "count")

    @pytest.mark.parametrize("header", ["rows w=5", "rows foo"])
    def test_malformed_row_file(self, header, phi2_file, tmp_path, capsys):
        comp = tmp_path / "comp.rows"
        comp.write_text(f"{header}\n2 2 2 2 2\n")
        argv = ["enumerate", str(phi2_file), "--method", "var-012", "--complement", str(comp)]
        assert main(argv) == 2
        line = self._one_line_error(capsys, "enumerate")
        assert f"{comp}: " in line and "rows w=<w> n=<n>" in line

    def test_malformed_weights_file(self, phi2_file, tmp_path, capsys):
        wfile = tmp_path / "weights.txt"
        wfile.write_text("1 2 3\n")
        argv = ["enumerate", str(phi2_file), "--method", "clause-012", "--weights", str(wfile), "--bound", "1"]
        assert main(argv) == 2
        line = self._one_line_error(capsys, "enumerate")
        assert f"{wfile}: line 1: " in line and "slot weight" in line

    def test_non_integer_weight(self, phi2_file, tmp_path, capsys):
        wfile = tmp_path / "weights.txt"
        wfile.write_text("# slot weight\n1 a\n")
        argv = ["enumerate", str(phi2_file), "--method", "clause-012", "--weights", str(wfile), "--bound", "1"]
        assert main(argv) == 2
        assert f"{wfile}: line 2: " in self._one_line_error(capsys, "enumerate")

    def test_k_out_of_range(self, phi2_file, capsys):
        assert main(["enumerate", str(phi2_file), "--method", "var-012", "--k", "9"]) == 2
        assert "k must lie" in self._one_line_error(capsys, "enumerate")

    def test_equiv_invalid_pair(self, phi2_file, capsys):
        argv = ["equiv", str(phi2_file), str(phi2_file), "--method", "clause-e", "--feasibility", "test12"]
        assert main(argv) == 2
        assert "clause-e" in self._one_line_error(capsys, "equiv")

    @pytest.mark.parametrize(
        "flags, files, needle",
        [
            (["--k", "1", "--complement", "c"], {}, "conflicting filters: --k, --complement"),
            (["--weights", "w"], {}, "--weights requires --bound"),
            (["--weights", "w", "--bound", "1"], {"w": "1 1\n2 1\n"}, "w: weights file must have 10 slot lines"),
            (["--weights", "w", "--bound", "1"], {"w": "1 1\n3 1\n"}, "w: weights file must cover slots 1..2w"),
            (["--complement", "c"], {"c": "rows w=4 n=1\n2 2 2 2\n"}, "c: complement row width does not match"),
            (["--complement", "c"], {"c": "rows w=5 n=1\ne1 e1 2 2 2\n"}, "c: complement rows must be 012-rows"),
        ],
    )
    def test_rejected_filter_request(self, flags, files, needle, phi2_file, tmp_path, capsys):
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        flags = [str(tmp_path / a) if a in ("w", "c") else a for a in flags]
        assert main(["enumerate", str(phi2_file), "--method", "var-012", *flags]) == 2
        assert needle in self._one_line_error(capsys, "enumerate")

    def test_equiv_different_widths(self, phi2_file, tmp_path, capsys):
        narrow = tmp_path / "narrow.cnf"
        narrow.write_text("p cnf 3 1\n1 2 0\n")
        assert main(["equiv", str(phi2_file), str(narrow)]) == 1
        assert capsys.readouterr() == ("not equivalent: different variable counts\n", "")
