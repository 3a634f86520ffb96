"""The command line as a user's terminal sees it: ``python -m wildsat.cli``
in a child process.  A rejected input or argument gives exit code 2, no
stdout and exactly one stderr line, with no traceback or usage block."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import PHI2_DIMACS

SRC = Path(__file__).resolve().parents[1] / "src"


def _wildsat(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-m", "wildsat.cli", *argv],
        env=env, capture_output=True, text=True, timeout=60,
    )


@pytest.fixture
def files(tmp_path):
    (tmp_path / "phi2.cnf").write_text(PHI2_DIMACS)
    (tmp_path / "bad.cnf").write_text("p cnf 3 2\n1 2 0\n1 x 0\n")
    (tmp_path / "weights.txt").write_text("1 2 3\n")
    (tmp_path / "comp.rows").write_text("rows w=5 n=1\ne1 ex 1 2 2\n")
    (tmp_path / "three.cnf").write_text("p cnf 3 1\n1 2 0\n")
    (tmp_path / "e.rows").write_text("rows w=3 n=1\ne1 e1 2\n")
    (tmp_path / "two-headers.cnf").write_text("p cnf 2 1\n1 0\np cnf 5 1\n5 0\n")
    (tmp_path / "short.cnf").write_text("p cnf 2 5\n1 0\n")
    (tmp_path / "two.cnf").write_text("p cnf 2 0\n")
    (tmp_path / "overlap.rows").write_text("rows w=2 n=2\n1 2\n2 1\n")
    return tmp_path


# one or more cases per subcommand; test_every_subcommand_has_a_rejection
# keeps it that way
REJECTIONS = [
    (["enumerate", "{d}/bad.cnf"], "bad.cnf: line 3: bad literal 'x'"),
    (
        ["enumerate", "{d}/phi2.cnf", "--method", "clause-012", "--weights", "{d}/weights.txt", "--bound", "1"],
        "weights.txt: line 1: expected 'slot weight'",
    ),
    (
        ["enumerate", "{d}/phi2.cnf", "--method", "var-012", "--complement", "{d}/comp.rows"],
        "comp.rows: bad row token 'ex'",
    ),
    (["enumerate", "{d}/phi2.cnf", "--method", "clause-e", "--feasibility", "test12"], "clause-e"),
    (["equiv", "{d}/phi2.cnf", "{d}/phi2.cnf", "--method", "clause-e", "--feasibility", "test12"], "clause-e"),
    (["bench", "--w", "8", "--h", "5", "--lambda", "3", "--methods", "foo"], "'foo'"),
    (["gen", "--w", "0", "--h", "1", "--lambda", "1"], "w must be positive"),
    (["gen", "--w", "3", "--h", "1", "--lambda", "5"], "lambda must lie in [1, w]"),
    (["gen", "--w", "3", "--h", "1", "--lambda", "2", "--out", "{d}/missing/x.cnf"], "x.cnf"),
    (["enumerate", "{d}/phi2.cnf", "--out", "{d}/missing/x.rows"], "x.rows"),
    (
        ["enumerate", "{d}/three.cnf", "--method", "var-012", "--complement", "{d}/e.rows"],
        "e.rows: complement rows must be 012-rows",
    ),
    (["count", "{d}/bad.cnf"], "bad.cnf: line 3"),
    (["count-k", "{d}/absent.cnf"], "absent.cnf"),
    (["count", "{d}/two-headers.cnf"], "two-headers.cnf: line 3: duplicate 'p cnf' header"),
    (["count", "{d}/short.cnf"], "short.cnf: line 2: header declares 5 clauses, found 1"),
    (
        # both rows hold 11: counted twice, it would leave no model, not 00
        ["enumerate", "{d}/two.cnf", "--method", "var-012", "--complement", "{d}/overlap.rows"],
        "overlap.rows: complement rows overlap: row 1 ",
    ),
]


@pytest.mark.parametrize("argv, needle", REJECTIONS)
def test_rejection_is_one_line_exit_2(files, argv, needle):
    proc = _wildsat(*(a.format(d=files) for a in argv))
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith(f"wildsat {argv[0]}: error: ")
    assert needle in lines[0]


def test_every_subcommand_has_a_rejection():
    usage = _wildsat("--help").stdout.splitlines()[0]
    commands = re.search(r"\{(.*?)\}", usage).group(1).split(",")
    assert {"enumerate", "gen", "bench"} <= set(commands)
    assert set(commands) <= {argv[0] for argv, _ in REJECTIONS}
