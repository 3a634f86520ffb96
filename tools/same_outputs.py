"""Digest what a checkout outputs on every benchmark job.

Usage:

    python3 tools/same_outputs.py [checkout]

For each workload of ``perfbench/workloads.py`` it runs every catalogue
job through the benchmark's own ``run_job`` and prints one sha256 over the
jobs' ``observed`` records (row-file digests, rows, models, solver calls,
harmful deletions), their verdicts and every ``RunStats`` field but
``time_s``.  The program is imported from ``src/`` of the checkout (this
one by default) and ``workloads.py`` is loaded read-only from its file.
Two checkouts whose lines are equal gave the same outputs and counters on
every job.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib.util
import json
import sys
from pathlib import Path


def load(checkout: Path):
    """The checkout's ``perfbench/workloads.py``, importing its ``wildsat``."""
    sys.path.insert(0, str(checkout / "src"))
    import wildsat

    if Path(wildsat.__file__).resolve().parent != checkout / "src" / "wildsat":
        raise SystemExit(f"wildsat was imported from {wildsat.__file__}, not from {checkout / 'src'}")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", checkout / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # for its dataclasses
    spec.loader.exec_module(module)
    return module


def record(workloads, wl, inst) -> dict:
    """One job's outputs and counters, without its timing."""
    out = workloads.run_job(wl, inst)
    return {
        "observed": workloads.observed(wl, out),
        "verdict": None if out.verdict is None else dataclasses.asdict(out.verdict),
        "stats": [{k: v for k, v in dataclasses.asdict(r.stats).items() if k != "time_s"} for r in out.results],
    }


def main(argv: list[str]) -> None:
    checkout = Path(argv[0] if argv else Path(__file__).parent.parent).resolve()
    workloads = load(checkout)
    for name, wl in workloads.WORKLOADS.items():
        insts = workloads.catalogue(wl)
        workloads.verify_inputs(insts, workloads.load_expected(wl))
        digest = hashlib.sha256()
        for inst in insts:
            digest.update(json.dumps(record(workloads, wl, inst), sort_keys=True).encode() + b"\n")
        print(f"{name:<12}{digest.hexdigest()}")


if __name__ == "__main__":
    main(sys.argv[1:])
