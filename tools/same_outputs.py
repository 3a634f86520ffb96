"""Digest what a checkout outputs on every benchmark job.

Usage:

    python3 tools/same_outputs.py [checkout]

For each workload of ``perfbench/workloads.py`` it runs every catalogue
job through the benchmark's own ``run_job`` and prints one sha256 over the
jobs' ``observed`` records (row-file digests, rows, models, solver calls,
harmful deletions), their verdicts and every ``RunStats`` field but
``time_s``.  The program is imported from ``src/`` of the checkout (this
one by default) and ``workloads.py`` is loaded read-only from its file.

It then prints one line per engine config that no workload runs: var-012
under each policy, with and without a ``WeightFilter``; var-012 with a
plugged solver and a log of its ``on_pop``, ``on_emit`` and ``on_harmful``
calls; clause-012 under ``test1`` and ``test12``; clause-e with
``EngineConfig()`` and, on positive formulas, under ``test1``; and scan.
Each is one sha256 over the row file, every ``RunStats`` field but
``time_s`` and the log of each of the config's runs on small ``GenSpec``
formulas of both polarities.  Two checkouts whose lines are equal gave the
same outputs and counters on every job and every such run.
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


def engine_configs() -> list:
    """(name, positive formulas only, config of a formula) for each config
    that no workload runs."""
    from wildsat import sat
    from wildsat.engine import EngineConfig, EngineObserver, Method, Policy, WeightFilter

    def weights(cnf):
        slot_weights = [(3 * s) % 5 for s in range(2 * cnf.num_vars)]
        return WeightFilter(slot_weights, sum(slot_weights) // 3)

    def logged(cnf):
        log = EngineObserver()
        log.calls = []
        log.on_pop = lambda row, *rest: log.calls.append(("pop", str(row), *rest))
        log.on_emit = lambda row: log.calls.append(("emit", str(row)))
        log.on_harmful = lambda row: log.calls.append(("harmful", str(row)))
        return EngineConfig(method=Method.VAR012, solver=lambda c: sat.dpll_sat(c), observer=log)

    configs = []
    for policy in Policy:
        config = EngineConfig(method=Method.VAR012, policy=policy)
        configs.append((f"var-012/{policy.value}", False, lambda cnf, config=config: config))
        weighted = lambda cnf, config=config: dataclasses.replace(config, spmod=weights(cnf))
        configs.append((f"var-012/{policy.value}+weight", False, weighted))
    configs.append(("var-012/plug+log", False, logged))
    for policy in (Policy.TEST1, Policy.TEST12):
        config = EngineConfig(method=Method.CLAUSE012, policy=policy)
        configs.append((f"clause-012/{policy.value}", False, lambda cnf, config=config: config))
    configs.append(("clause-e/default", False, lambda cnf: EngineConfig()))
    configs.append(("clause-e/test1", True, lambda cnf: EngineConfig(policy=Policy.TEST1)))
    configs.append(("scan", False, lambda cnf: EngineConfig(method=Method.SCAN)))
    return configs


def config_digest(positive_only: bool, make) -> str:
    """One sha256 over the row file, ``RunStats`` fields but ``time_s`` and
    observer log of each run of a config on small formulas of both
    polarities, or on positive ones only."""
    from wildsat.bench import GenSpec, gen_random_cnf
    from wildsat.engine import run
    from wildsat.rows import format_rows

    digest = hashlib.sha256()
    for positive in (True,) if positive_only else (False, True):
        for w in (6, 10, 14):
            for seed in range(3):
                cnf = gen_random_cnf(GenSpec(w, 2 * w, 3, positive, seed))
                config = make(cnf)
                out = run(cnf, config)
                stats = {k: v for k, v in dataclasses.asdict(out.stats).items() if k != "time_s"}
                log = getattr(config.observer, "calls", None)
                digest.update(json.dumps([format_rows(out), stats, log], sort_keys=True).encode() + b"\n")
    return digest.hexdigest()


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
    for name, positive_only, make in engine_configs():
        print(f"{name:<24}{config_digest(positive_only, make)}")


if __name__ == "__main__":
    main(sys.argv[1:])
