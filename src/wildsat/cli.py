"""Command-line surface: enumerate, count, count-k, equiv, gen, bench."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .analysis import count_by_cardinality, equivalent
from .bench import GenSpec, gen_random_cnf, run_bench
from .engine import (
    EngineConfig,
    Method,
    Policy,
    filter_cardinality,
    filter_complement,
    filter_weight,
    run,
    validate_config,
)
from .formulas import Cnf, parse_dimacs, serialize_dimacs
from .rows import RowList, format_rows, parse_rows
from .sat import prob_final

METHODS = [m.value for m in Method]
POLICIES = [p.value for p in Policy]


def _load_cnf(path: str) -> Cnf:
    return parse_dimacs(Path(path).read_text())


def _load_weights(path: str) -> list[int]:
    """Weights file: 2w lines 'slot weight' with slots numbered 1..2w."""
    pairs = []
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        slot, value = line.split()
        pairs.append((int(slot), int(value)))
    pairs.sort()
    if [s for s, _ in pairs] != list(range(1, len(pairs) + 1)):
        raise ValueError("weights file must cover slots 1..2w exactly once")
    return [v for _, v in pairs]


def _fmt_prob(p: float) -> str:
    return "≈0" if 0 <= p < 1e-6 else f"{p:.6f}"


def _stats_block(result: RowList, cnf: Cnf) -> str:
    st = result.stats
    lam = cnf.mean_clause_len()
    prob = prob_final(cnf.num_vars, min(st.gamma_avg, cnf.num_vars), len(cnf.clauses), min(lam, cnf.num_vars)) if cnf.num_vars else 1.0
    lines = [
        f"R={st.rows}",
        f"models={st.models}",
        f"gamma={st.gamma_avg:.4f}",
        f"prob={_fmt_prob(prob)}",
        f"time_s={st.time_s:.4f}",
        f"harmful={st.harmful_deletions}",
    ]
    if st.weight_pruned or st.weight_discards:
        lines.append(f"weight_pruned={st.weight_pruned}")
        lines.append(f"weight_discards={st.weight_discards}")
    return "\n".join(lines)


def _build_config(args, parser: argparse.ArgumentParser, cnf: Cnf) -> EngineConfig:
    method = Method(args.method)
    policy = Policy(args.feasibility)
    spmod = None
    k = getattr(args, "k", None)
    weights_path = getattr(args, "weights", None)
    bound = getattr(args, "bound", None)
    complement_path = getattr(args, "complement", None)
    chosen = [
        name
        for name, on in (
            ("--k", k is not None),
            ("--weights/--bound", weights_path is not None),
            ("--complement", complement_path is not None),
        )
        if on
    ]
    if len(chosen) > 1:
        parser.error(f"conflicting filters: {', '.join(chosen)}")
    if k is not None:
        if method != Method.VAR012:
            parser.error("--k requires --method var-012")
        spmod = filter_cardinality(cnf, k)
    if weights_path is not None:
        if bound is None:
            parser.error("--weights requires --bound")
        if method not in (Method.VAR012, Method.CLAUSE012):
            parser.error("--weights works with --method var-012 or clause-012")
        weights = _load_weights(weights_path)
        if len(weights) != 2 * cnf.num_vars:
            parser.error(f"weights file must have {2 * cnf.num_vars} slot lines")
        spmod = filter_weight(weights, bound)
    if bound is not None and weights_path is None:
        parser.error("--bound requires --weights")
    if complement_path is not None:
        if method != Method.VAR012:
            parser.error("--complement requires --method var-012")
        comp = parse_rows(Path(complement_path).read_text())
        if comp.width != cnf.num_vars:
            parser.error("complement row width does not match the CNF")
        spmod = filter_complement(comp)
    config = EngineConfig(method=method, policy=policy, spmod=spmod)
    try:
        validate_config(cnf, config)
    except ValueError as exc:
        parser.error(str(exc))
    return config


def _add_engine_flags(sub: argparse.ArgumentParser, with_filters: bool = True) -> None:
    sub.add_argument("--method", choices=METHODS, default=Method.CLAUSE_E.value)
    sub.add_argument("--feasibility", choices=POLICIES, default=Policy.SOLVER.value)
    if with_filters:
        sub.add_argument("--k", type=int, default=None, help="keep models with exactly K ones")
        sub.add_argument("--weights", default=None, help="slot weight file (2w lines 'slot weight')")
        sub.add_argument("--bound", type=int, default=None, help="maximum model weight")
        sub.add_argument("--complement", default=None, help="row file enumerating the complement")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="wildsat",
        description="Enumerate CNF model sets as orthogonal DNFs with wildcard rows.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_enum = subs.add_parser("enumerate", help="write the model set as a row file")
    p_enum.add_argument("cnf")
    _add_engine_flags(p_enum)
    p_enum.add_argument("--out", default=None, help="row file destination (default stdout)")

    p_count = subs.add_parser("count", help="exact model count")
    p_count.add_argument("cnf")
    _add_engine_flags(p_count, with_filters=False)

    p_ck = subs.add_parser("count-k", help="model counts by cardinality, one 'k count' line each")
    p_ck.add_argument("cnf")
    _add_engine_flags(p_ck, with_filters=False)

    p_eq = subs.add_parser("equiv", help="equivalence of two CNFs (exit 0 iff equivalent)")
    p_eq.add_argument("cnf_a")
    p_eq.add_argument("cnf_b")
    _add_engine_flags(p_eq, with_filters=False)

    p_gen = subs.add_parser("gen", help="generate a random CNF")
    p_gen.add_argument("--w", type=int, required=True)
    p_gen.add_argument("--h", type=int, required=True)
    p_gen.add_argument("--lambda", dest="lam", type=int, required=True)
    p_gen.add_argument("--positive", action="store_true")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", default=None)

    p_bench = subs.add_parser("bench", help="compare methods on one random instance")
    p_bench.add_argument("--w", type=int, required=True)
    p_bench.add_argument("--h", type=int, required=True)
    p_bench.add_argument("--lambda", dest="lam", type=int, required=True)
    p_bench.add_argument("--positive", action="store_true")
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--methods", default="clause-012,clause-e")
    p_bench.add_argument("--feasibility", choices=POLICIES, default=Policy.SOLVER.value)

    args = parser.parse_args(argv)

    if args.command == "enumerate":
        cnf = _load_cnf(args.cnf)
        result = run(cnf, _build_config(args, p_enum, cnf))
        text = format_rows(result)
        if args.out:
            Path(args.out).write_text(text)
        else:
            sys.stdout.write(text)
        out = sys.stdout if args.out else sys.stderr
        out.write(_stats_block(result, cnf) + "\n")
        return 0

    if args.command == "count":
        cnf = _load_cnf(args.cnf)
        result = run(cnf, _build_config(args, p_count, cnf))
        print(result.total_models())
        return 0

    if args.command == "count-k":
        cnf = _load_cnf(args.cnf)
        result = run(cnf, _build_config(args, p_ck, cnf))
        print(count_by_cardinality(result))
        return 0

    if args.command == "equiv":
        cnf_a, cnf_b = _load_cnf(args.cnf_a), _load_cnf(args.cnf_b)
        if cnf_a.num_vars != cnf_b.num_vars:
            print("not equivalent: different variable counts")
            return 1
        config = EngineConfig(method=Method(args.method), policy=Policy(args.feasibility))
        ra = run(cnf_a, config)
        rb = run(cnf_b, config)
        verdict = equivalent(ra, rb)
        if verdict:
            print(f"equivalent ({verdict.reason})")
            return 0
        witness = "" if verdict.witness is None else f" witness_row={verdict.witness}"
        print(f"not equivalent: {verdict.reason}{witness}")
        return 1

    if args.command == "gen":
        spec = GenSpec(args.w, args.h, args.lam, positive=args.positive, seed=args.seed)
        text = serialize_dimacs(gen_random_cnf(spec))
        if args.out:
            Path(args.out).write_text(text)
        else:
            sys.stdout.write(text)
        return 0

    if args.command == "bench":
        try:
            methods = [Method(m.strip()) for m in args.methods.split(",") if m.strip()]
        except ValueError as exc:
            p_bench.error(str(exc))
        try:
            spec = GenSpec(args.w, args.h, args.lam, positive=args.positive, seed=args.seed)
            records = run_bench(spec, methods, Policy(args.feasibility))
        except ValueError as exc:
            print(f"wildsat bench: error: {exc}", file=sys.stderr)
            return 2
        for record in records:
            print(record.as_line())
        return 0

    raise AssertionError(args.command)


if __name__ == "__main__":
    raise SystemExit(main())
