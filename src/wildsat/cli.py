"""Command-line surface: enumerate, count, count-k, equiv, gen, bench."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .analysis import count_by_cardinality, equivalent
from .bench import GenSpec, gen_random_cnf, run_bench
from .engine import (
    CardinalityFilter,
    ComplementFilter,
    EngineConfig,
    Method,
    Policy,
    WeightFilter,
    run,
    validate_config,
)
from .formulas import Cnf, parse_dimacs, serialize_dimacs
from .rows import RunStats, format_rows, parse_rows

METHODS = [m.value for m in Method]
POLICIES = [p.value for p in Policy]


def _load(path: str, parse):
    """``parse`` of the file's text; a malformed file raises ValueError
    naming the path."""
    try:
        return parse(Path(path).read_text())
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _parse_weights(text: str) -> list[int]:
    """Weights file: 2w lines 'slot weight' with slots numbered 1..2w."""
    pairs = []
    for n, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            slot, value = map(int, line.split())
        except ValueError:
            raise ValueError(f"line {n}: expected 'slot weight', got {line!r}") from None
        pairs.append((slot, value))
    pairs.sort()
    if [s for s, _ in pairs] != list(range(1, len(pairs) + 1)):
        raise ValueError("weights file must cover slots 1..2w exactly once")
    return [v for _, v in pairs]


def _error(command: str, exc: Exception) -> int:
    """Report a bad input or request as one line on stderr; exit code 2."""
    print(f"wildsat {command}: error: {exc}", file=sys.stderr)
    return 2


def _fmt_prob(p: float) -> str:
    """A finality probability for output: "≈0" below 1e-6."""
    return "≈0" if 0 <= p < 1e-6 else f"{p:.6f}"


def _stats_fields(st: RunStats) -> list[str]:
    """The reported ``key=value`` fields of a run, in output order."""
    fields = [
        f"R={st.rows}",
        f"models={st.models}",
        f"gamma={st.gamma_avg:.4f}",
        f"prob={_fmt_prob(st.prob)}",
        f"time_s={st.time_s:.4f}",
        f"harmful={st.harmful_deletions}",
    ]
    if st.weight_pruned or st.weight_discards:
        fields.append(f"weight_pruned={st.weight_pruned}")
        fields.append(f"weight_discards={st.weight_discards}")
    return fields


def _build_config(args, cnf: Cnf) -> EngineConfig:
    """The run's configuration, checked by ``validate_config``; a rejected
    argument raises ValueError.  The flags decide only which one filter is
    named and that ``--weights`` comes with ``--bound``.  The method and
    policy are checked before a filter file is read; the file is read,
    built and checked in one ``_load``, so its errors name its path."""
    k, weights, bound, complement = (getattr(args, f, None) for f in ("k", "weights", "bound", "complement"))
    flags = (("--k", k), ("--weights/--bound", weights), ("--complement", complement))
    named = [flag for flag, value in flags if value is not None]
    if len(named) > 1:
        raise ValueError(f"conflicting filters: {', '.join(named)}")
    if (weights is None) != (bound is None):
        raise ValueError("--bound requires --weights" if weights is None else "--weights requires --bound")
    config = EngineConfig(method=Method(args.method), policy=Policy(args.feasibility))
    validate_config(cnf, config)

    def checked(spmod) -> EngineConfig:
        config.spmod = spmod
        validate_config(cnf, config)
        return config

    if weights is not None:
        return _load(weights, lambda text: checked(WeightFilter(_parse_weights(text), bound)))
    if complement is not None:
        return _load(complement, lambda text: checked(ComplementFilter(parse_rows(text))))
    return config if k is None else checked(CardinalityFilter(cnf, k))


def _add_engine_flags(sub: argparse.ArgumentParser, with_filters: bool = True) -> None:
    sub.add_argument("--method", choices=METHODS, default=Method.CLAUSE_E.value)
    sub.add_argument("--feasibility", choices=POLICIES, default=Policy.SOLVER.value)
    if with_filters:
        sub.add_argument("--k", type=int, default=None, help="keep models with exactly K ones")
        sub.add_argument("--weights", default=None, help="slot weight file (2w lines 'slot weight')")
        sub.add_argument("--bound", type=int, default=None, help="maximum model weight")
        sub.add_argument("--complement", default=None, help="row file enumerating the complement")


def _add_spec_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--w", type=int, required=True)
    sub.add_argument("--h", type=int, required=True)
    sub.add_argument("--lambda", dest="lam", type=int, required=True)
    sub.add_argument("--positive", action="store_true")
    sub.add_argument("--seed", type=int, default=0)


def _dispatch(args) -> int:
    """Run the parsed request; bad inputs raise OSError or ValueError."""
    if args.command == "gen":
        spec = GenSpec(args.w, args.h, args.lam, positive=args.positive, seed=args.seed)
        text = serialize_dimacs(gen_random_cnf(spec))
        if args.out:
            Path(args.out).write_text(text)
        else:
            sys.stdout.write(text)
        return 0

    if args.command == "bench":
        methods = [Method(m.strip()) for m in args.methods.split(",") if m.strip()]
        spec = GenSpec(args.w, args.h, args.lam, positive=args.positive, seed=args.seed)
        for st in run_bench(spec, methods, Policy(args.feasibility)):
            print(" ".join([f"method={st.method}", f"policy={st.policy}", *_stats_fields(st)]))
        return 0

    if args.command == "equiv":
        cnf_a, cnf_b = _load(args.cnf_a, parse_dimacs), _load(args.cnf_b, parse_dimacs)
        config = _build_config(args, cnf_a)
        validate_config(cnf_b, config)
        if cnf_a.num_vars != cnf_b.num_vars:
            print("not equivalent: different variable counts")
            return 1
        verdict = equivalent(run(cnf_a, config), run(cnf_b, config))
        if verdict:
            print(f"equivalent ({verdict.reason})")
            return 0
        witness = "" if verdict.witness is None else f" witness_row={verdict.witness}"
        print(f"not equivalent: {verdict.reason}{witness}")
        return 1

    # enumerate, count and count-k differ only in what they print
    cnf = _load(args.cnf, parse_dimacs)
    result = run(cnf, _build_config(args, cnf))
    if args.command == "count":
        print(result.stats.models)
    elif args.command == "count-k":
        print(count_by_cardinality(result))
    else:
        text = format_rows(result)
        if args.out:
            Path(args.out).write_text(text)
        else:
            sys.stdout.write(text)
        out = sys.stdout if args.out else sys.stderr
        out.write("\n".join(_stats_fields(result.stats)) + "\n")
    return 0


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
    _add_spec_flags(p_gen)
    p_gen.add_argument("--out", default=None)

    p_bench = subs.add_parser("bench", help="compare methods on one random instance")
    _add_spec_flags(p_bench)
    p_bench.add_argument("--methods", default="clause-012,clause-e")
    p_bench.add_argument("--feasibility", choices=POLICIES, default=Policy.SOLVER.value)

    args = parser.parse_args(argv)
    # malformed or unreadable inputs and destinations, and arguments the
    # library rejects: one line, not a traceback
    try:
        return _dispatch(args)
    except (OSError, ValueError) as exc:
        return _error(args.command, exc)


if __name__ == "__main__":
    raise SystemExit(main())
