"""wildsat: enumerate all models of a CNF as an orthogonal DNF, compressed
with don't-care and e-bubble wildcards."""

from .analysis import (
    CountPolynomial,
    EquivalenceResult,
    count_by_cardinality,
    equivalent,
)
from .bench import GenSpec, gen_random_cnf, run_bench
from .engine import (
    CardinalityFilter,
    ComplementFilter,
    DnfKFilter,
    EngineConfig,
    EngineObserver,
    Method,
    Policy,
    SpModFilter,
    WeightFilter,
    clausewise012_split,
    clausewise_e_split,
    enumerate_dnf_k,
    enumerate_from_complement,
    enumerate_hitting_sets,
    pending_clause,
    run,
    varwise_degree,
    varwise_split,
)
from .formulas import (
    Clause,
    Cnf,
    DimacsError,
    Dnf,
    evaluate,
    evaluate_dnf,
    parse_dimacs,
    parse_dnf,
    serialize_dimacs,
    serialize_dnf,
    weight,
)
from .rows import (
    EmptyRowError,
    PurityError,
    Row012,
    Row012e,
    RowList,
    RunStats,
    card_012,
    card_e,
    card_purified,
    expand_to_012,
    format_rows,
    impose_on_slots,
    intersect_012,
    intersect_e,
    intersection_card_ie,
    member_complement,
    parse_rows,
    pick_model,
    purify,
)
from .sat import (
    SolverStats,
    dpll_sat,
    final_e,
    prob_final,
    test1,
    test2,
)

__version__ = "0.1.0"
