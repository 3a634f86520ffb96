"""wildsat: enumerate all models of a CNF as an orthogonal DNF, compressed
with don't-care and e-bubble wildcards.

The package root exports what the command line uses; everything else is
reached through its submodule (``wildsat.engine``, ``wildsat.rows``,
``wildsat.sat``, ...)."""

from .analysis import count_by_cardinality, equivalent
from .engine import (
    CardinalityFilter,
    ComplementFilter,
    EngineConfig,
    Method,
    Policy,
    WeightFilter,
    run,
)
from .formulas import parse_dimacs
from .rows import RowList, RunStats, format_rows, parse_rows

__version__ = "0.1.0"
