"""Experiment harnesses reproducing the paper's evaluation tables."""
from .harness import (
    MethodRun,
    PreparedDataset,
    exact_ground_truth,
    pick_queries,
    prepare,
    relative_error,
    run_method,
)
from .tables import (
    TABLES,
    format_rows,
    run_table,
    table1,
    table2,
    table3,
    table4,
    table5,
    table6,
)

__all__ = [
    "TABLES",
    "MethodRun",
    "PreparedDataset",
    "exact_ground_truth",
    "format_rows",
    "pick_queries",
    "prepare",
    "relative_error",
    "run_method",
    "run_table",
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
]
