"""Test-only oracles: a DuckDB SQL check and a brute-force Exact.

``assert_equivalent(got, sql, **tables)`` runs ``sql`` in DuckDB over
``tables`` and asserts the sorted rows match ``got``, the pandas frame
under test (such as the driver f as ``id, f`` rows). This catches wrong
results from a rewritten kernel — "it ran" is not "it is correct".

``tables`` are pandas DataFrames. Alias every output column identically
on both sides and project to scalar columns — array/map/struct columns
are not orderable so cannot be compared here.

``brute_force_cs`` tries every subset of the root community, the
reference the pruned enumeration of ``exact_cs`` is checked against.
"""
from itertools import combinations
from typing import Optional, Set, Tuple

import duckdb
import pandas as pd

from repro.graphs import LocalGraph, community_model
from repro.metrics import DEFAULT_GAMMA, NormStats, composite_distances_local, delta


def _canon(pdf: pd.DataFrame) -> pd.DataFrame:
    # Canonical column order first, then row order by those columns, so
    # two results that differ only in projection order compare equal.
    pdf = pdf[sorted(pdf.columns)].reset_index(drop=True).copy()
    for c in pdf.select_dtypes(include=["float", "float64"]).columns:
        pdf[c] = pdf[c].round(6)
    return pdf.sort_values(list(pdf.columns)).reset_index(drop=True)


def assert_equivalent(got: pd.DataFrame, sql: str, **tables: pd.DataFrame) -> None:
    con = duckdb.connect()
    try:
        for name, t in tables.items():
            con.register(name, t)
        expected = con.execute(sql).fetchdf()
    finally:
        con.close()
    assert set(expected.columns) == set(got.columns), (
        f"column mismatch: {sorted(got.columns)} vs {sorted(expected.columns)} "
        "— alias every output column identically on both sides"
    )
    pd.testing.assert_frame_equal(
        _canon(got), _canon(expected), check_dtype=False
    )


def brute_force_cs(
    g: LocalGraph,
    q: int,
    k: int,
    gamma: float = DEFAULT_GAMMA,
    stats: Optional[NormStats] = None,
    model: str = "core",
) -> Tuple[Optional[Set[int]], float]:
    """Reference oracle: try *every* subset of the root community.

    Exponential — only usable for |root| ≤ ~16 in tests, where it
    certifies that the pruned enumeration still finds the optimum.
    """
    maximal = community_model(model).maximal
    root = maximal(g, q, k)
    if not root:
        return None, float("inf")
    fvals = composite_distances_local(g, q, gamma, stats, nodes=root)
    others = sorted(root - {q})
    best_c, best_d = None, float("inf")
    for r in range(len(others) + 1):
        for comb in combinations(others, r):
            cand = set(comb) | {q}
            if len(cand) < 2:
                continue
            if maximal(g, q, k, within=cand) == cand:
                d = delta(fvals, cand, q)
                if d < best_d:
                    best_c, best_d = cand, d
    return best_c, best_d
