"""ACQ [Fang et al., PVLDB'16]: attributed community query baseline.

ACQ finds the connected k-core containing q whose members *all* share a
maximum-size subset of q's textual attributes (equality matching). We
enumerate candidate attribute subsets of q from largest to smallest —
q's attribute sets are small, so the 2^|Aᵗ(q)| loop is cheap — and keep
the largest shared set that still admits a connected k-core around q.

Because the metric is pure equality matching, ACQ cannot return any
community on numerical-only datasets (every shared set is empty) — the
behaviour behind the '-' cells of Table V.
"""
from __future__ import annotations

from itertools import combinations
from typing import Optional, Set

from repro.graphs.local import LocalGraph, check_query, community_model

from .common import timed


@timed
def acq_search(
    g: LocalGraph, q: int, k: int, model: str = "core"
) -> Optional[Set[int]]:
    """Largest-shared-attribute-set connected k-core containing q."""
    check_query(g, q, k)
    maximal = community_model(model).maximal
    qt = sorted(g.tattrs.get(q, frozenset()))
    if not qt:
        return None  # nothing to equality-match on
    root = maximal(g, q, k)
    if not root:
        return None
    best: Optional[Set[int]] = None
    for d in range(len(qt), 0, -1):
        for attrs in combinations(qt, d):
            need = set(attrs)
            keep = {v for v in root if need <= g.tattrs.get(v, frozenset())}
            if len(keep) <= 1:
                continue
            comm = maximal(g, q, k, within=keep)
            if comm and (best is None or len(comm) > len(best)):
                best = comm
        if best is not None:
            return best  # maximal d found — ACQ stops here
    return None
