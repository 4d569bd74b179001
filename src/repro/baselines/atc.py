"""LocATC [Huang & Lakshmanan, PVLDB'17]: attribute-driven CS baseline.

ATC scores a community H by the attribute coverage of q's attributes,
``Σ_{a∈Aᵗ(q)} |V_a∩V_H|²/|V_H|``, and searches for the connected k-core
maximising it. We implement the *local* greedy variant the paper
compares against (their fastest): starting from the maximal connected
k-core of q, repeatedly try removing the members that match q's
attributes worst; accept a removal when the coverage score improves,
stop when no tried removal helps.
"""
from __future__ import annotations

from typing import Optional, Set

from repro.graphs.local import LocalGraph, check_query, community_model
from repro.metrics.cohesiveness import atc_coverage

from .common import timed

_TRIES_PER_STEP = 8  # worst-matching members examined per greedy step


@timed
def locatc_search(
    g: LocalGraph, q: int, k: int, model: str = "core"
) -> Optional[Set[int]]:
    """Greedy coverage-maximising connected k-core containing q."""
    check_query(g, q, k)
    cm = community_model(model)
    comm = cm.maximal(g, q, k)
    if not comm:
        return None
    qt = g.tattrs.get(q, frozenset())
    score = atc_coverage(g, comm, q)
    improved = True
    while improved and len(comm) > cm.min_size(k):
        improved = False
        # examine members sharing the fewest attributes with q first, then by id
        order = sorted(
            (v for v in comm if v != q),
            key=lambda v: (len(qt & g.tattrs.get(v, frozenset())), v),
        )
        for v in order[:_TRIES_PER_STEP]:
            cand = cm.maximal(g, q, k, within=comm - {v})
            if not cand:
                continue
            s = atc_coverage(g, cand, q)
            if s > score:
                comm, score = cand, s
                improved = True
                break
    return comm
