"""Attribute-cohesiveness metrics used in the comparison tables.

Table II scores every method's community under four metrics:

* **δ(·) (ours)** — the paper's q-centric mean composite distance
  (smaller is better);
* **Min-max (VAC)** — the maximum pairwise composite attribute distance
  inside the community (smaller is better) [VAC, ICDE'20]. It is the
  value of :func:`worst_pair`, the one pair scan, which VAC and E-VAC
  also call; it reads f one row per member through
  :func:`composite_distances_local`;
* **Attribute coverage (ATC)** — Σ_{a∈Aᵗ(q)} |V_a∩V_H|²/|V_H| over q's
  textual attributes (larger is better) [ATC, PVLDB'17];
* **#Shared attributes (ACQ)** — the fraction of q's textual attributes
  shared by *every* community member (larger is better; we normalise the
  raw shared-attribute count by |Aᵗ(q)| so datasets with different
  vocabulary sizes are comparable) [ACQ, PVLDB'16].
"""
from __future__ import annotations

from typing import Optional, Set, Tuple

from repro.graphs.local import LocalGraph

from .distance import DEFAULT_GAMMA, NormStats, composite_distances_local, norm_stats_local


def worst_pair(
    g: LocalGraph, community: Set[int], gamma: float, stats: NormStats
) -> Tuple[float, int, int]:
    """The most distant pair ``(f(u,v), u, v)`` of the community, u < v.

    Row u of f is read once, for the members after u in sorted order.
    Ties keep the first pair in ``combinations(sorted(community), 2)``
    order, which E-VAC's branching depends on; f(u,v) and f(v,u) are
    equal bit for bit, so reading only the upper triangle loses nothing.
    """
    nodes = sorted(community)
    m, wu, wv = -1.0, -1, -1
    for i, u in enumerate(nodes):
        rest = nodes[i + 1:]
        row = composite_distances_local(g, u, gamma, stats, nodes=rest)
        for v in rest:
            if row[v] > m:
                m, wu, wv = row[v], u, v
    return m, wu, wv


def vac_minmax(
    g: LocalGraph,
    community: Set[int],
    gamma: float = DEFAULT_GAMMA,
    stats: Optional[NormStats] = None,
) -> float:
    """VAC objective: max pairwise composite distance in the community."""
    if len(community) < 2:
        return 0.0
    if stats is None:
        stats = norm_stats_local(g)
    return worst_pair(g, community, gamma, stats)[0]


def atc_coverage(g: LocalGraph, community: Set[int], q: int) -> float:
    """ATC attribute score: Σ_{a∈Aᵗ(q)} |V_a∩V_H|² / |V_H|."""
    if not community:
        return 0.0
    n = len(community)
    score = 0.0
    # sorted: a float sum in hash order would change with PYTHONHASHSEED
    for a in sorted(g.tattrs.get(q, frozenset())):
        cnt = sum(1 for v in community if a in g.tattrs.get(v, frozenset()))
        score += cnt * cnt / n
    return score


def acq_shared(g: LocalGraph, community: Set[int], q: int) -> float:
    """ACQ metric: fraction of q's attributes shared by every member."""
    qt = g.tattrs.get(q, frozenset())
    if not qt or not community:
        return 0.0
    shared = set(qt)
    for v in community:
        shared &= g.tattrs.get(v, frozenset())
        if not shared:
            break
    return len(shared) / len(qt)


def f1_score(community: Set[int], ground_truth: Set[int]) -> float:
    """F₁ of a community against a ground-truth community (Table III)."""
    if not community or not ground_truth:
        return 0.0
    tp = len(community & ground_truth)
    if tp == 0:
        return 0.0
    precision = tp / len(community)
    recall = tp / len(ground_truth)
    return 2 * precision * recall / (precision + recall)
