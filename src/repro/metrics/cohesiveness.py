"""Attribute-cohesiveness metrics used in the comparison tables.

Table II scores every method's community under four metrics:

* **δ(·) (ours)** — the paper's q-centric mean composite distance
  (smaller is better);
* **Min-max (VAC)** — the maximum pairwise composite attribute distance
  inside the community (smaller is better) [VAC, ICDE'20];
* **Attribute coverage (ATC)** — Σ_{a∈Aᵗ(q)} |V_a∩V_H|²/|V_H| over q's
  textual attributes (larger is better) [ATC, PVLDB'17];
* **#Shared attributes (ACQ)** — the fraction of q's textual attributes
  shared by *every* community member (larger is better; we normalise the
  raw shared-attribute count by |Aᵗ(q)| so datasets with different
  vocabulary sizes are comparable) [ACQ, PVLDB'16].
"""
from __future__ import annotations

from itertools import combinations
from typing import Optional, Set

from repro.graphs.local import LocalGraph

from .distance import DEFAULT_GAMMA, NormStats, norm_stats_local, pair_distance


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
    return max(
        pair_distance(g, u, v, gamma, stats) for u, v in combinations(community, 2)
    )


def atc_coverage(g: LocalGraph, community: Set[int], q: int) -> float:
    """ATC attribute score: Σ_{a∈Aᵗ(q)} |V_a∩V_H|² / |V_H|."""
    if not community:
        return 0.0
    n = len(community)
    score = 0.0
    for a in g.tattrs.get(q, frozenset()):
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
