"""Hoeffding-derived minimum sampling population (§V-A, Theorems 7–10).

Theorem 9: ``t ≥ 2/ε² · ln(m(n−m)/β)`` possible worlds bound the order of
``m(n−m)`` node pairs, so that the ``m`` ground-truth-community nodes land
in ``G_q`` with probability ≥ 1−β. Theorem 10 turns that into a minimum
node count for ``G_q`` (worst case: one fresh node per possible world),
with ``m = k+1`` for k-core, ``m = k`` for k-truss (§VI-C) and ``m = l``
for size-bounded CS (§VI-B).
"""
from __future__ import annotations

import math

from repro.graphs.local import community_model


def min_possible_worlds(n: int, m: int, beta: float, eps: float) -> int:
    """Theorem 9: minimum number of possible worlds w.r.t. ``G_q``."""
    if not 0 < beta < 1:
        raise ValueError("beta must be in (0,1)")
    if eps <= 0:
        raise ValueError("eps must be positive")
    m = max(1, min(m, n - 1))
    pairs = m * (n - m)
    if pairs <= 0:
        return 1
    return max(1, math.ceil(2.0 / (eps * eps) * math.log(pairs / beta)))


def min_neighborhood_size(
    n: int, k: int, beta: float, eps: float, model: str = "core",
    size_lower_bound: int | None = None,
) -> int:
    """Theorem 10 (and its §VI variants): minimum ``|G_q|``.

    The bound routinely exceeds ``n`` on laptop-scale graphs (the paper's
    Example 5 needs 16 625 of 682 819 nodes); callers clamp to the size of
    q's component, which simply means "sample from everything reachable".
    """
    min_size = community_model(model).min_size(k)
    # size-bounded CS: the community has ≥ l nodes
    m = size_lower_bound if size_lower_bound is not None else min_size
    return min_possible_worlds(n, m, beta, eps) + 1
