"""Exact CS-AG baseline (§IV): enumeration with three pruning strategies.

The maximal connected k-core (or k-truss) containing q is found first;
the search-tree enumeration of Algorithm 1 then runs on it — each state is
a candidate community obtained by peeling one more node, and the three
prunings cut:

* **P1 duplicate states** — priority enumeration in descending f(·,q);
  a substate whose cascade-deleted max-f node v_m has
  ``f(v_m,q) > f(u,q)`` (u = the node whose deletion produced the parent)
  duplicates an earlier state (Theorems 3–4);
* **P2 unnecessary states** — only nodes with ``f(·,q) > δ(state)`` are
  worth deleting (Theorem 5);
* **P3 unpromising states** — prune the subtree when the lower bound
  ``δ̲`` (mean of the k smallest f in the state) reaches the best δ so far
  (Theorem 6, Eqs. 3–4).

Counters for explored states per pruning configuration feed Table IV.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.graphs.local import LocalGraph, community_model
from repro.metrics.distance import (
    DEFAULT_GAMMA,
    NormStats,
    composite_distances_local,
    delta,
)

INF = float("inf")


@dataclass
class ExactResult:
    """Outcome of the exact enumeration."""

    community: Optional[Set[int]]
    delta: float
    states: int  # candidate states generated during enumeration
    pruned_duplicate: int
    pruned_unpromising: int
    elapsed_s: float
    capped: bool  # True when max_states stopped the search early


def _lower_bound(state: Set[int], q: int, fvals: Dict[int, float], m: int) -> float:
    """Eqs. 3–4: mean f of the m closest non-query members of the state."""
    others = sorted(fvals[v] for v in state if v != q)
    take = others[:m] if m > 0 else []
    return sum(take) / len(take) if take else 0.0


def exact_cs(
    g: LocalGraph,
    q: int,
    k: int,
    gamma: float = DEFAULT_GAMMA,
    stats: Optional[NormStats] = None,
    model: str = "core",
    prune_duplicate: bool = True,
    prune_unnecessary: bool = True,
    prune_unpromising: bool = True,
    max_states: Optional[int] = None,
) -> ExactResult:
    """Algorithm 1 over the maximal connected k-core (or k-truss) of q.

    f(·,q) is computed for the root community's nodes. With every pruning
    disabled this is the raw exponential enumeration — cap it with
    ``max_states`` (the result is then best-so-far with ``capped=True``).
    """
    if q not in g.adj:
        raise ValueError(f"query node {q} is not in the graph")
    t0 = time.perf_counter()
    cm = community_model(model)
    root = cm.maximal(g, q, k)
    # the P3 bound averages the fewest non-query members a community has
    min_others = cm.min_size(k) - 1
    if not root:
        return ExactResult(None, INF, 0, 0, 0, time.perf_counter() - t0, False)
    fvals = composite_distances_local(g, q, gamma, stats, nodes=root)

    best_delta, best_comm = delta(fvals, root, q), set(root)
    states = dup = unpromising = 0
    capped = False
    # depth-first search tree: (state, f of the node whose deletion made
    # it, its not yet tried deletions in priority order)
    stack: List[Tuple[Set[int], float, Iterator[int]]] = []

    def enter(state: Set[int], state_delta: float, f_u: float) -> None:
        nonlocal unpromising
        if prune_unpromising:
            lb = _lower_bound(state, q, fvals, min_others)
            if lb >= best_delta:
                unpromising += 1
                return
        if prune_unnecessary:
            candidates = [v for v in state if v != q and fvals[v] > state_delta]
        else:
            candidates = [v for v in state if v != q]
        # priority enumeration: descending composite distance to q
        candidates.sort(key=lambda v: (-fvals[v], v))
        stack.append((state, f_u, iter(candidates)))

    enter(set(root), best_delta, INF)
    while stack:
        state, f_u, candidates = stack[-1]
        v = next(candidates, None)
        if v is None:
            stack.pop()
            continue
        if max_states is not None and states >= max_states:
            capped = True
            break
        new_state = cm.maximal(g, q, k, within=state - {v})
        states += 1
        if not new_state:
            continue  # q collapsed out — dead branch
        # v, the cascade and the nodes cut off from q
        f_vm = max(fvals[u] for u in state - new_state)
        if prune_duplicate and f_vm > f_u:
            dup += 1
            continue  # Theorem 4: duplicates an earlier state
        nd = delta(fvals, new_state, q)
        if nd < best_delta:
            best_delta, best_comm = nd, set(new_state)
        enter(new_state, nd, fvals[v])

    return ExactResult(
        community=best_comm,
        delta=float(best_delta),
        states=states,
        pruned_duplicate=dup,
        pruned_unpromising=unpromising,
        elapsed_s=time.perf_counter() - t0,
        capped=capped,
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
    from itertools import combinations

    maximal = community_model(model).maximal
    root = maximal(g, q, k)
    if not root:
        return None, INF
    fvals = composite_distances_local(g, q, gamma, stats, nodes=root)
    others = sorted(root - {q})
    best_c, best_d = None, INF
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
