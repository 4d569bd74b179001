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

Every generated child counts as a state. P1 rejects a child whose
deleted node v itself has ``f(v,q) > f(u,q)`` before building it, on
either model. A k-core state carries its within-state degrees. A child
copies them, deletes v and cascades the peel from it (``kcore_cascade``);
P1 is then decided on the cascade. Only a child that survives both pays
for the BFS from q, and that BFS stops once it has reached every
surviving neighbour of the deleted nodes: the state was connected, so
what is left is too. Only a real cut runs the BFS to the end, and P1
reads the nodes it cut off. The child is the set ``maximal`` would
return, though it may iterate in another order. k-truss children are
recomputed with the model's ``maximal``. Every state's P2 candidates and
P3 bound are walks of one order of the root by f.

Counters for explored states per ablation level (``prunings``, the number
of P1, P2, P3 applied, in that order) feed Table IV.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import islice
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.graphs.local import (
    LocalGraph,
    check_query,
    community_model,
    connected_component,
    kcore_cascade,
)
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


def _walk(
    order: List[int], state: Set[int], fvals: Dict[int, float], above: float
) -> Iterator[int]:
    """The members of ``state`` in ``order``, while their f exceeds ``above``."""
    for v in order:
        if fvals[v] <= above:
            return
        if v in state:
            yield v


def exact_cs(
    g: LocalGraph,
    q: int,
    k: int,
    gamma: float = DEFAULT_GAMMA,
    stats: Optional[NormStats] = None,
    model: str = "core",
    prunings: int = 3,
    max_states: Optional[int] = None,
) -> ExactResult:
    """Algorithm 1 over the maximal connected k-core (or k-truss) of q.

    f(·,q) is computed for the root community's nodes. ``prunings`` is
    Table IV's ablation level: the first ``prunings`` of P1, P2, P3 are
    applied (3 is every pruning, 0 none). With none this is the raw
    exponential enumeration — cap it with ``max_states`` (the result is
    then best-so-far with ``capped=True``).

    ``stats`` should be ``norm_stats_local(g)``, computed once per graph
    and passed to every query: it carries g's normalised attribute matrix,
    and with ``stats=None`` that matrix is rebuilt over all |V| nodes on
    every query.
    """
    check_query(g, q, k)
    if prunings not in range(4):
        raise ValueError(f"prunings must be 0, 1, 2 or 3, got {prunings!r}")
    prune_duplicate, prune_unnecessary, prune_unpromising = (prunings > i for i in range(3))
    t0 = time.perf_counter()
    cm = community_model(model)
    root = cm.maximal(g, q, k)
    # the P3 bound averages the fewest non-query members a community has
    min_others = cm.min_size(k) - 1
    if not root:
        return ExactResult(None, INF, 0, 0, 0, time.perf_counter() - t0, False)
    fvals = composite_distances_local(g, q, gamma, stats, nodes=root)
    # every state's P2 candidates in priority order (descending f, then
    # ascending id) and its P3 bound (ascending f) are walks of one order
    by_f = sorted(root - {q}, key=lambda v: (-fvals[v], v))
    by_f_asc = by_f[::-1]

    best_delta, best_comm = delta(fvals, root, q), set(root)
    states = dup = unpromising = 0
    capped = False
    # k-core states carry their within-state degrees; truss states None
    core = model == "core"
    # depth-first search tree: (state, its degrees, f of the node whose
    # deletion made it, its not yet tried deletions in priority order)
    stack: List[Tuple[Set[int], Optional[Dict[int, int]], float, Iterator[int]]] = []

    def enter(
        state: Set[int], deg: Optional[Dict[int, int]], state_delta: float, f_u: float
    ) -> None:
        nonlocal unpromising
        if prune_unpromising:
            # Eqs. 3–4: mean f of the min_others closest non-query members
            closest = islice(_walk(by_f_asc, state, fvals, -INF), min_others)
            take = [fvals[v] for v in closest]
            if (sum(take) / len(take) if take else 0.0) >= best_delta:
                unpromising += 1
                return
        above = state_delta if prune_unnecessary else -INF
        stack.append((state, deg, f_u, _walk(by_f, state, fvals, above)))

    root_deg = {v: len(g.adj[v] & root) for v in root} if core else None
    enter(set(root), root_deg, best_delta, INF)
    while stack:
        state, deg, f_u, candidates = stack[-1]
        v = next(candidates, None)
        if v is None:
            stack.pop()
            continue
        if max_states is not None and states >= max_states:
            capped = True
            break
        states += 1
        if prune_duplicate and fvals[v] > f_u:
            dup += 1
            continue  # Theorem 4 on v alone: v is farther than u
        if core:
            # delete v and cascade the peel from its neighbours (P1 first:
            # a dropped node farther than u makes the state a duplicate)
            alive, new_deg = set(state), dict(deg)
            lost = kcore_cascade(g, k, alive, new_deg, (v,))
            if q not in alive:
                continue  # q collapsed out — dead branch
            if prune_duplicate and any(fvals[u] > f_u for u in lost):
                dup += 1
                continue  # Theorem 4: duplicates an earlier state
            # the state was connected, so alive is too once q reaches every
            # surviving neighbour of the deleted nodes
            border = alive.intersection(set().union(*(g.adj[u] for u in lost)))
            new_state = connected_component(g, q, alive, reach=border)
            # P1 also reads the nodes the BFS cut off from q
            lost = alive - new_state if len(new_state) < len(alive) else ()
        else:
            new_deg = None
            new_state = cm.maximal(g, q, k, within=state - {v})
            if not new_state:
                continue  # q collapsed out — dead branch
            lost = state - new_state  # v, the cascade and the cut-off nodes
        if prune_duplicate and any(fvals[u] > f_u for u in lost):
            dup += 1
            continue  # Theorem 4: duplicates an earlier state
        nd = delta(fvals, new_state, q)
        if nd < best_delta:
            best_delta, best_comm = nd, set(new_state)
        enter(new_state, new_deg, nd, fvals[v])

    return ExactResult(
        community=best_comm,
        delta=float(best_delta),
        states=states,
        pruned_duplicate=dup,
        pruned_unpromising=unpromising,
        elapsed_s=time.perf_counter() - t0,
        capped=capped,
    )

