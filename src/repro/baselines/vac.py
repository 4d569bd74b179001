"""VAC [Liu et al., ICDE'20]: vertex-centric attributed community search.

VAC minimises the *maximum pairwise* attribute distance inside the
community (a worst-case objective — the contrast with the paper's
q-centric δ). Two variants, both for k-core and k-truss substrates:

* :func:`vac_search` — the approximate peeling the paper compares
  against: repeatedly locate the worst (most distant) pair and try to
  remove one of its endpoints; halt when neither endpoint can be removed
  without collapsing q's community or when removal stops improving the
  objective (the Fig. 1(d) behaviour);
* :func:`evac_search` — the exact variant (E-VAC): branch-and-bound over
  deletion sequences with memoised states, minimising the min-max
  objective. Exponential — the paper could not finish it on large
  graphs within a week; ``max_states`` caps it and flags the result.

Both take the worst pair from :func:`repro.metrics.cohesiveness.worst_pair`,
the scan whose value is Table II's min-max metric, so the objective VAC
minimises and the one the table scores are the same code.
"""
from __future__ import annotations

from typing import FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.graphs.local import LocalGraph, check_query, community_model
from repro.metrics.cohesiveness import worst_pair
from repro.metrics.distance import DEFAULT_GAMMA, NormStats, norm_stats_local

from .common import timed


@timed
def vac_search(
    g: LocalGraph,
    q: int,
    k: int,
    gamma: float = DEFAULT_GAMMA,
    stats: Optional[NormStats] = None,
    model: str = "core",
) -> Optional[Set[int]]:
    """Approximate VAC: peel endpoints of the worst pair while possible.

    ``stats`` should be ``norm_stats_local(g)``, computed once per graph
    and passed to every query: it carries g's normalised attribute matrix,
    and with ``stats=None`` that matrix is rebuilt over all |V| nodes on
    every query.
    """
    check_query(g, q, k)
    cm = community_model(model)
    comm = cm.maximal(g, q, k)
    if not comm:
        return None
    if stats is None:
        stats = norm_stats_local(g)
    # the worst pair of ``comm``, carried over from the accepted candidate
    m, u, v = worst_pair(g, comm, gamma, stats)
    while len(comm) > cm.min_size(k):
        for x in (u, v):
            if x == q:
                continue
            cand = cm.maximal(g, q, k, within=comm - {x})
            if cand:
                worst = worst_pair(g, cand, gamma, stats)
                if worst[0] < m:
                    comm, (m, u, v) = cand, worst
                    break
        else:
            break  # worst case cannot be improved — VAC halts (Fig. 1d)
    return comm


@timed
def evac_search(
    g: LocalGraph,
    q: int,
    k: int,
    gamma: float = DEFAULT_GAMMA,
    stats: Optional[NormStats] = None,
    model: str = "core",
    max_states: int = 50_000,
) -> Tuple[Optional[Set[int]], int, bool]:
    """Exact VAC: enumerate deletion-closed states, minimise min-max."""
    check_query(g, q, k)
    cm = community_model(model)
    root = cm.maximal(g, q, k)
    if not root:
        return None, 0, False
    if stats is None:
        stats = norm_stats_local(g)

    best_obj, best_comm = float("inf"), root
    seen: Set[FrozenSet[int]] = {frozenset(root)}
    states = 0
    capped = False
    # depth-first search tree: (state, endpoints of its worst pair not yet
    # tried). Only deleting an endpoint of the worst pair can reduce the
    # objective — the classic min-max branching rule
    stack: List[Tuple[Set[int], Iterator[int]]] = []

    def enter(state: Set[int]) -> None:
        nonlocal best_obj, best_comm
        obj, u, v = worst_pair(g, state, gamma, stats)
        if obj < best_obj:
            best_obj, best_comm = obj, state
        stack.append((state, iter((u, v))))

    enter(set(root))
    while stack:
        state, ends = stack[-1]
        x = next(ends, None)
        if x is None:
            stack.pop()
            continue
        if x == q:
            continue
        if states >= max_states:
            capped = True
            break
        cand = cm.maximal(g, q, k, within=state - {x})
        states += 1
        key = frozenset(cand)
        if cand and key not in seen:
            seen.add(key)
            enter(cand)
    return set(best_comm), states, capped
