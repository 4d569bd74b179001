"""Driver-side graph representation and graph algorithms.

The paper's per-query inner loops (branch-and-bound enumeration, greedy
peeling, the community left after a deletion) are sequential and
operate on small candidate subgraphs (a maximal connected k-core, or the
induced graph of a sample), so they run on a :class:`LocalGraph` in
driver memory — mirroring how the original single-machine Java
implementation runs them. ``sea_search_spark`` collects its G_q into one.

Tests check core decomposition, k-core, k-truss and connected components
against ``networkx``. :func:`community_model` is the one place that maps
a model name ("core", "truss") to its algorithms; every peel step is its
``maximal(g, q, k, within=state - {v})``.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np


@dataclass
class LocalGraph:
    """Undirected attributed graph held in driver memory.

    ``adj`` maps node id -> set of neighbour ids (symmetric).
    ``tattrs`` maps node id -> frozenset of textual attribute tokens.
    ``nattrs`` maps node id -> numpy vector of numerical attributes (all
    nodes share the same dimensionality; may be length 0).
    ``ntypes`` optionally maps node id -> node type (heterogeneous graphs).
    """

    adj: Dict[int, Set[int]]
    tattrs: Dict[int, FrozenSet[str]] = field(default_factory=dict)
    nattrs: Dict[int, np.ndarray] = field(default_factory=dict)
    ntypes: Optional[Dict[int, str]] = None

    @property
    def num_nodes(self) -> int:
        return len(self.adj)

    @property
    def num_edges(self) -> int:
        return sum(len(v) for v in self.adj.values()) // 2

    def nodes(self) -> List[int]:
        return list(self.adj)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    @staticmethod
    def from_edges(
        edges: Iterable[Tuple[int, int]],
        tattrs: Optional[Dict[int, Iterable[str]]] = None,
        nattrs: Optional[Dict[int, Sequence[float]]] = None,
        ntypes: Optional[Dict[int, str]] = None,
        nodes: Optional[Iterable[int]] = None,
    ) -> "LocalGraph":
        adj: Dict[int, Set[int]] = {}
        for v in nodes or ():
            adj.setdefault(int(v), set())
        for s, d in edges:
            s, d = int(s), int(d)
            if s == d:
                continue
            adj.setdefault(s, set()).add(d)
            adj.setdefault(d, set()).add(s)
        t = {int(v): frozenset(a) for v, a in (tattrs or {}).items()}
        n = {int(v): np.asarray(a, dtype=float) for v, a in (nattrs or {}).items()}
        return LocalGraph(adj, t, n, dict(ntypes) if ntypes else None)


# ---------------------------------------------------------------------------
# Core decomposition and k-core
# ---------------------------------------------------------------------------


def core_decomposition(g: LocalGraph) -> Dict[int, int]:
    """Batagelj–Zaveršnik peeling: coreness (core number) of every node.

    O(|E|) using bucket sort on degrees.
    """
    deg = {v: len(nbrs) for v, nbrs in g.adj.items()}
    if not deg:
        return {}
    max_deg = max(deg.values())
    buckets: List[Set[int]] = [set() for _ in range(max_deg + 1)]
    for v, d in deg.items():
        buckets[d].add(v)
    coreness: Dict[int, int] = {}
    removed: Set[int] = set()
    cur = 0
    for _ in range(len(deg)):
        while cur <= max_deg and not buckets[cur]:
            cur += 1
        if cur > max_deg:
            break
        v = buckets[cur].pop()
        coreness[v] = cur
        removed.add(v)
        for u in g.adj[v]:
            if u in removed:
                continue
            d = deg[u]
            if d > cur:
                buckets[d].discard(u)
                deg[u] = d - 1
                buckets[d - 1].add(u)
        # deg[u] can drop below cur only transiently; bucket index is
        # clamped by the `d > cur` guard above, so cur never decreases.
    return coreness


def kcore_nodes(g: LocalGraph, k: int, within: Optional[Set[int]] = None) -> Set[int]:
    """Nodes of the maximal (not necessarily connected) k-core.

    Peels nodes of degree < k until a fixpoint, restricted to ``within``
    when given.
    """
    nodes = set(g.adj) if within is None else set(within)
    deg = {v: sum(1 for u in g.adj[v] if u in nodes) for v in nodes}
    queue = deque(v for v, d in deg.items() if d < k)
    while queue:
        v = queue.popleft()
        if v not in nodes:
            continue
        nodes.discard(v)
        for u in g.adj[v]:
            if u in nodes:
                deg[u] -= 1
                if deg[u] < k:
                    queue.append(u)
    return nodes


def connected_component(
    g: LocalGraph, q: int, within: Optional[Set[int]] = None
) -> Set[int]:
    """BFS component of ``q`` restricted to ``within`` (or all nodes)."""
    nodes = set(g.adj) if within is None else within
    if q not in nodes:
        return set()
    seen = {q}
    queue = deque([q])
    while queue:
        v = queue.popleft()
        for u in g.adj[v]:
            if u in nodes and u not in seen:
                seen.add(u)
                queue.append(u)
    return seen


def maximal_connected_kcore(
    g: LocalGraph, q: int, k: int, within: Optional[Set[int]] = None
) -> Set[int]:
    """Node set of the maximal connected k-core containing ``q`` (∅ if none).

    Peel to the k-core, then take q's component: inside a component every
    neighbour is in the same component, so degrees are unchanged by the
    restriction and the result is still a k-core.
    """
    core = kcore_nodes(g, k, within)
    if q not in core:
        return set()
    return connected_component(g, q, core)


# ---------------------------------------------------------------------------
# k-truss
# ---------------------------------------------------------------------------


def ktruss_edges(
    g: LocalGraph, k: int, within: Optional[Set[int]] = None
) -> Set[Tuple[int, int]]:
    """Edges of the maximal k-truss: every edge is in ≥ k−2 triangles.

    Iterative peeling of low-support edges; support is recounted against the
    surviving edge set each round (candidate subgraphs here are small).
    """
    nodes = set(g.adj) if within is None else set(within)
    edges = {(v, u) for v in nodes for u in g.adj[v] if u in nodes and v < u}
    need = max(0, k - 2)
    changed = True
    while changed and edges:
        adj: Dict[int, Set[int]] = {}
        for v, u in edges:
            adj.setdefault(v, set()).add(u)
            adj.setdefault(u, set()).add(v)
        drop = {
            (v, u)
            for v, u in edges
            if len(adj[v] & adj[u]) < need
        }
        changed = bool(drop)
        edges -= drop
    return edges


def maximal_connected_ktruss(
    g: LocalGraph, q: int, k: int, within: Optional[Set[int]] = None
) -> Set[int]:
    """Node set of the connected k-truss community containing ``q``.

    Peels edges to the maximal k-truss, then walks q's component over the
    surviving edges. Returns ∅ when q has no surviving edge.
    """
    adj: Dict[int, Set[int]] = {}
    for v, u in ktruss_edges(g, k, within):
        adj.setdefault(v, set()).add(u)
        adj.setdefault(u, set()).add(v)
    return connected_component(LocalGraph(adj), q)


# ---------------------------------------------------------------------------
# Community models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CommunityModel:
    """What a community is: the structure every search method peels inside.

    ``maximal(g, q, k, within=None)`` is the maximal connected community of
    q inside ``within`` (∅ if none). It is also the one peel step of §IV and
    §V-B: deleting v from a community ``state`` leaves
    ``maximal(g, q, k, within=state - {v})``. ``min_size(k)`` is the fewest
    nodes such a community can have — k+1 for a k-core, k for a k-truss
    (§VI-C), which is also Theorem 10's Hoeffding ``m``.
    """

    maximal: Callable[..., Set[int]]
    min_size: Callable[[int], int]


COMMUNITY_MODELS: Dict[str, CommunityModel] = {
    "core": CommunityModel(maximal_connected_kcore, lambda k: k + 1),
    "truss": CommunityModel(maximal_connected_ktruss, lambda k: k),
}


def community_model(name: str) -> CommunityModel:
    """The community model called ``name`` ("core" or "truss")."""
    try:
        return COMMUNITY_MODELS[name]
    except KeyError:
        raise ValueError(f"unknown model {name!r}") from None
