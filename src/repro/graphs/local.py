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
``maximal(g, q, k, within=state - {v})``, except Exact's k-core step,
which carries the state's degrees into :func:`kcore_cascade`, the one
k-core peel loop. :func:`kcore_nodes` runs it once from the nodes of
degree below k, and :func:`core_decomposition` runs it in rounds
k = 1, 2, … over one shared node set. :func:`connected_component` is the
one BFS; Exact's step stops it once q has reached every surviving
neighbour of the deleted nodes.
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
    """Coreness (core number) of every node, by Batagelj–Zaveršnik peeling.

    Rounds k = 1, 2, … share one node set and one degree dict: round k
    runs :func:`kcore_cascade` from the members whose degree is below k,
    which leaves the k-core, and every node it deletes has coreness k − 1.
    O(|E| + k_max·|V|): each edge is decremented once, and each round
    scans the nodes still left.
    """
    nodes = set(g.adj)
    deg = {v: len(nbrs) for v, nbrs in g.adj.items()}
    coreness: Dict[int, int] = {}
    k = 0
    while nodes:
        k += 1
        for v in kcore_cascade(g, k, nodes, deg, [v for v in nodes if deg[v] < k]):
            coreness[v] = k - 1
    return coreness


def kcore_nodes(g: LocalGraph, k: int, within: Optional[Set[int]] = None) -> Set[int]:
    """Nodes of the maximal (not necessarily connected) k-core.

    Peels nodes of degree < k until a fixpoint, restricted to ``within``
    when given.
    """
    nodes = set(g.adj) if within is None else set(within)
    deg = {v: len(g.adj[v] & nodes) for v in nodes}
    kcore_cascade(g, k, nodes, deg, (v for v, d in deg.items() if d < k))
    return nodes


def kcore_cascade(
    g: LocalGraph, k: int, nodes: Set[int], deg: Dict[int, int], start: Iterable[int]
) -> List[int]:
    """Delete ``start`` from ``nodes`` and cascade the k-core peel.

    ``deg[v]`` is v's degree within ``nodes`` for every member v and stays
    so; every member outside ``start`` has degree ≥ k. Each deletion lowers
    its surviving neighbours' degrees, and a member whose degree falls
    below k is deleted in turn. Returns the deleted nodes in deletion
    order; ``nodes`` and ``deg`` are updated in place (``deg`` keeps stale
    entries for the deleted nodes). Deleting v from a k-core and cascading
    leaves the k-core of the rest: Exact's peel step (Theorems 3–4)
    without recounting any degree.
    """
    queue = deque(start)
    dropped = []
    while queue:
        v = queue.popleft()
        if v not in nodes:
            continue
        nodes.discard(v)
        dropped.append(v)
        for u in g.adj[v]:
            if u in nodes:
                deg[u] -= 1
                if deg[u] < k:
                    queue.append(u)
    return dropped


def connected_component(
    g: LocalGraph,
    q: int,
    within: Optional[Set[int]] = None,
    reach: Optional[Set[int]] = None,
) -> Set[int]:
    """BFS component of ``q`` restricted to ``within`` (or all nodes).

    With ``reach``, the caller promises that every node of ``within`` is
    joined inside ``within`` to q or to a node of ``reach`` — for example,
    ``within`` is a connected set less some deleted nodes, and ``reach``
    holds the deleted nodes' surviving neighbours. The BFS then stops as
    soon as it has seen all of ``reach`` and returns ``within`` itself,
    which is connected; only a real cut runs it to the end.
    """
    nodes = set(g.adj) if within is None else within
    if q not in nodes:
        return set()
    pending = set() if reach is None else reach - {q}
    if reach is not None and not pending:
        return nodes
    seen = {q}
    queue = deque([q])
    while queue:
        v = queue.popleft()
        for u in g.adj[v]:
            if u in nodes and u not in seen:
                seen.add(u)
                queue.append(u)
                if u in pending:
                    pending.discard(u)
                    if not pending:
                        return nodes
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


def check_query(g: LocalGraph, q: int, k: int) -> None:
    """Reject a query node that is not in ``g`` and a ``k`` below 1."""
    if q not in g.adj:
        raise ValueError(f"query node {q} is not in the graph")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k!r}")
