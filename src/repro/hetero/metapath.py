"""Meta-path projection for heterogeneous graphs (§VI-A).

Two target nodes are P-neighbours when a path instance of the meta-path
``P = (t₀, t₁, …, t_L)`` (t₀ = t_L = the target type) connects them. The
``(k,P)``-core of the paper is then simply the k-core of the homogeneous
*projection*: the graph on target nodes with one edge per P-neighbour
pair. Projection walks the path one hop at a time on the driver, keeping
for each target node the set of nodes of the current hop's type it
reaches; the k-core/k-truss/SEA machinery runs unchanged on the projected
graph.
"""
from __future__ import annotations

from typing import Dict, Sequence, Set, Tuple

from repro.graphs.local import LocalGraph


def metapath_pairs_local(g: LocalGraph, path: Sequence[str]) -> Set[Tuple[int, int]]:
    """P-neighbour pairs as canonical edges ``(min, max)``."""
    if g.ntypes is None:
        raise ValueError("graph has no node types")
    if len(path) < 2:
        raise ValueError("meta-path needs at least two node types")
    frontier: Dict[int, Set[int]] = {
        v: {v} for v, t in g.ntypes.items() if t == path[0]
    }
    for t in path[1:]:
        nxt: Dict[int, Set[int]] = {}
        for start, curs in frontier.items():
            reach = set()
            for c in curs:
                reach.update(u for u in g.adj[c] if g.ntypes[u] == t)
            if reach:
                nxt[start] = reach
        frontier = nxt
    pairs: Set[Tuple[int, int]] = set()
    for start, ends in frontier.items():
        for e in ends:
            if e != start:
                pairs.add((min(start, e), max(start, e)))
    return pairs


def metapath_project_local(g: LocalGraph, path: Sequence[str]) -> LocalGraph:
    """Homogeneous projection: target nodes + P-neighbour edges.

    The projected graph keeps the target nodes' attributes; isolated
    targets (no P-neighbour) are retained so population counts match the
    paper's "replace n with # target nodes" rule (§VI-A mod. 1).
    """
    pairs = metapath_pairs_local(g, path)
    targets = [v for v, t in (g.ntypes or {}).items() if t == path[0]]
    return LocalGraph.from_edges(
        pairs, tattrs=g.tattrs, nattrs=g.nattrs,
        ntypes={v: path[0] for v in targets}, nodes=targets,
    )
