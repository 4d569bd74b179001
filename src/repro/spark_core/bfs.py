"""Attribute-prioritised neighbourhood construction (§V-A) on Spark.

``G_q`` is grown from the query node by BFS, "preferentially expanding the
search from those nodes having smaller composite attribute distances to q,
until the minimum size of G_q is reached" (paper §V-A). The loop expands
one frontier layer per round; when the next layer would overshoot the
Hoeffding minimum size, only its smallest-``f`` nodes are admitted —
layer-granular best-first, the bulk-synchronous rendering of the paper's
sequential heap expansion.

The visited set, the frontier and the edges read live on the driver; the
first two never exceed |G_q| ids. Each layer is two filtered collects
with no shuffle: the canonical (``src < dst``) edges with an endpoint in
the frontier, then the node rows (``id, tattrs, nattrs``) of the
unvisited neighbours. The driver computes f(·,q) for those rows with
:func:`repro.metrics.distance.composite_distances_local`, the one f, so
f is evaluated only for the nodes the BFS reaches and equals the local
front end's f bit for bit. The edges read are kept: after one more edge
read for the last admitted layer, they hold every edge of G_q, so the
caller needs no second read of G_q's edges.
"""
from typing import Dict, List, Set, Tuple

import numpy as np
from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F

from repro.graphs.local import LocalGraph
from repro.metrics.distance import NormStats, composite_distances_local


def _collect_rows(nodes: DataFrame, cond: Column, into: LocalGraph) -> List[int]:
    """Collect the attribute rows matching ``cond`` into ``into``'s
    attribute maps; return their ids."""
    ids = []
    for r in nodes.where(cond).select("id", "tattrs", "nattrs").collect():
        v = int(r.id)
        into.tattrs[v] = frozenset(r.tattrs)
        into.nattrs[v] = np.asarray(r.nattrs, dtype=float)
        ids.append(v)
    return ids


def prioritized_neighborhood(
    edges: DataFrame,
    nodes: DataFrame,
    q: int,
    gamma: float,
    stats: NormStats,
    min_size: int,
) -> Tuple[Dict[int, float], List[Tuple[int, int]]]:
    """Grow ``G_q`` to ≥ ``min_size`` nodes (or q's whole component).

    ``edges``: the canonical ``src, dst`` edge frame; ``nodes``: the
    ``id, tattrs, nattrs`` node frame; ``gamma`` and ``stats``
    parametrise f(·,q). Returns ``{id: f}`` for the selected nodes, q
    included, and the ``(src, dst)`` edges read, each once: every edge
    with an endpoint in G_q, so G_q's own edges among them. When q has
    no row in ``nodes`` (it is not in the graph) both are empty. Each
    round admits at least one unvisited node or stops, so the loop ends
    within |V| rounds.
    """
    rows = LocalGraph({})  # edgeless: the attribute rows collected so far
    if not _collect_rows(nodes, F.col("id") == q, rows):
        return {}, []
    visited = composite_distances_local(rows, q, gamma, stats, nodes=[q])
    read: List[Tuple[int, int]] = []
    done: Set[int] = set()  # the nodes whose edges have been read
    frontier = [q]
    while frontier:
        hit = F.col("src").isin(frontier) | F.col("dst").isin(frontier)
        layer_edges = [
            (int(r.src), int(r.dst))
            for r in edges.where(hit).select("src", "dst").collect()
        ]
        read += (e for e in layer_edges if e[0] not in done and e[1] not in done)
        done.update(frontier)
        if len(visited) >= min_size:
            break
        new = {u for e in layer_edges for u in e} - visited.keys()
        if not new:
            break  # q's component is exhausted
        ids = _collect_rows(nodes, F.col("id").isin(sorted(new)), rows)
        f = composite_distances_local(rows, q, gamma, stats, nodes=ids)
        # admit only the closest nodes of the final layer
        layer = sorted((fv, v) for v, fv in f.items())
        layer = layer[: min_size - len(visited)]
        visited.update((v, fv) for fv, v in layer)
        frontier = [v for _, v in layer]
    return visited, read
