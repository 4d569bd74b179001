"""Attribute-prioritised neighbourhood construction (§V-A) on Spark.

``G_q`` is grown from the query node by BFS, "preferentially expanding the
search from those nodes having smaller composite attribute distances to q,
until the minimum size of G_q is reached" (paper §V-A). The loop expands
one frontier layer per round; when the next layer would overshoot the
Hoeffding minimum size, only its smallest-``f`` nodes are admitted —
layer-granular best-first, the bulk-synchronous rendering of the paper's
sequential heap expansion.

The visited set and the frontier live on the driver; they never exceed
|G_q| ids. Each layer is two filtered collects with no shuffle: the
frontier's neighbour ids, then the node rows (``id, tattrs, nattrs``) of
the unvisited ones. The driver computes f(·,q) for those rows with
:func:`repro.metrics.distance.composite_distances_local`, the one f, so
f is evaluated only for the nodes the BFS reaches and equals the local
front end's f bit for bit.
"""
from typing import Dict, List

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
    edges_sym: DataFrame,
    nodes: DataFrame,
    q: int,
    gamma: float,
    stats: NormStats,
    min_size: int,
) -> Dict[int, float]:
    """Grow ``G_q`` to ≥ ``min_size`` nodes (or q's whole component).

    ``edges_sym``: symmetric edges; ``nodes``: the ``id, tattrs, nattrs``
    node frame; ``gamma`` and ``stats`` parametrise f(·,q). Returns
    ``{id: f}`` for the selected nodes, q included; when q has no row in
    ``nodes`` (it is not in the graph) the result is empty. Each round
    admits at least one unvisited node or stops, so the loop ends within
    |V| rounds.
    """
    rows = LocalGraph({})  # edgeless: the attribute rows collected so far
    if not _collect_rows(nodes, F.col("id") == q, rows):
        return {}
    visited = composite_distances_local(rows, q, gamma, stats, nodes=[q])
    frontier = [q]
    while frontier and len(visited) < min_size:
        reached = edges_sym.where(F.col("src").isin(frontier)).select("dst")
        new = {int(r.dst) for r in reached.collect()} - visited.keys()
        if not new:
            break  # q's component is exhausted
        ids = _collect_rows(nodes, F.col("id").isin(sorted(new)), rows)
        f = composite_distances_local(rows, q, gamma, stats, nodes=ids)
        # admit only the closest nodes of the final layer
        layer = sorted((fv, v) for v, fv in f.items())
        layer = layer[: min_size - len(visited)]
        visited.update((v, fv) for fv, v in layer)
        frontier = [v for _, v in layer]
    return visited
