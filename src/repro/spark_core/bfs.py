"""Attribute-prioritised neighbourhood construction (§V-A) on Spark.

``G_q`` is grown from the query node by BFS, "preferentially expanding the
search from those nodes having smaller composite attribute distances to q,
until the minimum size of G_q is reached" (paper §V-A). The loop expands
one frontier layer per round; when the next layer would overshoot the
Hoeffding minimum size, only its smallest-``f`` nodes are admitted —
layer-granular best-first, the bulk-synchronous rendering of the paper's
sequential heap expansion.

The visited set, the layers and the collected rows live on the driver.
Each layer is one filtered collect with no shuffle: the node rows (``id,
tattrs, nattrs, nbrs``) of the frontier's unvisited neighbours, which the
frontier's own rows, collected a layer earlier, list. The driver computes
f(·,q) for those rows with
:func:`repro.metrics.distance.composite_distances_local`, the one f, so
f is evaluated only for the nodes the BFS reaches and equals the local
front end's f bit for bit. G_q's rows list G_q's edges, which are
returned in no particular order: SEA's answer does not depend on it.
"""
from typing import Dict, List, Tuple

import numpy as np
from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F

from repro.graphs.local import LocalGraph
from repro.metrics.distance import NormStats, composite_distances_local


def _collect_rows(nodes: DataFrame, cond: Column, into: LocalGraph) -> Dict[int, List[int]]:
    """Collect the rows matching ``cond`` into ``into``'s attribute maps;
    return their ids with their neighbour lists."""
    nbrs = {}
    for r in nodes.where(cond).collect():
        v = int(r.id)
        into.tattrs[v] = frozenset(r.tattrs)
        into.nattrs[v] = np.asarray(r.nattrs, dtype=float)
        nbrs[v] = r.nbrs
    return nbrs


def prioritized_neighborhood(
    nodes: DataFrame,
    q: int,
    gamma: float,
    stats: NormStats,
    min_size: int,
) -> Tuple[Dict[int, float], List[Tuple[int, int]]]:
    """Grow ``G_q`` to ≥ ``min_size`` nodes (or q's whole component).

    ``nodes``: the ``id, tattrs, nattrs, nbrs`` node frame; ``gamma`` and
    ``stats`` parametrise f(·,q). Returns ``{id: f}`` for the selected
    nodes, q included, and G_q's edges ``(v, u)``, ``v < u``, each once.
    When q has no row in ``nodes`` (it is not in the graph) both are
    empty. Each round admits at least one unvisited node or stops, so the
    loop ends within |V| rounds.
    """
    rows = LocalGraph({})  # edgeless: the attribute rows collected so far
    nbrs = _collect_rows(nodes, F.col("id") == q, rows)
    if not nbrs:
        return {}, []
    visited = composite_distances_local(rows, q, gamma, stats, nodes=[q])
    frontier = [q]
    while len(visited) < min_size:
        new = {u for v in frontier for u in nbrs[v]} - visited.keys()
        if not new:
            break  # q's component is exhausted
        # one SQL expression: ``isin`` makes one py4j call per id
        ids = ", ".join(map(str, sorted(new)))  # ints, so no quoting
        got = _collect_rows(nodes, F.expr(f"id IN ({ids})"), rows)
        nbrs.update(got)
        f = composite_distances_local(rows, q, gamma, stats, nodes=got)
        # admit only the closest nodes of the final layer
        layer = sorted((fv, v) for v, fv in f.items())
        layer = layer[: min_size - len(visited)]
        visited.update((v, fv) for fv, v in layer)
        frontier = [v for _, v in layer]
    edges = [(v, u) for v in visited for u in nbrs[v] if v < u and u in visited]
    return visited, edges
