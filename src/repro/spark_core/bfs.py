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
frontier's neighbour ids, then f for the unvisited ones. Catalyst pushes
the ``id`` filter below the distance frame's q cross join, so f(·,q) is
evaluated only for the nodes the BFS reaches.
"""
from typing import Dict

from pyspark.sql import DataFrame
from pyspark.sql import functions as F


def prioritized_neighborhood(
    edges_sym: DataFrame,
    fvals: DataFrame,
    q: int,
    min_size: int,
) -> Dict[int, float]:
    """Grow ``G_q`` to ≥ ``min_size`` nodes (or q's whole component).

    ``edges_sym``: symmetric edges; ``fvals``: ``id, f`` composite
    attribute distances to q (from :mod:`repro.metrics.distance`).
    Returns ``{id: f}`` for the selected nodes, q included; when q has no
    row in ``fvals`` (it is not in the graph) the result is empty. Each
    round admits at least one unvisited node or stops, so the loop ends
    within |V| rounds.
    """
    visited = {
        int(r.id): float(r.f) for r in fvals.where(F.col("id") == q).collect()
    }
    frontier = list(visited)
    while frontier and len(visited) < min_size:
        reached = edges_sym.where(F.col("src").isin(frontier)).select("dst")
        new = {int(r.dst) for r in reached.collect()} - visited.keys()
        if not new:
            break  # q's component is exhausted
        rows = fvals.where(F.col("id").isin(sorted(new))).collect()
        # admit only the closest nodes of the final layer
        layer = sorted((float(r.f), int(r.id)) for r in rows)
        layer = layer[: min_size - len(visited)]
        visited.update((v, f) for f, v in layer)
        frontier = [v for _, v in layer]
    return visited
