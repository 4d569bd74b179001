"""Spark-facing attributed-graph representation.

``AttributedGraph`` holds one DataFrame, ``nodes``:
``id: long, tattrs: array<string>, nattrs: array<double>, nbrs: array<long>``,
each node's attributes and its neighbour list; and three per-graph facts
recorded when the frame is built from the driver's graph: |V|, |E| and
the min/max bounds of the numerical attributes (the bounds-only
``NormStats`` of ``norm_stats_local``, §II-A's Z(·)).

``sea_search_spark`` reads the facts and, from the frame, only the rows
of the nodes its G_q BFS reaches, one filtered collect per BFS layer; the
driver computes f(·,q) for the collected rows, takes G_q's edges from
their neighbour lists and runs the inner loops on a
:class:`repro.graphs.local.LocalGraph` of G_q. So a query runs no count
and no aggregate. This module imports no pyspark: the frame's methods do
the work.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .local import LocalGraph

if TYPE_CHECKING:
    from pyspark.sql import DataFrame, SparkSession

    from repro.metrics.distance import NormStats

NODE_SCHEMA = (
    "id long not null, tattrs array<string> not null, "
    "nattrs array<double> not null, nbrs array<long> not null"
)


@dataclass
class AttributedGraph:
    """An attributed graph as a Spark DataFrame of nodes with their
    neighbour lists, with its |V| (``n_nodes``), |E| (``n_edges``) and
    norm-stat bounds (``stats``)."""

    nodes: DataFrame
    n_nodes: int
    n_edges: int
    stats: NormStats

    def num_nodes(self) -> int:
        return self.n_nodes

    def num_edges(self) -> int:
        return self.n_edges

    def cache(self) -> "AttributedGraph":
        self.nodes.cache()
        return self

    @staticmethod
    def from_local(spark: SparkSession, g: LocalGraph) -> "AttributedGraph":
        """The node frame of ``g``, each neighbour list in ``g``'s adjacency
        order; ``g``'s |V|, |E| and norm-stat bounds."""
        # imported here: repro.metrics.distance imports this package
        from repro.metrics.distance import NormStats, norm_stats_local

        rows = [
            (v, sorted(g.tattrs.get(v, ())), list(map(float, g.nattrs.get(v, ()))),
             list(g.adj[v]))
            for v in sorted(g.adj)
        ]
        s = norm_stats_local(g)
        return AttributedGraph(
            spark.createDataFrame(rows, NODE_SCHEMA),
            len(rows),
            g.num_edges,
            NormStats(s.mins, s.maxs),
        )
