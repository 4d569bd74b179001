"""Spark-facing attributed-graph representation.

``AttributedGraph`` holds two DataFrames:

* ``nodes``: ``id: long, tattrs: array<string>, nattrs: array<double>``;
* ``edges``: ``src: long, dst: long`` stored canonically (``src < dst``,
  deduplicated, no self-loops);

and two per-graph facts recorded when the frames are built from the
driver's graph: |V| and the min/max bounds of the numerical attributes
(the bounds-only ``NormStats`` of ``norm_stats_local``, §II-A's Z(·)).

``sea_search_spark`` reads the facts and, from the frames, only these
columns through filtered collects (per G_q BFS layer, the edges touching
it and the new nodes' rows); the driver computes f(·,q) for the
collected rows and runs the inner loops on a
:class:`repro.graphs.local.LocalGraph` of G_q built from the collected
edges. So a query runs no count and no aggregate. This module imports no
pyspark: the frames' methods do the work.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .local import LocalGraph

if TYPE_CHECKING:
    from pyspark.sql import DataFrame, SparkSession

    from repro.metrics.distance import NormStats

NODE_SCHEMA = (
    "id long not null, tattrs array<string> not null, nattrs array<double> not null"
)
EDGE_SCHEMA = "src long not null, dst long not null"


@dataclass
class AttributedGraph:
    """An attributed graph as a pair of Spark DataFrames, with its |V|
    (``n_nodes``) and its norm-stat bounds (``stats``)."""

    nodes: DataFrame
    edges: DataFrame
    n_nodes: int
    stats: NormStats

    def num_nodes(self) -> int:
        return self.n_nodes

    def num_edges(self) -> int:
        return self.edges.count()

    def cache(self) -> "AttributedGraph":
        self.nodes.cache()
        self.edges.cache()
        return self

    @staticmethod
    def from_local(spark: SparkSession, g: LocalGraph) -> "AttributedGraph":
        """Both frames of ``g``, each undirected edge once as ``v < u``;
        ``g``'s |V| and norm-stat bounds."""
        # imported here: repro.metrics.distance imports this package
        from repro.metrics.distance import NormStats, norm_stats_local

        ids = sorted(g.adj)
        nodes = [
            (v, sorted(g.tattrs.get(v, ())), list(map(float, g.nattrs.get(v, ()))))
            for v in ids
        ]
        edges = [(v, u) for v in ids for u in g.adj[v] if v < u]
        s = norm_stats_local(g)
        return AttributedGraph(
            spark.createDataFrame(nodes, NODE_SCHEMA),
            spark.createDataFrame(edges, EDGE_SCHEMA),
            len(ids),
            NormStats(s.mins, s.maxs),
        )
