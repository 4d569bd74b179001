"""Spark-facing attributed-graph representation.

``AttributedGraph`` holds two DataFrames:

* ``nodes``: ``id: long, tattrs: array<string>, nattrs: array<double>``;
* ``edges``: ``src: long, dst: long`` stored canonically (``src < dst``,
  deduplicated, no self-loops).

``sea_search_spark`` reads only these columns, through filtered collects
(per G_q BFS layer, the edges touching it and the new nodes' rows) and
one aggregate (the norm stats); the driver computes f(·,q) for the
collected rows and runs the inner loops on a
:class:`repro.graphs.local.LocalGraph` of G_q built from the collected
edges. This module imports no pyspark: the frames' methods do the work.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .local import LocalGraph

if TYPE_CHECKING:
    from pyspark.sql import DataFrame, SparkSession

NODE_SCHEMA = (
    "id long not null, tattrs array<string> not null, nattrs array<double> not null"
)
EDGE_SCHEMA = "src long not null, dst long not null"


@dataclass
class AttributedGraph:
    """An attributed graph as a pair of Spark DataFrames."""

    nodes: DataFrame
    edges: DataFrame

    def num_nodes(self) -> int:
        return self.nodes.count()

    def num_edges(self) -> int:
        return self.edges.count()

    def cache(self) -> "AttributedGraph":
        self.nodes.cache()
        self.edges.cache()
        return self

    @staticmethod
    def from_local(spark: SparkSession, g: LocalGraph) -> "AttributedGraph":
        """Both frames of ``g``; each undirected edge once, as ``v < u``."""
        ids = sorted(g.adj)
        nodes = [
            (v, sorted(g.tattrs.get(v, ())), list(map(float, g.nattrs.get(v, ()))))
            for v in ids
        ]
        edges = [(v, u) for v in ids for u in g.adj[v] if v < u]
        return AttributedGraph(
            spark.createDataFrame(nodes, NODE_SCHEMA),
            spark.createDataFrame(edges, EDGE_SCHEMA),
        )
