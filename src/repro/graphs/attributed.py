"""Spark-facing attributed-graph representation.

``AttributedGraph`` holds two DataFrames:

* ``nodes``: ``id: long, tattrs: array<string>, nattrs: array<double>``;
* ``edges``: ``src: long, dst: long`` stored canonically (``src < dst``,
  deduplicated, no self-loops).

``sea_search_spark`` reads only these columns, through filtered collects
(the G_q BFS layers' neighbour ids and node rows, the G_q-induced edges)
and one aggregate (the norm stats); the driver computes f(·,q) for the
collected rows and runs the inner loops on the collected
:class:`repro.graphs.local.LocalGraph`.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql import types as T

from .local import LocalGraph

NODE_SCHEMA = T.StructType(
    [
        T.StructField("id", T.LongType(), False),
        T.StructField("tattrs", T.ArrayType(T.StringType()), False),
        T.StructField("nattrs", T.ArrayType(T.DoubleType()), False),
    ]
)

EDGE_SCHEMA = T.StructType(
    [
        T.StructField("src", T.LongType(), False),
        T.StructField("dst", T.LongType(), False),
    ]
)


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

    def induced(self, ids: List[int]) -> "AttributedGraph":
        """Node-induced subgraph on ``ids``, a driver-side id list such as
        G_q; both frames are filtered with ``isin``."""
        return AttributedGraph(
            self.nodes.where(F.col("id").isin(ids)),
            self.edges.where(F.col("src").isin(ids) & F.col("dst").isin(ids)),
        )

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
