"""Iterative k-core peeling and connected k-core extraction as dataflows.

The classic core-decomposition peel ("recursively remove nodes with degree
< k") maps onto a loop of DataFrame aggregations: compute degrees, drop
low-degree nodes, restrict edges, repeat until the node count is stable.
``localCheckpoint`` truncates lineage every round so plans stay flat.
"""
from typing import Optional, Tuple

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from .degrees import degrees, restrict_edges, symmetrize


def kcore_subgraph(
    edges: DataFrame, k: int, max_iter: int = 100
) -> Tuple[DataFrame, DataFrame]:
    """Maximal (possibly disconnected) k-core of a canonical edge list.

    Returns ``(node_ids, edges)`` of the k-core; both may be empty. Each
    peeling round removes *all* nodes currently under degree k at once, so
    convergence needs few rounds even for long peeling chains.
    """
    cur = edges.select("src", "dst").localCheckpoint()
    prev_count = -1
    for _ in range(max_iter):
        deg = degrees(cur)
        keep = deg.where(F.col("degree") >= k).select("id")
        cur = restrict_edges(cur, keep).localCheckpoint()
        n = cur.count()
        if n == prev_count:
            break
        prev_count = n
    ids = (
        symmetrize(cur)
        .select(F.col("src").alias("id"))
        .distinct()
        .localCheckpoint()
    )
    return ids, cur


def bfs_component(edges_sym: DataFrame, q: int, max_iter: int = 200) -> DataFrame:
    """Connected component of ``q`` by frontier BFS over symmetric edges.

    Returns one ``id`` column. Each round joins the frontier against the
    adjacency and anti-joins the visited set; lineage is checkpointed.
    """
    spark = edges_sym.sparkSession
    visited = spark.createDataFrame([(q,)], "id long").localCheckpoint()
    frontier = visited
    for _ in range(max_iter):
        nxt = (
            edges_sym.join(frontier.withColumnRenamed("id", "src"), "src")
            .select(F.col("dst").alias("id"))
            .distinct()
            .join(visited, "id", "left_anti")
            .localCheckpoint()
        )
        if nxt.count() == 0:
            break
        visited = visited.unionByName(nxt).localCheckpoint()
        frontier = nxt
    return visited


def connected_kcore(
    edges: DataFrame, q: int, k: int, max_iter: int = 100
) -> Tuple[DataFrame, DataFrame]:
    """Maximal connected k-core containing ``q``: (node_ids, edges).

    Peels to the k-core first, then takes q's component (inside a
    component every neighbour is in the same component, so degrees are
    unchanged by the restriction). Empty frames when q drops out.
    """
    ids, core_edges = kcore_subgraph(edges, k, max_iter)
    if ids.where(F.col("id") == q).count() == 0:
        empty_ids = ids.limit(0)
        return empty_ids, core_edges.limit(0)
    comp = bfs_component(symmetrize(core_edges), q)
    return comp, restrict_edges(core_edges, comp)
