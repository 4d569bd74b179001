"""Triangle support and k-truss peeling as Spark dataflows.

Triangles are enumerated once per peeling round with the canonical
ordered-join pattern (a<b<c): join (a,b)⋈(b,c) then close with (a,c).
Each triangle contributes support to its three edges; edges under k−2
are dropped and the loop repeats until stable.
"""
from typing import Tuple

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from .degrees import restrict_edges, symmetrize


def edge_supports(edges: DataFrame) -> DataFrame:
    """Support (triangle count) per canonical edge: ``src, dst, support``.

    Edges in no triangle get support 0.
    """
    e = edges.select("src", "dst")
    ab = e.alias("ab")
    bc = e.alias("bc")
    ac = e.alias("ac")
    tri = (
        ab.join(bc, F.col("ab.dst") == F.col("bc.src"))
        .join(
            ac,
            (F.col("ab.src") == F.col("ac.src"))
            & (F.col("bc.dst") == F.col("ac.dst")),
        )
        .select(
            F.col("ab.src").alias("a"),
            F.col("ab.dst").alias("b"),
            F.col("bc.dst").alias("c"),
        )
    )
    sides = (
        tri.select(F.col("a").alias("src"), F.col("b").alias("dst"))
        .unionByName(tri.select(F.col("b").alias("src"), F.col("c").alias("dst")))
        .unionByName(tri.select(F.col("a").alias("src"), F.col("c").alias("dst")))
    )
    counts = sides.groupBy("src", "dst").agg(F.count("*").alias("support"))
    return e.join(counts, ["src", "dst"], "left").select(
        "src", "dst", F.coalesce("support", F.lit(0)).alias("support")
    )


def ktruss_edges(edges: DataFrame, k: int, max_iter: int = 100) -> DataFrame:
    """Canonical edges of the maximal k-truss (support ≥ k−2 everywhere)."""
    need = max(0, k - 2)
    cur = edges.select("src", "dst").localCheckpoint()
    prev = -1
    for _ in range(max_iter):
        cur = (
            edge_supports(cur)
            .where(F.col("support") >= need)
            .select("src", "dst")
            .localCheckpoint()
        )
        n = cur.count()
        if n == prev:
            break
        prev = n
    return cur


def connected_ktruss(edges: DataFrame, q: int, k: int) -> Tuple[DataFrame, DataFrame]:
    """Connected k-truss community of ``q``: (node_ids, edges)."""
    from .kcore import bfs_component  # local import to avoid cycle

    te = ktruss_edges(edges, k)
    touching_q = te.where((F.col("src") == q) | (F.col("dst") == q))
    if touching_q.count() == 0:
        empty = te.limit(0)
        return empty.select(F.col("src").alias("id")).limit(0), empty
    comp = bfs_component(symmetrize(te), q)
    return comp, restrict_edges(te, comp)
