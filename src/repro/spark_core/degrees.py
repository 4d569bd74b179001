"""Edge-list dataflows: symmetrisation, restriction to a node set, degrees."""
from pyspark.sql import DataFrame
from pyspark.sql import functions as F


def symmetrize(edges: DataFrame) -> DataFrame:
    """Union of both directions of a canonical (src<dst) edge list."""
    e = edges.select("src", "dst")
    return e.unionByName(
        e.select(F.col("dst").alias("src"), F.col("src").alias("dst"))
    )


def restrict_edges(edges: DataFrame, ids: DataFrame) -> DataFrame:
    """Edges whose endpoints are both in ``ids`` (an ``id`` column), with
    every column of ``edges`` kept."""
    return (
        edges.join(ids.withColumnRenamed("id", "src"), "src")
        .join(ids.withColumnRenamed("id", "dst"), "dst")
        .select(edges.columns)
    )


def degrees(edges: DataFrame) -> DataFrame:
    """Per-node degree from a canonical undirected edge list.

    Returns ``id: long, degree: long``. Nodes with no edges do not appear
    (join against the node table and ``coalesce`` to 0 when needed).
    """
    return (
        symmetrize(edges)
        .groupBy(F.col("src").alias("id"))
        .agg(F.count("*").alias("degree"))
    )
