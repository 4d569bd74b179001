"""Edge-list dataflows: symmetrisation and restriction to a node set."""
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

