"""Edge-list dataflow: symmetrisation of the canonical edge list."""
from pyspark.sql import DataFrame
from pyspark.sql import functions as F


def symmetrize(edges: DataFrame) -> DataFrame:
    """Union of both directions of a canonical (src<dst) edge list."""
    e = edges.select("src", "dst")
    return e.unionByName(
        e.select(F.col("dst").alias("src"), F.col("src").alias("dst"))
    )
