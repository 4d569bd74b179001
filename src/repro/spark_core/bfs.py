"""Attribute-prioritised neighbourhood construction (§V-A) as a dataflow.

``G_q`` is grown from the query node by BFS, "preferentially expanding the
search from those nodes having smaller composite attribute distances to q,
until the minimum size of G_q is reached" (paper §V-A). The dataflow
expands one frontier layer per round; when the next layer would overshoot
the Hoeffding minimum size, only its smallest-``f`` nodes are admitted —
layer-granular best-first, which is the natural bulk-synchronous rendering
of the paper's sequential heap expansion.
"""
from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F


def prioritized_neighborhood(
    edges_sym: DataFrame,
    fvals: DataFrame,
    q: int,
    min_size: int,
) -> DataFrame:
    """Grow ``G_q`` to ≥ ``min_size`` nodes (or q's whole component).

    ``edges_sym``: symmetric edges; ``fvals``: ``id, f`` composite
    attribute distances to q (from :mod:`repro.metrics.distance`).
    Returns ``id, f`` for the selected nodes, q included; when q has no
    row in ``fvals`` (it is not in the graph) the result is empty. Each
    round admits at least one unvisited node or stops, so the loop ends
    within |V| rounds.
    """
    spark = edges_sym.sparkSession
    visited = (
        spark.createDataFrame([(q,)], "id long")
        .join(fvals, "id")
        .localCheckpoint()
    )
    frontier = visited.select("id")
    size = 1
    while size < min_size:
        layer = (
            edges_sym.join(frontier.withColumnRenamed("id", "src"), "src")
            .select(F.col("dst").alias("id"))
            .distinct()
            .join(visited.select("id"), "id", "left_anti")
            .join(fvals, "id")
            .localCheckpoint()
        )
        n_layer = layer.count()
        if n_layer == 0:
            break
        room = min_size - size
        if n_layer > room:
            # admit only the closest nodes of the final layer
            w = Window.orderBy(F.col("f").asc(), F.col("id").asc())
            layer = (
                layer.withColumn("rn", F.row_number().over(w))
                .where(F.col("rn") <= room)
                .select("id", "f")
                .localCheckpoint()
            )
            n_layer = room
        visited = visited.unionByName(layer).localCheckpoint()
        frontier = layer.select("id")
        size += n_layer
    return visited
