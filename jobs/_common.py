"""The SparkSession of the jobs that run Spark.

``sea_query.py`` builds a local SparkSession configured like the test
fixture — broadcast joins disabled so the shuffle paths are the ones
exercised. ``tables.py`` runs on the driver and starts none.
"""
from pyspark.sql import SparkSession


def session(app: str) -> SparkSession:
    return (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.enabled", "false")
        .getOrCreate()
    )

