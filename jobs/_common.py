"""The SparkSession of the jobs that run Spark.

``sea_query.py`` builds a local SparkSession configured like the test
fixture. ``tables.py`` runs on the driver and starts none.
"""
from pyspark.sql import SparkSession


def session(app: str) -> SparkSession:
    return (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.ui.enabled", "false")
        .getOrCreate()
    )

