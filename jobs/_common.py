"""Shared plumbing for the per-table jobs.

Each job runs one table harness and prints the table. The jobs that run
Spark (Table I, the SEA query demo) build a local SparkSession configured
like the test fixture — broadcast joins disabled so the shuffle paths are
the ones exercised; Tables II–VI run on the driver and start none.
"""
import argparse

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


def std_parser(desc: str) -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=desc)
    p.add_argument("--queries", type=int, default=5, help="queries per dataset")
    p.add_argument("--k", type=int, default=None, help="community parameter k")
    p.add_argument("--seed", type=int, default=3, help="query-selection seed")
    return p
