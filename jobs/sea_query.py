"""Run one SEA query end-to-end through the Spark dataflow path.

The norm stats, the Hoeffding-sized prioritised BFS (two filtered
collects per layer: neighbour ids, then f(·,q) for the new ones) and the
G_q-induced edges are read as Spark DataFrame jobs (``sea_search_spark``);
the BFS loop state and the sample-estimate loop live on the driver.

    spark-submit jobs/sea_query.py [--dataset facebook] [--k 5] [--e 0.1]
"""
import argparse

from _common import session

from repro.core import SEAParams, sea_search_spark
from repro.experiments import pick_queries, prepare
from repro.graphs import AttributedGraph


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("--dataset", default="facebook")
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--e", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args()

    spark = session("sea-query")
    prep = prepare(args.dataset)
    q = pick_queries(prep, args.k, 1, args.seed)[0]
    ag = AttributedGraph.from_local(spark, prep.graph).cache()
    r = sea_search_spark(
        ag, q, SEAParams(k=args.k, gamma=prep.gamma, e=args.e, seed=args.seed)
    )
    print(
        f"dataset={args.dataset} q={q} k={args.k}: |H|="
        f"{len(r.community or ())} delta*={r.delta_star:.4f} "
        f"moe={r.moe:.4f} satisfied={r.satisfied} "
        f"|G_q|={r.gq_size} rounds={len(r.rounds)} "
        f"elapsed={r.elapsed_s:.2f}s"
    )
    spark.stop()


if __name__ == "__main__":
    main()
