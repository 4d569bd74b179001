"""Micro-benchmarks: the per-query costs behind the tables.

SEA vs the exact/baseline methods on a fixed facebook query (the Fig. 5c
response-time comparison at our scale; SEA's time includes computing
f(·,q) for the nodes its G_q search reaches), plus the Spark SEA front
end: its G_q BFS alone and the whole query.
"""
import pytest

from repro.baselines import locatc_search, vac_search
from repro.core import SEAParams, exact_cs, sea_search
from repro.experiments import pick_queries, prepare


@pytest.fixture(scope="module")
def fb_ctx():
    prep = prepare("facebook")
    return prep, pick_queries(prep, 5, 1, 3)[0]


@pytest.mark.benchmark(group="per-query")
def test_sea_single_query(benchmark, fb_ctx):
    prep, q = fb_ctx
    r = benchmark(
        lambda: sea_search(
            prep.graph, q,
            SEAParams(k=5, gamma=prep.gamma, e=0.1, seed=q),
            stats=prep.stats,
        )
    )
    assert r.community


@pytest.mark.benchmark(group="per-query")
def test_exact_single_query(benchmark, fb_ctx):
    prep, q = fb_ctx
    r = benchmark.pedantic(
        lambda: exact_cs(prep.graph, q, 5, gamma=prep.gamma, stats=prep.stats),
        rounds=1, iterations=1,
    )
    assert r.community


@pytest.mark.benchmark(group="per-query")
def test_locatc_single_query(benchmark, fb_ctx):
    prep, q = fb_ctx
    r = benchmark(lambda: locatc_search(prep.graph, q, 5))
    assert r.community


@pytest.mark.benchmark(group="per-query")
def test_vac_single_query(benchmark, fb_ctx):
    prep, q = fb_ctx
    r = benchmark.pedantic(
        lambda: vac_search(prep.graph, q, 5, gamma=prep.gamma, stats=prep.stats),
        rounds=2, iterations=1,
    )
    assert r.community


@pytest.mark.benchmark(group="spark-dataflow")
def test_spark_gq_bfs(benchmark, spark):
    """The Spark G_q BFS as ``sea_search_spark`` runs it: the facebook
    query, its Hoeffding ``min_gq``, f(·,q) only for the nodes reached."""
    from repro.core.sea import _min_gq
    from repro.graphs import AttributedGraph
    from repro.metrics import composite_distances, norm_stats_spark
    from repro.spark_core import prioritized_neighborhood, symmetrize

    prep = prepare("facebook")
    q = pick_queries(prep, 5, 1, 3)[0]
    ag = AttributedGraph.from_local(spark, prep.graph).cache()
    min_gq = _min_gq(prep.graph.num_nodes, SEAParams(k=5, gamma=prep.gamma))
    fdf = composite_distances(ag, q, prep.gamma, norm_stats_spark(ag.nodes))

    gq = benchmark.pedantic(
        lambda: prioritized_neighborhood(symmetrize(ag.edges), fdf, q, min_gq),
        rounds=2, iterations=1,
    )
    assert len(gq) == min_gq


@pytest.mark.benchmark(group="spark-dataflow")
def test_spark_sea_end_to_end(benchmark, spark):
    from repro.core import sea_search_spark
    from repro.graphs import AttributedGraph

    prep = prepare("facebook")
    q = pick_queries(prep, 5, 1, 3)[0]
    ag = AttributedGraph.from_local(spark, prep.graph).cache()
    ag.num_edges()

    r = benchmark.pedantic(
        lambda: sea_search_spark(
            ag, q, SEAParams(k=5, gamma=prep.gamma, e=0.1, seed=q)
        ),
        rounds=1, iterations=1,
    )
    assert r.community
