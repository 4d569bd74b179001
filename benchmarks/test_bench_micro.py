"""Micro-benchmarks: the per-query costs behind the tables.

SEA vs the exact/baseline methods on a fixed facebook query (the Fig. 5c
response-time comparison at our scale; SEA's time includes computing
f(·,q) for the nodes its G_q search reaches; Exact on both community
models), the f kernel alone (in the batches SEA's best-first BFS asks
for, and VAC's worst-pair scan), plus the Spark SEA front end: its G_q
BFS alone and the whole query.
"""
import pytest

import repro.core.sea as sea_module
from repro.baselines import locatc_search, vac_search
from repro.core import SEAParams, exact_cs, sea_search
from repro.experiments import pick_queries, prepare
from repro.graphs import community_model
from repro.metrics import composite_distances_local, worst_pair


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
def test_exact_truss_single_query(benchmark, fb_ctx):
    """Exact on the k-truss model, where every child recomputes the truss."""
    prep, q = fb_ctx
    r = benchmark.pedantic(
        lambda: exact_cs(prep.graph, q, 5, gamma=prep.gamma, stats=prep.stats,
                         model="truss"),
        rounds=3, iterations=1,
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


@pytest.mark.benchmark(group="f-kernel")
def test_f_in_sea_bfs_batches(benchmark, fb_ctx, monkeypatch):
    """f(·,q) for the batches of nodes SEA's best-first BFS requests on
    the facebook query: q alone, then each expanded node's new neighbours."""
    prep, q = fb_ctx
    batches = []

    def record(g, q, gamma, stats, nodes):
        batches.append(list(nodes))
        return composite_distances_local(g, q, gamma, stats, nodes=batches[-1])

    monkeypatch.setattr(sea_module, "composite_distances_local", record)
    min_gq = sea_module._min_gq(prep.graph.num_nodes, SEAParams(k=5, gamma=prep.gamma))
    sea_module._best_first_neighborhood(prep.graph, q, prep.gamma, prep.stats, min_gq)
    monkeypatch.undo()

    def run():
        for nodes in batches:
            composite_distances_local(prep.graph, q, prep.gamma, prep.stats, nodes=nodes)

    benchmark(run)
    assert len(batches) > 1


@pytest.mark.benchmark(group="f-kernel")
def test_worst_pair_on_vac_root(benchmark, fb_ctx):
    """VAC's first worst-pair scan: the query's maximal connected k-core."""
    prep, q = fb_ctx
    root = community_model("core").maximal(prep.graph, q, 5)
    m, u, v = benchmark(lambda: worst_pair(prep.graph, root, prep.gamma, prep.stats))
    assert u < v and m >= 0


@pytest.mark.benchmark(group="spark-dataflow")
def test_spark_gq_bfs(benchmark, spark):
    """The Spark G_q BFS as ``sea_search_spark`` runs it: the facebook
    query, its Hoeffding ``min_gq``, one collect of node rows with their
    neighbour lists per layer, and f(·,q) computed on the driver only for
    the nodes reached."""
    from repro.core.sea import _min_gq
    from repro.graphs import AttributedGraph
    from repro.spark_core import prioritized_neighborhood

    prep = prepare("facebook")
    q = pick_queries(prep, 5, 1, 3)[0]
    ag = AttributedGraph.from_local(spark, prep.graph).cache()
    min_gq = _min_gq(prep.graph.num_nodes, SEAParams(k=5, gamma=prep.gamma))
    stats = ag.stats

    gq, _ = benchmark.pedantic(
        lambda: prioritized_neighborhood(ag.nodes, q, prep.gamma, stats, min_gq),
        rounds=2, iterations=1,
    )
    assert len(gq) == min_gq


@pytest.mark.benchmark(group="spark-dataflow")
def test_spark_sea_end_to_end(benchmark, spark):
    """One Spark SEA query on the facebook stand-in, after one untimed
    warm-up query has filled the node frame's cache."""
    from repro.core import sea_search_spark
    from repro.graphs import AttributedGraph

    prep = prepare("facebook")
    q = pick_queries(prep, 5, 1, 3)[0]
    ag = AttributedGraph.from_local(spark, prep.graph).cache()
    params = SEAParams(k=5, gamma=prep.gamma, e=0.1, seed=q)
    sea_search_spark(ag, q, params)

    r = benchmark.pedantic(
        lambda: sea_search_spark(ag, q, params), rounds=1, iterations=1
    )
    assert r.community
