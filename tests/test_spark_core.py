"""Tests for the Spark dataflow of the Spark SEA front end: the
prioritised G_q BFS, its f(·,q), the edges it returns and its one
Spark job per layer, and the per-graph facts an ``AttributedGraph``
records so a query reads only G_q."""
import networkx as nx
import pytest

from repro.core import SEAParams, sea_search_spark
from repro.core.sea import _min_gq
from repro.experiments import pick_queries, prepare
from repro.graphs import AttributedGraph, LocalGraph
from repro.metrics import NormStats, composite_distances_local, norm_stats_local
from repro.spark_core import prioritized_neighborhood


class TestPrioritizedNeighborhood:
    @pytest.fixture(scope="class")
    def star_path(self, spark):
        # q=0 connected to 1..6; 1 connected to a chain 10-11-12. Each node
        # has one numerical attribute, its f: at γ=0 with the unit span
        # below, f(v,0) is that attribute exactly
        edges = [(0, i) for i in range(1, 7)] + [(1, 10), (10, 11), (11, 12)]
        f = {0: 0.0, 1: 0.1, 2: 0.2, 3: 0.3, 4: 0.4, 5: 0.5, 6: 0.6,
             10: 0.15, 11: 0.2, 12: 0.9}
        g = LocalGraph.from_edges(edges, nattrs={v: [x] for v, x in f.items()})
        return AttributedGraph.from_local(spark, g)

    @staticmethod
    def grow(g, min_size):
        gq, _ = prioritized_neighborhood(
            g.nodes, 0, 0.0, NormStats((0.0,), (1.0,)), min_size
        )
        return gq

    def test_reaches_min_size(self, star_path):
        got = self.grow(star_path, 5)
        assert len(got) == 5

    def test_prefers_small_f_in_last_layer(self, star_path):
        got = set(self.grow(star_path, 4))
        # layer 1 is 1..6; only 3 admitted: the smallest-f ones 1, 2, 3
        assert got == {0, 1, 2, 3}

    def test_grows_beyond_one_hop(self, star_path):
        got = set(self.grow(star_path, 9))
        # layer 1 is 1..6, layer 2 is {10}, layer 3 is {11}
        assert got == {0, 1, 2, 3, 4, 5, 6, 10, 11}

    def test_caps_at_component(self, star_path):
        got = self.grow(star_path, 50)
        assert len(got) == 10  # whole component, no infinite loop

    def test_includes_query(self, star_path):
        got = set(self.grow(star_path, 3))
        assert 0 in got


def layer_bfs(g, q, min_size):
    """Driver reference for the Spark G_q: whole BFS layers from q, the
    last one cut to its smallest (f, id) pairs."""
    f = composite_distances_local(g, q, 0.5)
    gq, frontier = {q}, [q]
    while frontier and len(gq) < min_size:
        layer = {u for v in frontier for u in g.adj[v]} - gq
        frontier = sorted(layer, key=lambda u: (f[u], u))[: min_size - len(gq)]
        gq.update(frontier)
    return {v: f[v] for v in gq}


@pytest.mark.parametrize("q", [0, 23, 47, 71])
def test_matches_driver_reference(tiny, tiny_spark, q):
    stats = tiny_spark.stats
    for n in (2, 10, 40, tiny.graph.num_nodes + 1):
        got, edges = prioritized_neighborhood(tiny_spark.nodes, q, 0.5, stats, n)
        want = layer_bfs(tiny.graph, q, n)
        assert set(got) == set(want), n
        assert all(got[v] == want[v] for v in want), n
        # G_q's own edges, each exactly once
        assert sorted(e for e in edges if e[0] in got and e[1] in got) == sorted(
            (v, u) for v in want for u in tiny.graph.adj[v] if u in want and v < u
        ), n


def hops(g, q):
    """The hop distance from q of every node of q's component."""
    return nx.single_source_shortest_path_length(
        nx.Graph([(v, u) for v in g.adj for u in g.adj[v]]), q
    )


@pytest.mark.parametrize("q", [0, 23, 47, 71])
def test_edges_are_gq_pairs_once(tiny, tiny_spark, q):
    """The returned edges are exactly G_q's adjacent pairs (v, u), v < u,
    each once; their order carries nothing."""
    for n in (10, 40):
        got, edges = prioritized_neighborhood(tiny_spark.nodes, q, 0.5, tiny_spark.stats, n)
        want = [(v, u) for v in got for u in tiny.graph.adj[v] if v < u and u in got]
        assert sorted(edges) == sorted(want), n


def test_f_equals_driver_f_on_16_dims(spark):
    """On a numerical-only graph with d=16, every f the Spark BFS returns
    is the driver's f bit for bit, as ``sea_search_spark`` calls it."""
    prep = prepare("dbpedia")
    ag = AttributedGraph.from_local(spark, prep.graph).cache()
    stats = ag.stats
    min_gq = _min_gq(prep.graph.num_nodes, SEAParams(k=4, gamma=prep.gamma))
    for q in pick_queries(prep, 4, 3, 1):
        got, _ = prioritized_neighborhood(ag.nodes, q, prep.gamma, stats, min_gq)
        want = composite_distances_local(
            prep.graph, q, prep.gamma, norm_stats_local(prep.graph), nodes=got
        )
        assert len(got) == min_gq
        assert got == want, q


def test_query_runs_no_count_or_aggregate(tiny, tiny_spark, monkeypatch):
    """|V| and the norm-stat bounds are recorded when the frames are
    built: they equal the driver's, and a Spark SEA query answers with
    every count and aggregate of its frames raising."""
    ag = tiny_spark
    assert ag.stats == norm_stats_local(tiny.graph)  # the bounds only
    assert ag.num_nodes() == tiny.graph.num_nodes

    def forbidden(*args, **kwargs):
        raise AssertionError("a query ran a count or an aggregate")

    frame = type(ag.nodes)
    for name in ("count", "groupBy", "agg"):
        monkeypatch.setattr(frame, name, forbidden)
    r = sea_search_spark(ag, 0, SEAParams(k=4, e=0.25, seed=1))
    assert r.community is not None and 0 in r.community


def test_one_job_per_layer(tiny, tiny_spark, monkeypatch):
    """A Spark SEA query runs one Spark job for q's row and one per BFS
    layer, and |E| is a recorded fact: ``num_edges()`` runs no count."""
    q, p = 0, SEAParams(k=4, e=0.25, seed=1)
    gq = layer_bfs(tiny.graph, q, _min_gq(tiny.graph.num_nodes, p))
    hop = hops(tiny.graph, q)
    layers = max(hop[v] for v in gq)
    sc = tiny_spark.nodes.sparkSession.sparkContext
    sc.setJobGroup("one-job-per-layer", "sea_search_spark")
    try:
        r = sea_search_spark(tiny_spark, q, p)
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    assert r.gq_size == len(gq) and layers >= 2
    assert len(sc.statusTracker().getJobIdsForGroup("one-job-per-layer")) == 1 + layers

    def forbidden(*args, **kwargs):
        raise AssertionError("num_edges() ran a count")

    monkeypatch.setattr(type(tiny_spark.nodes), "count", forbidden)
    assert tiny_spark.num_edges() == tiny.graph.num_edges
