"""Tests for the Spark dataflows of the Spark SEA front end: edge
symmetrisation and the prioritised G_q BFS."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.graphs import AttributedGraph, LocalGraph
from repro.metrics import composite_distances, composite_distances_local
from repro.spark_core import prioritized_neighborhood, symmetrize


class TestDegrees:
    """The edge-list module ``spark_core.degrees``."""

    def test_symmetrize_doubles(self, tiny_spark):
        assert symmetrize(tiny_spark.edges).count() == 2 * tiny_spark.num_edges()


class TestPrioritizedNeighborhood:
    @pytest.fixture(scope="class")
    def star_path(self, spark):
        # q=0 connected to 1..6; 1 connected to a chain 10-11-12
        edges = [(0, i) for i in range(1, 7)] + [(1, 10), (10, 11), (11, 12)]
        g = AttributedGraph.from_local(spark, LocalGraph.from_edges(edges))
        fv = spark.createDataFrame(
            pd.DataFrame({"id": [0, 1, 2, 3, 4, 5, 6, 10, 11, 12],
                          "f": [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.15, 0.2, 0.9]})
        )
        return g, fv

    def test_reaches_min_size(self, star_path):
        g, fv = star_path
        got = prioritized_neighborhood(symmetrize(g.edges), fv, 0, 5)
        assert len(got) == 5

    def test_prefers_small_f_in_last_layer(self, star_path):
        g, fv = star_path
        got = set(prioritized_neighborhood(symmetrize(g.edges), fv, 0, 4))
        # layer 1 is 1..6; only 3 admitted: the smallest-f ones 1, 2, 3
        assert got == {0, 1, 2, 3}

    def test_grows_beyond_one_hop(self, star_path):
        g, fv = star_path
        got = set(prioritized_neighborhood(symmetrize(g.edges), fv, 0, 9))
        # layer 1 is 1..6, layer 2 is {10}, layer 3 is {11}
        assert got == {0, 1, 2, 3, 4, 5, 6, 10, 11}

    def test_caps_at_component(self, star_path):
        g, fv = star_path
        got = prioritized_neighborhood(symmetrize(g.edges), fv, 0, 50)
        assert len(got) == 10  # whole component, no infinite loop

    def test_includes_query(self, star_path):
        g, fv = star_path
        got = set(prioritized_neighborhood(symmetrize(g.edges), fv, 0, 3))
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
    edges_sym = symmetrize(tiny_spark.edges)
    fdf = composite_distances(tiny_spark, q, 0.5)
    for n in (2, 10, 40, tiny.graph.num_nodes + 1):
        got = prioritized_neighborhood(edges_sym, fdf, q, n)
        want = layer_bfs(tiny.graph, q, n)
        assert set(got) == set(want), n
        assert all(abs(got[v] - want[v]) <= 1e-9 for v in want), n


def test_distance_filter_runs_below_q_join(tiny_spark):
    """A BFS layer's ``id`` filter is applied to the node rows before the
    cross join with q, so f is evaluated only for the nodes asked about."""
    fdf = composite_distances(tiny_spark, 0, 0.5).where(F.col("id").isin([1, 2]))
    plan = fdf._jdf.queryExecution().optimizedPlan().toString()
    assert plan.index("Join Cross") < plan.index("Filter id#")
