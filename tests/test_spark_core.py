"""Tests for the Spark graph primitives: DuckDB oracles + local twins."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.graphs import (
    AttributedGraph,
    LocalGraph,
    connected_component,
    edge_supports as local_edge_supports,
    ktruss_edges as local_ktruss_edges,
    maximal_connected_kcore,
    maximal_connected_ktruss,
)
from repro.oracle import assert_equivalent
from repro.spark_core import (
    bfs_component,
    connected_kcore,
    connected_ktruss,
    degrees,
    edge_supports,
    kcore_subgraph,
    ktruss_edges,
    prioritized_neighborhood,
    symmetrize,
)


class TestDegrees:
    def test_oracle(self, tiny_spark, tiny_edges_pdf):
        got = degrees(tiny_spark.edges)
        assert_equivalent(
            got,
            """
            SELECT id, COUNT(*)::BIGINT AS degree FROM (
              SELECT src AS id FROM edges
              UNION ALL
              SELECT dst AS id FROM edges
            ) GROUP BY id
            """,
            edges=tiny_edges_pdf,
        )

    def test_matches_local(self, tiny, tiny_spark):
        got = {r.id: r.degree for r in degrees(tiny_spark.edges).collect()}
        want = {v: len(nbrs) for v, nbrs in tiny.graph.adj.items() if nbrs}
        assert got == want

    def test_symmetrize_doubles(self, tiny_spark):
        assert symmetrize(tiny_spark.edges).count() == 2 * tiny_spark.num_edges()


class TestKCore:
    @pytest.mark.parametrize("k", [2, 4, 6])
    def test_matches_local(self, tiny, tiny_spark, k):
        from repro.graphs import kcore_nodes

        ids, _ = kcore_subgraph(tiny_spark.edges, k)
        got = {r.id for r in ids.collect()}
        assert got == kcore_nodes(tiny.graph, k)

    def test_kcore_degrees_hold(self, tiny_spark):
        ids, core_edges = kcore_subgraph(tiny_spark.edges, 5)
        if ids.count() == 0:
            pytest.skip("no 5-core")
        degs = degrees(core_edges)
        assert degs.where(F.col("degree") < 5).count() == 0

    def test_empty_when_k_too_large(self, tiny_spark):
        ids, edges = kcore_subgraph(tiny_spark.edges, 60)
        assert ids.count() == 0 and edges.count() == 0

    def test_connected_kcore_matches_local(self, tiny, tiny_spark):
        q = next(iter(tiny.graph.adj))
        ids, _ = connected_kcore(tiny_spark.edges, q, 3)
        got = {r.id for r in ids.collect()}
        assert got == maximal_connected_kcore(tiny.graph, q, 3)

    def test_connected_kcore_q_missing(self, spark):
        # two 4-cliques, no bridge: q's component only
        edges = [(a, b) for a in range(4) for b in range(a + 1, 4)]
        edges += [(a + 10, b + 10) for a in range(4) for b in range(a + 1, 4)]
        g = AttributedGraph.from_local(spark, LocalGraph.from_edges(edges))
        ids, _ = connected_kcore(g.edges, 0, 3)
        assert {r.id for r in ids.collect()} == {0, 1, 2, 3}


class TestBFS:
    def test_component_matches_local(self, tiny, tiny_spark):
        q = next(iter(tiny.graph.adj))
        got = {r.id for r in bfs_component(symmetrize(tiny_spark.edges), q).collect()}
        assert got == connected_component(tiny.graph, q)

    def test_two_components(self, spark):
        g = AttributedGraph.from_local(
            spark, LocalGraph.from_edges([(0, 1), (1, 2), (5, 6)])
        )
        got = {r.id for r in bfs_component(symmetrize(g.edges), 5).collect()}
        assert got == {5, 6}


class TestTruss:
    def test_support_oracle(self, tiny_spark, tiny_edges_pdf):
        got = edge_supports(tiny_spark.edges)
        assert_equivalent(
            got,
            """
            WITH sym AS (
              SELECT src, dst FROM edges
              UNION ALL SELECT dst, src FROM edges
            )
            SELECT e.src, e.dst,
                   (SELECT COUNT(*) FROM sym s1, sym s2
                    WHERE s1.src = e.src AND s2.src = e.dst
                      AND s1.dst = s2.dst)::BIGINT AS support
            FROM edges e
            """,
            edges=tiny_edges_pdf,
        )

    def test_support_matches_local(self, tiny, tiny_spark):
        got = {
            (r.src, r.dst): r.support for r in edge_supports(tiny_spark.edges).collect()
        }
        assert got == local_edge_supports(tiny.graph)

    @pytest.mark.parametrize("k", [3, 4])
    def test_ktruss_matches_local(self, tiny, tiny_spark, k):
        got = {(r.src, r.dst) for r in ktruss_edges(tiny_spark.edges, k).collect()}
        assert got == local_ktruss_edges(tiny.graph, k)

    def test_connected_ktruss_matches_local(self, tiny, tiny_spark):
        q = next(iter(tiny.graph.adj))
        ids, _ = connected_ktruss(tiny_spark.edges, q, 4)
        got = {r.id for r in ids.collect()}
        assert got == maximal_connected_ktruss(tiny.graph, q, 4)


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
        assert got.count() == 5

    def test_prefers_small_f_in_last_layer(self, star_path):
        g, fv = star_path
        got = {r.id for r in prioritized_neighborhood(symmetrize(g.edges), fv, 0, 4).collect()}
        # layer 1 is 1..6; only 3 admitted: the smallest-f ones 1, 2, 3
        assert got == {0, 1, 2, 3}

    def test_grows_beyond_one_hop(self, star_path):
        g, fv = star_path
        got = {r.id for r in prioritized_neighborhood(symmetrize(g.edges), fv, 0, 9).collect()}
        assert {10, 11}.issubset(got) or 10 in got

    def test_caps_at_component(self, star_path):
        g, fv = star_path
        got = prioritized_neighborhood(symmetrize(g.edges), fv, 0, 50)
        assert got.count() == 10  # whole component, no infinite loop

    def test_includes_query(self, star_path):
        g, fv = star_path
        got = {r.id for r in prioritized_neighborhood(symmetrize(g.edges), fv, 0, 3).collect()}
        assert 0 in got
