"""Tests for composite distance and cohesiveness metrics (local + Spark + oracle)."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.graphs import AttributedGraph, LocalGraph
from repro.metrics import (
    NormStats,
    acq_shared,
    atc_coverage,
    composite_distances,
    composite_distances_local,
    delta,
    f1_score,
    jaccard_distance,
    norm_stats_local,
    norm_stats_spark,
    pair_distance,
    vac_minmax,
)
from repro.oracle import assert_equivalent


class TestJaccard:
    def test_identical(self):
        assert jaccard_distance(frozenset("ab"), frozenset("ab")) == 0.0

    def test_disjoint(self):
        assert jaccard_distance(frozenset("ab"), frozenset("cd")) == 1.0

    def test_partial(self):
        assert jaccard_distance(frozenset("ab"), frozenset("bc")) == pytest.approx(2 / 3)

    def test_both_empty(self):
        assert jaccard_distance(frozenset(), frozenset()) == 0.0

    def test_one_empty(self):
        assert jaccard_distance(frozenset("a"), frozenset()) == 1.0


class TestNormStats:
    def test_local(self):
        g = LocalGraph.from_edges(
            [(0, 1)], nattrs={0: [1.0, 10.0], 1: [3.0, 20.0]}
        )
        s = norm_stats_local(g)
        assert s.mins == (1.0, 10.0) and s.maxs == (3.0, 20.0)

    def test_normalize(self):
        s = NormStats((0.0, 0.0), (2.0, 4.0))
        z = s.normalize(np.array([1.0, 1.0]))
        assert z == pytest.approx([0.5, 0.25])

    def test_constant_dim(self):
        s = NormStats((5.0,), (5.0,))
        assert s.normalize(np.array([5.0])) == pytest.approx([0.0])

    def test_spark_matches_local(self, tiny, tiny_spark):
        sl = norm_stats_local(tiny.graph)
        ss = norm_stats_spark(tiny_spark.nodes)
        assert ss.mins == pytest.approx(sl.mins)
        assert ss.maxs == pytest.approx(sl.maxs)

    def test_empty_dims(self):
        g = LocalGraph.from_edges([(0, 1)], nattrs={0: [], 1: []})
        assert norm_stats_local(g).ndim == 0


class TestPairDistance:
    @pytest.fixture()
    def g(self):
        return LocalGraph.from_edges(
            [(0, 1), (1, 2)],
            tattrs={0: ["a", "b"], 1: ["a", "b"], 2: ["x"]},
            nattrs={0: [0.0], 1: [1.0], 2: [0.5]},
        )

    def test_symmetric(self, g):
        s = norm_stats_local(g)
        assert pair_distance(g, 0, 2, 0.5, s) == pytest.approx(
            pair_distance(g, 2, 0, 0.5, s)
        )

    def test_self_zero(self, g):
        assert pair_distance(g, 0, 0, 0.5, norm_stats_local(g)) == 0.0

    def test_gamma_blend(self, g):
        s = norm_stats_local(g)
        # 0 vs 1: identical tokens (ft=0), numeric 0 vs 1 → fn=1
        assert pair_distance(g, 0, 1, 1.0, s) == 0.0
        assert pair_distance(g, 0, 1, 0.0, s) == pytest.approx(1.0)
        assert pair_distance(g, 0, 1, 0.3, s) == pytest.approx(0.7)

    def test_bounded(self, g):
        s = norm_stats_local(g)
        for u in g.adj:
            for v in g.adj:
                assert 0.0 <= pair_distance(g, u, v, 0.5, s) <= 1.0


class TestCompositeDistances:
    def test_spark_matches_local(self, tiny, tiny_spark):
        q = sorted(tiny.graph.adj)[0]
        local = composite_distances_local(tiny.graph, q, 0.5)
        got = {r.id: r.f for r in composite_distances(tiny_spark, q, 0.5).collect()}
        assert set(got) == set(local)
        for v in local:
            assert got[v] == pytest.approx(local[v], abs=1e-9)

    def test_query_distance_zero(self, tiny, tiny_spark):
        q = sorted(tiny.graph.adj)[5]
        got = dict(
            composite_distances(tiny_spark, q, 0.5)
            .where(F.col("id") == q)
            .collect()[0].asDict().items()
        )
        assert got["f"] == pytest.approx(0.0)

    def test_community_members_closer(self, tiny):
        q = sorted(tiny.graph.adj)[0]
        f = composite_distances_local(tiny.graph, q, 0.5)
        comm = tiny.community_of(q)
        inside = np.mean([f[v] for v in comm if v != q])
        outside = np.mean([f[v] for v in tiny.graph.adj if v not in comm])
        assert inside < outside

    def test_jaccard_oracle(self, tiny, tiny_spark):
        """γ=1 distance (pure Jaccard) against a DuckDB token-table oracle."""
        q = sorted(tiny.graph.adj)[3]
        toks = pd.DataFrame(
            [(v, t) for v in tiny.graph.adj for t in tiny.graph.tattrs[v]],
            columns=["id", "token"],
        )
        got = composite_distances(tiny_spark, q, gamma=1.0)
        assert_equivalent(
            got,
            f"""
            WITH qt AS (SELECT token FROM toks WHERE id = {q}),
                 inter AS (
                   SELECT t.id, COUNT(*) AS c FROM toks t
                   JOIN qt USING (token) GROUP BY t.id
                 ),
                 sizes AS (SELECT id, COUNT(*) AS s FROM toks GROUP BY id)
            SELECT s.id,
                   1.0 - COALESCE(i.c, 0)::DOUBLE
                         / (s.s + (SELECT COUNT(*) FROM qt) - COALESCE(i.c, 0))
                     AS f
            FROM sizes s LEFT JOIN inter i USING (id)
            """,
            toks=toks,
        )

    def test_manhattan_oracle(self, tiny, tiny_spark):
        """γ=0 distance (pure normalised Manhattan) against a DuckDB oracle."""
        q = sorted(tiny.graph.adj)[4]
        nv = pd.DataFrame(
            [
                (v, i, float(x))
                for v in tiny.graph.adj
                for i, x in enumerate(tiny.graph.nattrs[v])
            ],
            columns=["id", "pos", "val"],
        )
        got = composite_distances(tiny_spark, q, gamma=0.0)
        assert_equivalent(
            got,
            f"""
            WITH st AS (SELECT pos, MIN(val) mn, MAX(val) mx FROM nv GROUP BY pos),
                 z AS (
                   SELECT id, nv.pos,
                          CASE WHEN mx > mn THEN (val - mn) / (mx - mn) ELSE 0 END zv
                   FROM nv JOIN st USING (pos)
                 ),
                 qz AS (SELECT pos, zv AS qv FROM z WHERE id = {q})
            SELECT z.id, AVG(ABS(z.zv - qz.qv)) AS f
            FROM z JOIN qz USING (pos) GROUP BY z.id
            """,
            nv=nv,
        )


class TestDelta:
    def test_simple(self):
        f = {1: 0.2, 2: 0.4, 3: 0.9}
        assert delta(f, {1, 2}, q=0) == pytest.approx(0.3)

    def test_excludes_q(self):
        f = {0: 0.0, 1: 0.5}
        assert delta(f, {0, 1}, q=0) == pytest.approx(0.5)

    def test_singleton(self):
        assert delta({0: 0.0}, {0}, q=0) == 0.0

    def test_fig3_example(self):
        """The running example of §IV: δ(H̃₂) = (0.7+0.6+0.6+0.5+0.3)/5."""
        f = {1: 0.7, 2: 0.6, 3: 0.6, 4: 0.5, 6: 0.3, 5: 0.0}
        assert delta(f, {1, 2, 3, 4, 5, 6}, q=5) == pytest.approx(0.54)


class TestCohesivenessMetrics:
    @pytest.fixture()
    def g(self):
        return LocalGraph.from_edges(
            [(0, 1), (0, 2), (1, 2), (2, 3)],
            tattrs={0: ["m", "c", "d"], 1: ["m", "c"], 2: ["m", "d"], 3: ["x"]},
            nattrs={v: [v / 3] for v in range(4)},
        )

    def test_atc_coverage(self, g):
        # community {0,1,2}: m covered by 3, c by 2, d by 2 → 9/3+4/3+4/3
        assert atc_coverage(g, {0, 1, 2}, q=0) == pytest.approx((9 + 4 + 4) / 3)

    def test_atc_empty(self, g):
        assert atc_coverage(g, set(), 0) == 0.0

    def test_acq_shared_all(self, g):
        # all of {0,1} share m and c → 2 of q's 3 attrs
        assert acq_shared(g, {0, 1}, q=0) == pytest.approx(2 / 3)

    def test_acq_shared_none(self, g):
        assert acq_shared(g, {0, 3}, q=0) == 0.0

    def test_vac_minmax_dominated_by_worst_pair(self, g):
        s = norm_stats_local(g)
        m = vac_minmax(g, {0, 1, 2, 3}, 0.5, s)
        worst = max(
            pair_distance(g, u, v, 0.5, s)
            for u in range(4)
            for v in range(u + 1, 4)
        )
        assert m == pytest.approx(worst)

    def test_vac_singleton(self, g):
        assert vac_minmax(g, {0}, 0.5) == 0.0


class TestF1:
    def test_perfect(self):
        assert f1_score({1, 2, 3}, {1, 2, 3}) == 1.0

    def test_disjoint(self):
        assert f1_score({1}, {2}) == 0.0

    def test_partial(self):
        # precision 1/2, recall 1/3
        assert f1_score({1, 9}, {1, 2, 3}) == pytest.approx(0.4)

    def test_empty(self):
        assert f1_score(set(), {1}) == 0.0
