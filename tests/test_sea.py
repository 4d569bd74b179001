"""Tests for the SEA sampling-estimation pipeline (§V) and extensions (§VI)."""
import numpy as np
import pytest

from repro.core import SEAParams, exact_cs, sea_search, sea_search_spark
from repro.core.sea import _best_first_neighborhood, _weighted_sample
from repro.graphs import maximal_connected_kcore, maximal_connected_ktruss
from repro.graphs.generator import planted_homogeneous
from repro.metrics import (
    DEFAULT_GAMMA,
    composite_distances_local,
    delta,
    norm_stats_local,
)


@pytest.fixture(scope="module")
def gen():
    return planted_homogeneous(n_comms=5, comm_size=18, p_in=0.5, m_out=60, seed=77)


@pytest.fixture(scope="module")
def q(gen):
    from repro.graphs import core_decomposition

    cor = core_decomposition(gen.graph)
    return next(v for v in sorted(gen.communities) if cor[v] >= 5)


class TestNeighborhood:
    @pytest.fixture(scope="class")
    def stats(self, gen):
        return norm_stats_local(gen.graph)

    def test_best_first_order(self, gen, q, stats):
        out, _ = _best_first_neighborhood(gen.graph, q, DEFAULT_GAMMA, stats, 10)
        assert out[0] == q and len(out) == 10
        assert len(set(out)) == 10

    def test_prefers_close_nodes(self, gen, q, stats):
        f = composite_distances_local(gen.graph, q)
        out, _ = _best_first_neighborhood(gen.graph, q, DEFAULT_GAMMA, stats, 15)
        rest = [v for v in gen.graph.adj if v not in out]
        assert np.mean([f[v] for v in out[1:]]) < np.mean([f[v] for v in rest])

    def test_caps_at_component(self, gen, q, stats):
        from repro.graphs import connected_component

        comp = connected_component(gen.graph, q)
        out, _ = _best_first_neighborhood(gen.graph, q, DEFAULT_GAMMA, stats, 10**6)
        assert set(out) == comp

    def test_lazy_f_matches_whole_graph(self, gen, q, stats):
        """The f values the BFS computes are the all-node pass's, bit for bit."""
        f = composite_distances_local(gen.graph, q)
        out, fv = _best_first_neighborhood(gen.graph, q, DEFAULT_GAMMA, stats, 40)
        assert set(out) <= set(fv)
        assert fv == {v: f[v] for v in fv}

    def test_f_only_where_read(self, monkeypatch):
        """sea_search asks for f(v,q) once per node it reaches, for every
        G_q node, and for fewer than |V| nodes when G_q is much smaller."""
        import repro.core.sea as sea_mod
        from repro.graphs import core_decomposition

        big = planted_homogeneous(n_comms=60, comm_size=20, p_in=0.5, m_out=200, seed=5)
        cor = core_decomposition(big.graph)
        q = next(v for v in sorted(big.communities) if cor[v] >= 5)
        asked, seen_gq = [], []
        real_f, real_loop = sea_mod.composite_distances_local, sea_mod._sample_estimate_loop

        def counting_f(g, q, gamma, stats, nodes=None):
            nodes = list(g.adj) if nodes is None else list(nodes)
            asked.extend(nodes)
            return real_f(g, q, gamma, stats, nodes=nodes)

        def capturing_loop(g, q, params, fvals, gq, *args, **kwargs):
            seen_gq.extend(gq)
            return real_loop(g, q, params, fvals, gq, *args, **kwargs)

        monkeypatch.setattr(sea_mod, "composite_distances_local", counting_f)
        monkeypatch.setattr(sea_mod, "_sample_estimate_loop", capturing_loop)
        r = sea_search(big.graph, q, SEAParams(k=4, seed=1))
        assert r.community and len(seen_gq) == r.gq_size
        assert len(asked) == len(set(asked))
        assert set(seen_gq) <= set(asked)
        assert len(asked) < big.graph.num_nodes


class TestWeightedSample:
    def test_no_replacement(self):
        rng = np.random.default_rng(0)
        ids = list(range(50))
        f = {v: v / 50 for v in ids}
        s = _weighted_sample(rng, ids, f, 20)
        assert len(s) == len(set(s)) == 20

    def test_bias(self):
        rng = np.random.default_rng(1)
        ids = list(range(100))
        f = {v: v / 100 for v in ids}
        picks = []
        for _ in range(30):
            picks.extend(_weighted_sample(rng, ids, f, 10))
        assert np.mean(picks) < 45  # biased toward low f = high weight

    def test_exclude(self):
        rng = np.random.default_rng(2)
        ids = list(range(10))
        s = _weighted_sample(rng, ids, {v: 0.1 for v in ids}, 5, exclude={0, 1, 2})
        assert not set(s) & {0, 1, 2}

    def test_oversample_clamps(self):
        rng = np.random.default_rng(3)
        s = _weighted_sample(rng, [1, 2, 3], {1: 0.1, 2: 0.2, 3: 0.3}, 10)
        assert sorted(s) == [1, 2, 3]


class TestSEACore:
    def test_returns_connected_kcore(self, gen, q):
        r = sea_search(gen.graph, q, SEAParams(k=4, e=0.25, seed=1))
        assert r.community is not None and q in r.community
        assert (
            maximal_connected_kcore(gen.graph, q, 4, within=r.community)
            == r.community
        )

    def test_round_trace(self, gen, q):
        r = sea_search(gen.graph, q, SEAParams(k=4, e=0.25, seed=1))
        assert len(r.rounds) >= 1
        assert r.rounds[0].n_sample > 0
        assert r.elapsed_s > 0
        assert r.sampling_s >= 0 and r.estimation_s >= 0

    def test_deterministic(self, gen, q):
        a = sea_search(gen.graph, q, SEAParams(k=4, e=0.25, seed=9))
        b = sea_search(gen.graph, q, SEAParams(k=4, e=0.25, seed=9))
        assert a.community == b.community
        assert a.delta_star == b.delta_star

    def test_delta_star_is_exact_mean(self, gen, q):
        r = sea_search(gen.graph, q, SEAParams(k=4, e=0.25, seed=2))
        f = composite_distances_local(gen.graph, q)
        assert r.delta_star == pytest.approx(delta(f, r.community, q))

    def test_relative_error_within_bound(self, gen, q):
        """When Theorem 11 is satisfied, compare against the exact δ."""
        e = 0.25
        r = sea_search(gen.graph, q, SEAParams(k=4, e=e, seed=3))
        if not r.satisfied:
            pytest.skip("guarantee not reached at this seed")
        ex = exact_cs(gen.graph, q, 4)
        rel = abs(r.delta_star - ex.delta) / ex.delta
        # Theorem 11 holds with prob 1−α; allow the CI-width slack
        assert rel <= e + 2 * r.moe / ex.delta + 0.05

    def test_strict_bound_triggers_incremental(self, gen, q):
        r = sea_search(gen.graph, q, SEAParams(k=4, e=0.0005, seed=4, max_rounds=3))
        assert len(r.rounds) >= 2  # first round cannot satisfy e=0.05%
        assert r.rounds[0].delta_s > 0

    def test_stage_times_sum(self, gen, q):
        r = sea_search(gen.graph, q, SEAParams(k=4, e=0.25, seed=5))
        assert r.sampling_s + r.estimation_s + r.incremental_s <= r.elapsed_s + 0.05

    def test_no_community_when_k_too_large(self, gen, q):
        r = sea_search(gen.graph, q, SEAParams(k=40, e=0.25, seed=6))
        assert r.community is None

    def test_gq_respects_hoeffding_minimum(self, gen, q):
        r = sea_search(gen.graph, q, SEAParams(k=4, e=0.25, seed=7))
        from repro.graphs import connected_component

        comp = connected_component(gen.graph, q)
        assert r.gq_size == min(r.min_gq, len(comp))


class TestSEATruss:
    def test_returns_connected_ktruss(self, gen, q):
        r = sea_search(gen.graph, q, SEAParams(k=4, model="truss", e=0.25, seed=1))
        if r.community is None:
            pytest.skip("no 4-truss at this q")
        assert (
            maximal_connected_ktruss(gen.graph, q, 4, within=r.community)
            == r.community
        )

    def test_truss_community_denser_than_core(self, gen, q):
        rc = sea_search(gen.graph, q, SEAParams(k=4, e=0.25, seed=1))
        rt = sea_search(gen.graph, q, SEAParams(k=4, model="truss", e=0.25, seed=1))
        if rt.community is None:
            pytest.skip("no truss")
        assert len(rt.community) <= len(rc.community) + 5


class TestSEASizeBounded:
    def test_size_within_bounds(self, gen, q):
        r = sea_search(
            gen.graph, q, SEAParams(k=4, e=0.3, size_bound=(6, 12), seed=1)
        )
        if r.community is None or not r.satisfied:
            pytest.skip("bounded community not reached")
        assert 6 <= len(r.community) <= 12

    def test_larger_bound_larger_community(self, gen, q):
        small = sea_search(
            gen.graph, q, SEAParams(k=4, e=0.3, size_bound=(5, 8), seed=2)
        )
        large = sea_search(
            gen.graph, q, SEAParams(k=4, e=0.3, size_bound=(12, 18), seed=2)
        )
        if small.community is None or large.community is None:
            pytest.skip("no bounded community")
        assert len(large.community) >= len(small.community)

    def test_min_gq_uses_l(self, gen, q):
        from repro.core import min_neighborhood_size

        p = SEAParams(k=4, e=0.3, size_bound=(10, 20), seed=3)
        r = sea_search(gen.graph, q, p)
        want = min_neighborhood_size(
            gen.graph.num_nodes, 4, p.hoeffding_beta, p.hoeffding_eps,
            size_lower_bound=10,
        )
        assert r.min_gq == want


class TestSEASpark:
    def test_spark_pipeline_valid_result(self, gen, q, spark):
        from repro.graphs import AttributedGraph

        ag = AttributedGraph.from_local(spark, gen.graph).cache()
        r = sea_search_spark(ag, q, SEAParams(k=4, e=0.25, seed=1))
        assert r.community is not None and q in r.community
        assert (
            maximal_connected_kcore(gen.graph, q, 4, within=r.community)
            == r.community
        )

    def test_spark_close_to_local(self, gen, q, spark):
        """The Spark and local front ends share the estimate loop; their
        G_q construction differs only in layer-vs-heap granularity, so
        the results must be in the same quality regime (not identical —
        the sampled populations differ)."""
        from repro.graphs import AttributedGraph

        ag = AttributedGraph.from_local(spark, gen.graph)
        rs = sea_search_spark(ag, q, SEAParams(k=4, e=0.25, seed=1))
        rl = sea_search(gen.graph, q, SEAParams(k=4, e=0.25, seed=1))
        assert rs.delta_star == pytest.approx(rl.delta_star, abs=0.25)
        assert rs.min_gq == rl.min_gq


# SEAResult of sea_search on the facebook stand-in, k=4, seed=q: (sorted
# community, δ*, MoE, satisfied, |G_q|, min |G_q|, and per round
# (round, δ*, MoE, ΔS, |S|, #candidates)). BLB reads the candidate's f
# values sorted by value, so these hold for any edge-insertion order of the
# same graph (tests/test_invariance.py).
SEA_FACEBOOK_PINNED = {
    ("core", 324): (
        [309, 324, 329, 423, 474, 491, 508],
        0.23148130783647866, 0.009601270156351014, True, 365, 365,
        [(1, 0.23148130783647866, 0.009601270156351014, 0, 292, 12)],
    ),
    ("core", 198): (
        [22, 197, 198, 301, 312, 356, 392],
        0.33026297044798525, 0.01318458125426946, True, 365, 365,
        [(1, 0.33026297044798525, 0.01318458125426946, 0, 146, 2)],
    ),
    ("truss", 324): (
        [270, 324, 474, 491, 508],
        0.23621833478538462, 0.02107251043506031, True, 358, 358,
        [
            (1, 0.23760514698059168, 0.027070151806720087, 2, 142, 3),
            (2, 0.23760514698059168, 0.02706512210901616, 2, 163, 3),
            (3, 0.23621833478538462, 0.021533516905313507, 1, 182, 4),
            (4, 0.23621833478538462, 0.02107251043506031, 0, 199, 4),
        ],
    ),
    ("truss", 15): (
        [1, 15, 33, 145, 147, 174, 175, 223, 315, 394, 399, 421, 473, 529, 545, 549],
        0.29944799794259325, 0.04827619139371371, False, 358, 358,
        [
            (1, 0.29944799794259325, 0.04827619139371371, 18, 288, 2),
            (2, 0.30076401062251445, 0.044286323528015384, 14, 306, 2),
            (3, 0.30076401062251445, 0.04254578935404039, 12, 320, 2),
            (4, 0.30076401062251445, 0.05316543415832441, 22, 332, 2),
            (5, 0.30076401062251445, 0.05416370062794745, 23, 354, 3),
        ],
    ),
}


@pytest.mark.parametrize("model,q", sorted(SEA_FACEBOOK_PINNED))
def test_facebook_result_pinned(fb, model, q):
    r = sea_search(fb.graph, q, SEAParams(k=4, model=model, seed=q))
    rounds = [
        (x.round, x.delta_star, x.moe, x.delta_s, x.n_sample, x.n_candidates)
        for x in r.rounds
    ]
    got = (
        sorted(r.community), r.delta_star, r.moe, r.satisfied,
        r.gq_size, r.min_gq, rounds,
    )
    assert got == SEA_FACEBOOK_PINNED[(model, q)]
