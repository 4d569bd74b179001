"""Tests for the Exact branch-and-bound (Algorithm 1) and its prunings."""
import numpy as np
import pytest

from repro.core.exact import ExactResult, brute_force_cs, exact_cs
from repro.graphs import LocalGraph, maximal_connected_kcore, maximal_connected_ktruss
from repro.graphs.generator import planted_homogeneous
from repro.metrics import composite_distances_local, delta, norm_stats_local


def random_attr_graph(n, p, seed, ndim=2, ntok=4):
    rng = np.random.default_rng(seed)
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    vocab = [f"t{i}" for i in range(6)]
    tattrs = {
        v: list(rng.choice(vocab, size=ntok, replace=False)) for v in range(n)
    }
    nattrs = {v: rng.random(ndim) for v in range(n)}
    return LocalGraph.from_edges(edges, tattrs=tattrs, nattrs=nattrs, nodes=range(n))


class TestExactBasics:
    def test_no_community(self):
        g = LocalGraph.from_edges([(0, 1), (1, 2)])
        r = exact_cs(g, 0, k=3)
        assert r.community is None and r.delta == float("inf")

    def test_clique_returns_subcommunity(self):
        # 5-clique, k=3: optimum drops the most dissimilar node
        g = LocalGraph.from_edges(
            [(i, j) for i in range(5) for j in range(i + 1, 5)],
            tattrs={v: ["a"] for v in range(5)},
            nattrs={0: [0.0], 1: [0.1], 2: [0.1], 3: [0.2], 4: [1.0]},
        )
        r = exact_cs(g, 0, k=3, gamma=0.0)
        assert r.community == {0, 1, 2, 3}
        f = composite_distances_local(g, 0, 0.0)
        assert r.delta == pytest.approx(delta(f, {0, 1, 2, 3}, 0))

    def test_result_is_connected_kcore(self):
        g = random_attr_graph(12, 0.5, seed=1)
        q = 0
        r = exact_cs(g, q, k=3)
        if r.community is None:
            pytest.skip("no 3-core around q")
        assert maximal_connected_kcore(g, q, 3, within=r.community) == r.community

    def test_delta_not_worse_than_root(self):
        g = random_attr_graph(14, 0.5, seed=2)
        root = maximal_connected_kcore(g, 0, 3)
        if not root:
            pytest.skip("no root")
        f = composite_distances_local(g, 0)
        r = exact_cs(g, 0, k=3)
        assert r.delta <= delta(f, root, 0) + 1e-12


class TestOptimalityVsBruteForce:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_brute_force(self, seed):
        g = random_attr_graph(10, 0.55, seed=seed)
        q = 0
        bf_c, bf_d = brute_force_cs(g, q, k=3)
        r = exact_cs(g, q, k=3)
        if bf_c is None:
            assert r.community is None
        else:
            assert r.delta == pytest.approx(bf_d)

    @pytest.mark.parametrize("seed", [10, 11, 12])
    def test_matches_brute_force_k2(self, seed):
        g = random_attr_graph(9, 0.5, seed=seed)
        bf_c, bf_d = brute_force_cs(g, 0, k=2)
        r = exact_cs(g, 0, k=2)
        if bf_c is None:
            assert r.community is None
        else:
            assert r.delta == pytest.approx(bf_d)

    @pytest.mark.parametrize("toggles", [
        dict(prune_duplicate=False, prune_unnecessary=False, prune_unpromising=False),
        dict(prune_duplicate=True, prune_unnecessary=False, prune_unpromising=False),
        dict(prune_duplicate=True, prune_unnecessary=True, prune_unpromising=False),
        dict(prune_duplicate=True, prune_unnecessary=True, prune_unpromising=True),
    ])
    def test_every_pruning_config_is_exact(self, toggles):
        g = random_attr_graph(9, 0.6, seed=33)
        bf_c, bf_d = brute_force_cs(g, 0, k=3)
        if bf_c is None:
            pytest.skip("no community")
        r = exact_cs(g, 0, k=3, **toggles)
        assert not r.capped
        assert r.delta == pytest.approx(bf_d)


class TestPruningEffect:
    def test_pruning_reduces_states(self):
        g = random_attr_graph(11, 0.6, seed=4)
        if maximal_connected_kcore(g, 0, 3) == set():
            pytest.skip("no community")
        none = exact_cs(g, 0, 3, prune_duplicate=False, prune_unnecessary=False,
                        prune_unpromising=False, max_states=200_000)
        p1 = exact_cs(g, 0, 3, prune_unnecessary=False, prune_unpromising=False)
        full = exact_cs(g, 0, 3)
        assert full.states <= p1.states
        assert p1.states <= none.states or none.capped

    def test_duplicate_counter_increments(self):
        g = random_attr_graph(11, 0.6, seed=5)
        r = exact_cs(g, 0, 3)
        if r.community is None:
            pytest.skip("no community")
        assert r.pruned_duplicate >= 0  # counter exists and is consistent
        assert r.states > 0

    def test_max_states_caps(self):
        g = random_attr_graph(13, 0.7, seed=6)
        r = exact_cs(g, 0, 3, prune_duplicate=False, prune_unnecessary=False,
                     prune_unpromising=False, max_states=50)
        assert r.capped
        assert r.states <= 51


class TestExactTruss:
    def test_truss_result_is_connected_ktruss(self):
        g = random_attr_graph(12, 0.6, seed=7)
        r = exact_cs(g, 0, k=3, model="truss")
        if r.community is None:
            pytest.skip("no truss community")
        assert (
            maximal_connected_ktruss(g, 0, 3, within=r.community) == r.community
        )

    @pytest.mark.parametrize("seed", [20, 21])
    def test_truss_matches_brute_force(self, seed):
        g = random_attr_graph(9, 0.65, seed=seed)
        bf_c, bf_d = brute_force_cs(g, 0, k=3, model="truss")
        r = exact_cs(g, 0, k=3, model="truss")
        if bf_c is None:
            assert r.community is None
        else:
            assert r.delta == pytest.approx(bf_d)


class TestOnPlantedGraph:
    def test_exact_recovers_cohesive_community(self):
        gen = planted_homogeneous(n_comms=3, comm_size=12, p_in=0.6, m_out=10, seed=9)
        q = sorted(gen.communities)[0]  # a genuine member, not an impostor
        r = exact_cs(gen.graph, q, k=4)
        if r.community is None:
            pytest.skip("q not in a 4-core")
        gt = gen.community_of(q)
        # the attribute-cohesive community stays inside q's planted community
        assert len(r.community & gt) / len(r.community) > 0.8


# (q, states, pruned_duplicate, pruned_unpromising) of Table IV's three
# facebook queries (k=4, seed 3) with every pruning on
TABLE4_FACEBOOK_COUNTS = [
    (47, 2984, 1460, 14),
    (104, 13160, 8147, 177),
    (495, 4110, 3189, 0),
]


def test_table4_facebook_counts_pinned():
    """The enumeration explores exactly the recorded states: a change to
    the peel step or to a pruning rule shows up here."""
    from repro.experiments.harness import pick_queries, prepare

    prep = prepare("facebook")
    got = []
    for q in pick_queries(prep, 4, 3, seed=3):
        r = exact_cs(prep.graph, q, 4, gamma=prep.gamma, stats=prep.stats)
        got.append((q, r.states, r.pruned_duplicate, r.pruned_unpromising))
    assert got == TABLE4_FACEBOOK_COUNTS
