"""Tests for the Exact branch-and-bound (Algorithm 1) and its prunings."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exact import ExactResult, exact_cs

from .oracle import brute_force_cs
from repro.graphs import (
    LocalGraph,
    community_model,
    maximal_connected_kcore,
    maximal_connected_ktruss,
)
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
        dict(prunings=0),
        dict(prunings=1),
        dict(prunings=2),
        dict(prunings=3),
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
        none = exact_cs(g, 0, 3, prunings=0, max_states=200_000)
        p1 = exact_cs(g, 0, 3, prunings=1)
        full = exact_cs(g, 0, 3)
        assert full.states <= p1.states
        assert p1.states <= none.states or none.capped

    def test_duplicate_counter_increments(self):
        """P1 counts duplicates only when it is on, never more than the
        states generated, and no level changes the optimum."""
        g = random_attr_graph(11, 0.6, seed=5)
        runs = [exact_cs(g, 0, 3, prunings=p) for p in range(4)]
        assert runs[0].community is not None and not runs[0].capped
        assert runs[0].pruned_duplicate == 0
        for r in runs[1:]:
            assert 0 < r.pruned_duplicate <= r.states
            assert r.delta == runs[0].delta

    def test_max_states_caps(self):
        g = random_attr_graph(13, 0.7, seed=6)
        r = exact_cs(g, 0, 3, prunings=0, max_states=50)
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


@st.composite
def cut_graphs(draw):
    """Two cliques that share a node, or that a bridge edge or path joins,
    with random attributes: a deletion can cut the community in two."""
    k = draw(st.integers(1, 3))
    a, b = (draw(st.integers(k + 1, k + 2)) for _ in range(2))
    join = draw(st.integers(0, 2))  # shared node, bridge edge, bridge path
    left = list(range(a))
    start = a - 1 if join == 0 else a  # the shared node is left's last
    right = list(range(start, start + b))
    edges = [(x, y) for c in (left, right) for x in c for y in c if x < y]
    if join == 1:
        edges.append((left[-1], right[0]))
    elif join == 2:
        edges += [(left[-1], -1), (-1, right[0])]
    nodes = sorted({x for e in edges for x in e})
    vocab = ["a", "b", "c", "d"]
    tattrs = {v: draw(st.sets(st.sampled_from(vocab), min_size=1)) for v in nodes}
    nattrs = {v: [draw(st.integers(0, 8)) / 8] for v in nodes}
    g = LocalGraph.from_edges(edges, tattrs=tattrs, nattrs=nattrs)
    return g, draw(st.sampled_from(nodes)), k


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(cut_graphs())
def test_exact_on_graphs_with_cut_vertices(case):
    """A deletion that cuts the state keeps only q's side: every answer is
    a connected community of q with the brute-force optimum's δ."""
    g, q, k = case
    for model, levels in (("core", range(4)), ("truss", (3,))):
        maximal = community_model(model).maximal
        bf_c, bf_d = brute_force_cs(g, q, k, model=model)
        for prunings in levels:
            r = exact_cs(g, q, k, model=model, prunings=prunings)
            if bf_c is None:
                assert r.community is None
                continue
            assert not r.capped
            assert r.delta == pytest.approx(bf_d)
            assert q in r.community
            assert maximal(g, q, k, within=r.community) == r.community


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
    (47, 2984, 2113, 14),
    (104, 13160, 10360, 177),
    (495, 4110, 3224, 0),
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


# (states, pruned_duplicate, pruned_unpromising, capped) of Table IV's four
# pruning configurations on one facebook query (k=4, seed 3, the table's
# cap of 60 000 states): P1, P2 and P3 are each switched off somewhere
TABLE4_CONFIG_COUNTS = {
    "Exact": (3212, 2479, 0, False),
    "Exact\\P3": (3212, 2479, 0, False),
    "Exact\\P3+P2": (60000, 51007, 0, True),
    "Exact w/o P": (60000, 0, 0, True),
}


def test_table4_configs_pinned():
    """Each pruning toggle is honoured: the states every configuration
    explores, with its counters, are the recorded ones."""
    from repro.experiments.harness import pick_queries, prepare
    from repro.experiments.tables import TABLE4_CONFIGS

    prep = prepare("facebook")
    (q,) = pick_queries(prep, 4, 1, seed=3)
    got = {}
    for label, prunings in TABLE4_CONFIGS:
        r = exact_cs(prep.graph, q, 4, gamma=prep.gamma, stats=prep.stats,
                     prunings=prunings, max_states=60_000)
        got[label] = (r.states, r.pruned_duplicate, r.pruned_unpromising, r.capped)
    assert got == TABLE4_CONFIG_COUNTS
