"""Tests for the ACQ / LocATC / VAC baseline methods."""
import pytest

from repro.baselines import acq_search, evac_search, locatc_search, vac_search
from repro.graphs import (
    LocalGraph,
    maximal_connected_kcore,
    maximal_connected_ktruss,
)
from repro.graphs.generator import planted_homogeneous
from repro.metrics import norm_stats_local, vac_minmax


@pytest.fixture(scope="module")
def gen():
    return planted_homogeneous(n_comms=4, comm_size=16, p_in=0.5, m_out=30, seed=55)


@pytest.fixture(scope="module")
def q(gen):
    from repro.graphs import core_decomposition

    cor = core_decomposition(gen.graph)
    return next(v for v in sorted(gen.communities) if cor[v] >= 4)


def clique_graph():
    """5-clique where node 4 shares no attributes with q=0."""
    edges = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    tattrs = {0: ["a", "b"], 1: ["a", "b"], 2: ["a"], 3: ["a", "b"], 4: ["z"]}
    nattrs = {v: [0.1 * v] for v in range(5)}
    return LocalGraph.from_edges(edges, tattrs=tattrs, nattrs=nattrs)


class TestACQ:
    def test_drops_non_sharing_nodes(self):
        g = clique_graph()
        r = acq_search(g, 0, k=2)
        # nodes sharing {a,b} with q: {0,1,3}; they form a connected 2-core
        assert r.community == {0, 1, 3}

    def test_falls_back_to_smaller_shared_set(self):
        g = clique_graph()
        r = acq_search(g, 0, k=3)
        # {0,1,3} is not a 3-core; sharing only {a} gives {0,1,2,3}
        assert r.community == {0, 1, 2, 3}

    def test_none_without_textual_attrs(self):
        g = LocalGraph.from_edges(
            [(i, j) for i in range(4) for j in range(i + 1, 4)],
            nattrs={v: [0.1] for v in range(4)},
        )
        r = acq_search(g, 0, k=2)
        assert r.community is None  # Table V '-' behaviour

    def test_none_when_no_kcore(self):
        g = clique_graph()
        assert acq_search(g, 0, k=5).community is None

    def test_community_is_valid_kcore(self, gen, q):
        r = acq_search(gen.graph, q, k=4)
        if r.community is None:
            pytest.skip("no shared-attribute community")
        assert (
            maximal_connected_kcore(gen.graph, q, 4, within=r.community)
            == r.community
        )

    def test_all_members_share_attrs(self, gen, q):
        r = acq_search(gen.graph, q, k=4)
        if r.community is None:
            pytest.skip("no community")
        qt = gen.graph.tattrs[q]
        shared = set(qt)
        for v in r.community:
            shared &= gen.graph.tattrs[v]
        assert shared  # at least one attribute shared by everyone


class TestLocATC:
    def test_valid_kcore(self, gen, q):
        r = locatc_search(gen.graph, q, k=4)
        assert r.community is not None
        assert (
            maximal_connected_kcore(gen.graph, q, 4, within=r.community)
            == r.community
        )

    def test_score_not_worse_than_root(self, gen, q):
        from repro.metrics import atc_coverage

        root = maximal_connected_kcore(gen.graph, q, 4)
        r = locatc_search(gen.graph, q, k=4)
        assert atc_coverage(gen.graph, r.community, q) >= atc_coverage(
            gen.graph, root, q
        )

    def test_none_when_no_kcore(self):
        g = LocalGraph.from_edges([(0, 1)])
        assert locatc_search(g, 0, k=3).community is None

    def test_truss_peels_to_k_nodes(self):
        """A k-clique is a k-truss, so the truss variant may stop at k nodes."""
        r = locatc_search(clique_graph(), 0, k=4, model="truss")
        assert r.community == {0, 1, 2, 3}

    def test_truss_model(self, gen, q):
        r = locatc_search(gen.graph, q, k=4, model="truss")
        if r.community is None:
            pytest.skip("no truss")
        assert (
            maximal_connected_ktruss(gen.graph, q, 4, within=r.community)
            == r.community
        )


class TestVAC:
    def test_valid_kcore(self, gen, q):
        r = vac_search(gen.graph, q, k=4)
        assert r.community is not None
        assert (
            maximal_connected_kcore(gen.graph, q, 4, within=r.community)
            == r.community
        )

    def test_minmax_not_worse_than_root(self, gen, q):
        root = maximal_connected_kcore(gen.graph, q, 4)
        stats = norm_stats_local(gen.graph)
        r = vac_search(gen.graph, q, k=4, stats=stats)
        assert vac_minmax(gen.graph, r.community, 0.5, stats) <= vac_minmax(
            gen.graph, root, 0.5, stats
        ) + 1e-12

    def test_peels_outlier_from_clique(self):
        g = clique_graph()
        r = vac_search(g, 0, k=2)
        assert 4 not in r.community  # the attribute outlier goes first

    def test_truss_peels_to_k_nodes(self):
        """A k-clique is a k-truss, so the truss variant may stop at k nodes."""
        r = vac_search(clique_graph(), 0, k=4, model="truss")
        assert r.community == {0, 1, 2, 3}

    def test_evac_at_least_as_good_as_vac(self, gen, q):
        stats = norm_stats_local(gen.graph)
        approx = vac_search(gen.graph, q, k=4, stats=stats)
        exact = evac_search(gen.graph, q, k=4, stats=stats, max_states=20_000)
        if exact.capped:
            pytest.skip("E-VAC capped")
        assert vac_minmax(gen.graph, exact.community, 0.5, stats) <= vac_minmax(
            gen.graph, approx.community, 0.5, stats
        ) + 1e-12

    def test_evac_counts_states(self, gen, q):
        r = evac_search(gen.graph, q, k=4, max_states=5_000)
        assert r.states > 0

    def test_evac_cap(self):
        gen2 = planted_homogeneous(
            n_comms=1, comm_size=30, p_in=0.5, m_out=0, seed=3
        )
        r = evac_search(gen2.graph, 0, k=3, max_states=50)
        assert r.capped or r.states <= 50

    def test_timing_recorded(self, gen, q):
        r = vac_search(gen.graph, q, k=4)
        assert r.elapsed_s > 0


@pytest.mark.parametrize(
    "fn", [acq_search, evac_search, locatc_search, vac_search],
    ids=["acq_search", "evac_search", "locatc_search", "vac_search"],
)
def test_timed_keeps_name_and_doc(fn):
    """``timed`` passes the wrapped search's name and docstring through."""
    assert fn.__name__.endswith("_search")
    assert fn.__doc__ and fn.__doc__.strip()
