"""Tests for the planted-partition generators and the dataset registry."""
import ast
import hashlib
from pathlib import Path

import numpy as np
import pytest

from repro.graphs import core_decomposition, maximal_connected_kcore
from repro.graphs.datasets import (
    HA_GT_DATASETS,
    REGISTRY,
    TABLE1_DATASETS,
    load,
)
from repro.graphs.generator import planted_heterogeneous, planted_homogeneous


@pytest.fixture(scope="module")
def small():
    return planted_homogeneous(n_comms=4, comm_size=20, p_in=0.4, m_out=30, seed=42)


@pytest.fixture(scope="module")
def hetero():
    return planted_heterogeneous(
        n_comms=3, comm_size=15, p_in=0.4, m_out=15, seed=43,
        target_type="A", bridge_type="P", flavour_types=("V",),
    )


class TestHomogeneous:
    def test_node_count(self, small):
        # 80 structural members plus one degree-2 bridge per cross link
        assert small.graph.num_nodes >= 80
        bridges = {v for v in small.graph.adj if v >= 80}
        assert bridges and all(small.graph.degree(b) <= 4 for b in bridges)

    def test_deterministic(self):
        a = planted_homogeneous(n_comms=2, comm_size=10, p_in=0.5, m_out=5, seed=1)
        b = planted_homogeneous(n_comms=2, comm_size=10, p_in=0.5, m_out=5, seed=1)
        assert a.graph.adj == b.graph.adj
        assert a.graph.tattrs == b.graph.tattrs

    def test_seed_changes_graph(self):
        a = planted_homogeneous(n_comms=2, comm_size=10, p_in=0.5, m_out=5, seed=1)
        b = planted_homogeneous(n_comms=2, comm_size=10, p_in=0.5, m_out=5, seed=2)
        assert a.graph.adj != b.graph.adj

    def test_partition_covers_members(self, small):
        assert set(small.communities) <= set(small.graph.adj)
        # 80 structural members minus round(0.25·20)=5 impostors per community
        assert len(small.communities) == 80 - 4 * 5
        assert sorted(c for gt in small.ha_gt.values() for c in gt) == sorted(
            small.communities
        )

    def test_impostors_structurally_inside(self, small):
        """Impostors sit in the community's k-core but carry foreign attrs."""
        import numpy as np

        from repro.graphs import kcore_nodes

        structural = set(range(80))
        impostors = structural - set(small.communities)
        assert len(impostors) == 4 * 5
        core = kcore_nodes(small.graph, 3)
        assert impostors & core  # at least some impostors survive the core
        # impostors are attribute-far from every genuine member set
        for b in list(impostors)[:4]:
            overlaps = [
                len(small.graph.tattrs[b] & small.graph.tattrs[v])
                for v in list(small.communities)[:30]
            ]
            assert np.mean(overlaps) < 2

    def test_bridges_peel_out_of_k3_core(self, small):
        """Cross links are degree-2 bridges: any k>=3 core stays in-community."""
        from repro.graphs import kcore_nodes

        core = kcore_nodes(small.graph, 3)
        bridges = {v for v in small.graph.adj if v >= 80}
        assert not (core & bridges)

    def test_communities_are_cohesive(self, small):
        """Each planted community contains a connected 3-core around any member."""
        for c, members in small.ha_gt.items():
            v = next(iter(members))
            core = maximal_connected_kcore(small.graph, v, 3)
            assert len(core & members) >= 0.5 * len(members)

    def test_intra_density_exceeds_inter(self, small):
        """Edges between structural members dominate bridge edges."""
        member = inter = 0
        for v, nbrs in small.graph.adj.items():
            for u in nbrs:
                if v < 80 and u < 80:
                    member += 1
                else:
                    inter += 1
        assert member > 2 * inter

    def test_attributes_present(self, small):
        for v in small.graph.adj:
            assert len(small.graph.nattrs[v]) == 2
            assert len(small.graph.tattrs[v]) >= 1

    def test_textual_attrs_correlate_with_community(self, small):
        """Same-community nodes share topic tokens far more often."""
        comm = small.communities
        same, diff = [], []
        nodes = sorted(small.communities)[:40]
        for i, v in enumerate(nodes):
            for u in nodes[i + 1 :]:
                ov = len(small.graph.tattrs[v] & small.graph.tattrs[u])
                (same if comm[v] == comm[u] else diff).append(ov)
        assert np.mean(same) > np.mean(diff) + 0.5

    def test_numerical_attrs_correlate_with_community(self, small):
        comm = small.communities
        same, diff = [], []
        nodes = sorted(small.communities)[:40]
        for i, v in enumerate(nodes):
            for u in nodes[i + 1 :]:
                d = float(np.abs(small.graph.nattrs[v] - small.graph.nattrs[u]).mean())
                (same if comm[v] == comm[u] else diff).append(d)
        assert np.mean(same) < np.mean(diff)

    def test_no_textual_mode(self):
        g = planted_homogeneous(
            n_comms=2, comm_size=10, p_in=0.5, m_out=5, seed=3, textual=False
        )
        assert all(len(t) == 0 for t in g.graph.tattrs.values())


class TestHeterogeneous:
    def test_types_assigned(self, hetero):
        types = set(hetero.graph.ntypes.values())
        assert types == {"A", "P", "V"}

    def test_targets_keep_communities(self, hetero):
        targets = {v for v, t in hetero.graph.ntypes.items() if t == "A"}
        # community members are target-typed; structural bridges are too
        assert set(hetero.communities) <= targets

    def test_no_direct_target_target_edges(self, hetero):
        nt = hetero.graph.ntypes
        for v, nbrs in hetero.graph.adj.items():
            if nt[v] == "A":
                assert all(nt[u] == "P" for u in nbrs)

    def test_bridge_expansion_recovers_planted_graph(self, hetero):
        """Projecting A-P-A through degree-2 bridges gives the base graph."""
        base = planted_homogeneous(
            n_comms=3, comm_size=15, p_in=0.4, m_out=15, seed=43
        )
        nt = hetero.graph.ntypes
        projected = set()
        for b, nbrs in hetero.graph.adj.items():
            if nt[b] != "P":
                continue
            targets = sorted(u for u in nbrs if nt[u] == "A")
            assert len(targets) == 2
            projected.add((targets[0], targets[1]))
        expected = {
            (min(v, u), max(v, u))
            for v in base.graph.adj
            for u in base.graph.adj[v]
            if v < u
        }
        assert projected == expected

    def test_meta_path_recorded(self, hetero):
        assert hetero.meta_path == ("A", "P", "A")
        assert hetero.is_hetero


class TestRegistry:
    def test_table1_has_ten(self):
        assert len(TABLE1_DATASETS) == 10
        assert all(n in REGISTRY for n in TABLE1_DATASETS)

    def test_ha_gt_list(self):
        assert HA_GT_DATASETS == ["facebook", "livejournal", "orkut", "amazon"]

    def test_unknown_raises(self):
        with pytest.raises(KeyError):
            load("nope")

    @pytest.mark.parametrize("name", ["facebook", "github", "dblp", "dbpedia"])
    def test_load_memoised(self, name):
        assert load(name) is load(name)

    def test_facebook_scale(self):
        g = load("facebook")
        # 28 communities of 22 minus round(0.25·22)=6 impostors each
        assert len(g.communities) == 28 * (22 - 6)
        assert not g.is_hetero

    def test_hetero_flags(self):
        for name in ("dblp", "imdb", "dbpedia", "yago", "freebase"):
            g = load(name)
            assert g.is_hetero and g.meta_path is not None

    def test_numerical_only_kg(self):
        for name in ("dbpedia", "yago", "freebase"):
            g = load(name)
            targets = [v for v, t in g.graph.ntypes.items() if t == g.target_type]
            assert all(len(g.graph.tattrs[v]) == 0 for v in targets)

    def test_dense_ordering(self):
        """Relative density ordering mirrors Table I: twitch densest."""
        def avg_deg(name):
            g = load(name).graph
            return 2 * g.num_edges / g.num_nodes
        assert avg_deg("twitch") > avg_deg("facebook") > avg_deg("github")

    def test_facebook_supports_default_k(self):
        g = load("facebook")
        cor = core_decomposition(g.graph)
        assert sum(1 for v in cor.values() if v >= 5) > 300


# (nodes, edges, fingerprint) of every registered dataset. The recipe is
# frozen: a change to the generator that moves any dataset changes every
# recorded table, so it must show up here first.
PINNED = {
    "facebook": (866, 3438, "c4406f8fc11e68da"),
    "github": (1420, 4332, "51fc864ec5b1f328"),
    "twitch": (1157, 4716, "b4b4400d0d6d9273"),
    "livejournal": (3900, 14861, "469ac580c9cfdc00"),
    "twitter": (8400, 29351, "7c9346a0d3f730e0"),
    "orkut": (1680, 6390, "6f5a9b400d6b863f"),
    "amazon": (1272, 4154, "5440aa363a0c7313"),
    "dblp": (3870, 10608, "7e9fe396a2b96f3a"),
    "imdb": (5341, 11886, "a9bab1090a5a811b"),
    "dbpedia": (2804, 9350, "21fa1d7f27a343a2"),
    "yago": (2883, 8036, "7d98ef57f0b3cb6f"),
    "freebase": (3597, 13494, "d9bd6302fc74b644"),
}


def _fingerprint(gen):
    """SHA-256 prefix of the sorted edges, every node's attributes and
    type, and the planted membership."""
    g = gen.graph
    h = hashlib.sha256()
    for u in sorted(g.adj):
        for v in sorted(w for w in g.adj[u] if w > u):
            h.update(f"{u}-{v};".encode())
    for v in sorted(g.adj):
        nat = ",".join(float(x).hex() for x in g.nattrs[v])
        ntype = g.ntypes[v] if g.ntypes else ""
        h.update(f"{v}:{sorted(g.tattrs[v])}:{nat}:{ntype};".encode())
    h.update(repr(sorted(gen.communities.items())).encode())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_recipe_pinned(name):
    gen = load(name)
    assert PINNED.keys() == REGISTRY.keys()
    assert (gen.graph.num_nodes, gen.graph.num_edges, _fingerprint(gen)) == PINNED[name]


def test_benchmark_recipe_is_the_registry_one():
    """The query benchmark keeps its own copy of the facebook recipe, which
    it scales up; that copy is the registry's, so the two cannot drift."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
    (value,) = [
        node.value
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["FACEBOOK"]
    ]
    assert isinstance(value, ast.Call) and value.func.id == "dict" and not value.args
    copy = {kw.arg: ast.literal_eval(kw.value) for kw in value.keywords}
    assert copy == REGISTRY["facebook"][1]
