"""Driver-side core, truss and component algorithms against networkx.

networkx is an independent implementation of the same definitions, so it
checks ``repro.graphs.local`` on seeded random graphs (a sparse background
with planted dense blocks, isolated nodes and several components) and on
the ``tiny`` fixture.
"""
import networkx as nx
import numpy as np
import pytest

from repro.graphs import (
    LocalGraph,
    connected_component,
    core_decomposition,
    kcore_nodes,
    ktruss_edges,
    maximal_connected_kcore,
    maximal_connected_ktruss,
)

RANDOM_SEEDS = range(16)


def random_graph(seed: int) -> LocalGraph:
    """A sparse G(n, p) background (n in [12, 48]) with 1–3 planted dense
    blocks, so cores and trusses at k = 2..5 are partial, not all-or-none."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(12, 49))
    edges = [
        (a, b) for a in range(n) for b in range(a + 1, n)
        if rng.random() < rng.uniform(0.0, 0.12)
    ]
    for _ in range(int(rng.integers(1, 4))):
        block = rng.choice(n, size=int(rng.integers(5, 11)), replace=False)
        p_in = rng.uniform(0.5, 0.95)
        edges += [
            (int(a), int(b)) for i, a in enumerate(block) for b in block[i + 1:]
            if rng.random() < p_in
        ]
    return LocalGraph.from_edges(edges, nodes=range(n))


@pytest.fixture(params=[f"random-{s}" for s in RANDOM_SEEDS] + ["tiny"])
def graph(request):
    if request.param == "tiny":
        return request.getfixturevalue("tiny").graph
    return random_graph(int(request.param.split("-")[1]))


def to_nx(g: LocalGraph) -> nx.Graph:
    G = nx.Graph()
    G.add_nodes_from(g.adj)
    G.add_edges_from((v, u) for v in g.adj for u in g.adj[v])
    return G


def queries(g: LocalGraph, n: int = 6):
    """``n`` query nodes spread over the sorted node ids."""
    ids = sorted(g.adj)
    return ids[:: max(1, len(ids) // n)]


def component(H: nx.Graph, q: int) -> set:
    """q's component in H, ∅ when q is not in H."""
    return nx.node_connected_component(H, q) if q in H else set()


def test_core_decomposition(graph):
    assert core_decomposition(graph) == nx.core_number(to_nx(graph))


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_models_match_networkx(graph, k):
    G = to_nx(graph)
    core = nx.k_core(G, k)
    truss = nx.k_truss(G, k)

    assert kcore_nodes(graph, k) == set(core)
    assert ktruss_edges(graph, k) == {(min(e), max(e)) for e in truss.edges}
    for q in queries(graph):
        assert connected_component(graph, q) == component(G, q)
        assert connected_component(graph, q, set(core)) == component(core, q)
        assert maximal_connected_kcore(graph, q, k) == component(core, q)
        assert maximal_connected_ktruss(graph, q, k) == component(truss, q)
        # the peel step: q's community without one member v is q's
        # component in the k-core (k-truss) of what is left
        for maximal, nx_model in (
            (maximal_connected_kcore, nx.k_core),
            (maximal_connected_ktruss, nx.k_truss),
        ):
            C = maximal(graph, q, k)
            others = sorted(C - {q})
            for v in others[:: max(1, len(others) // 3)]:
                rest = C - {v}
                assert maximal(graph, q, k, within=rest) == component(
                    nx_model(G.subgraph(rest), k), q
                )
