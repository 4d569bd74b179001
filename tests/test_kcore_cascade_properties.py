"""Property tests: the k-core peel loop ``kcore_cascade`` and its callers.

Core decomposition peels in rounds of the cascade, and ``kcore_nodes``
in one; on random graphs both agree with networkx's core numbers.

Exact's carried step: a state is a maximal connected k-core of q carrying its within-state
degrees. Deleting v with ``kcore_cascade`` and taking q's component of
what is left gives the set that ``maximal_connected_kcore`` recomputes
from scratch, in the same iteration order; the deleted and cut-off nodes
are the state's lost nodes, and the carried degrees are the fresh ones.
Exact's BFS, which stops once q has reached every surviving neighbour of
the deleted nodes, gives the same set (in any order).
"""
import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.local import (
    LocalGraph,
    connected_component,
    core_decomposition,
    kcore_cascade,
    kcore_nodes,
    maximal_connected_kcore,
)


@st.composite
def graphs(draw):
    """Up to 30 nodes, some isolated, with any edges (the empty graph too)."""
    ids = draw(st.lists(st.integers(0, 300), max_size=30, unique=True))
    if not ids:
        return LocalGraph.from_edges([])
    pair = st.tuples(st.sampled_from(ids), st.sampled_from(ids))
    return LocalGraph.from_edges(draw(st.lists(pair, max_size=120)), nodes=ids)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(graphs())
def test_coreness_matches_networkx_and_kcore_nodes(g):
    G = nx.Graph()
    G.add_nodes_from(g.adj)
    G.add_edges_from((v, u) for v in g.adj for u in g.adj[v])
    cor = core_decomposition(g)
    assert cor == nx.core_number(G)
    for k in range(max(cor.values(), default=0) + 2):
        assert kcore_nodes(g, k) == {v for v, c in cor.items() if c >= k}


@st.composite
def states(draw):
    k = draw(st.integers(1, 4))
    ids = draw(st.lists(st.integers(0, 300), min_size=k + 1, max_size=14, unique=True))
    # q's (k+1)-clique keeps a k-core around q; random edges shape the rest
    clique = ids[: k + 1]
    pair = st.tuples(st.sampled_from(ids), st.sampled_from(ids))
    edges = [(a, b) for a in clique for b in clique if a < b]
    g = LocalGraph.from_edges(edges + draw(st.lists(pair, max_size=60)), nodes=ids)
    q = draw(st.sampled_from(clique))
    # the root, or a state further down: the community inside a subset
    within = draw(st.none() | st.sets(st.sampled_from(ids)).map(lambda s: s | set(clique)))
    state = maximal_connected_kcore(g, q, k, within=within)
    v = draw(st.sampled_from(sorted(state)))  # q included: the branch dies
    return g, q, k, state, v


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(states())
def test_carried_deletion_equals_recomputed_state(case):
    g, q, k, state, v = case
    deg = {u: len(g.adj[u] & state) for u in state}
    alive = set(state)
    dropped = kcore_cascade(g, k, alive, deg, [v])
    new = connected_component(g, q, alive)
    want = maximal_connected_kcore(g, q, k, within=state - {v})

    assert list(new) == list(want)  # the same set, iterated the same way
    # Exact's step: the BFS stops once q reaches every surviving neighbour
    # of the deleted nodes, and then returns alive itself
    border = alive.intersection(set().union(*(g.adj[u] for u in dropped)))
    assert connected_component(g, q, alive, reach=border) == want
    assert len(dropped) == len(set(dropped)) and set(dropped) == state - alive
    assert set(dropped) | (alive - new) == state - new
    for u in alive:
        assert deg[u] == len(g.adj[u] & alive)
    for u in new:
        assert deg[u] == len(g.adj[u] & new)
