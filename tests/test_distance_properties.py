"""Property tests: f(·,q) and ``worst_pair`` equal a per-node reference
bit for bit, whether f reads rows of the graph's normalised attribute
matrix (stats from ``norm_stats_local(g)``) or normalises the requested
rows itself (stats without a matrix for ``g``)."""
from itertools import combinations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import LocalGraph
from repro.metrics import (
    NormStats,
    composite_distances_local,
    jaccard_distance,
    norm_stats_local,
    worst_pair,
)

TOKENS = "abcd"  # a small vocabulary: empty, disjoint and overlapping sets


def reference_f(g, q, gamma, s, nodes):
    """The per-node formula: one ``normalize`` per node and one for q."""
    qt = g.tattrs.get(q, frozenset())
    out = {}
    for v in nodes:
        ft = jaccard_distance(g.tattrs.get(v, frozenset()), qt)
        fn = 0.0
        if s.ndim:
            fn = float(np.abs(s.normalize(g.nattrs[v]) - s.normalize(g.nattrs[q])).mean())
        out[v] = gamma * ft + (1 - gamma) * fn
    return out


def brute_worst_pair(g, community, gamma, s):
    """Scan every pair in sorted order, keeping the first maximum."""
    best = (-1.0, -1, -1)
    for u, v in combinations(sorted(community), 2):
        f = reference_f(g, u, gamma, s, [v])[v]
        if f > best[0]:
            best = (f, u, v)
    return best


@st.composite
def attributed_graphs(draw):
    d = draw(st.sampled_from([0, 1, 2, 16]))
    ids = draw(st.lists(st.integers(0, 60), min_size=2, max_size=12, unique=True))
    value = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    nattrs = {v: draw(st.lists(value, min_size=d, max_size=d)) for v in ids}
    if d:
        const_dim, const = draw(st.integers(0, d - 1)), draw(value)
        for vec in nattrs.values():
            vec[const_dim] = const
    tattrs = {
        v: draw(st.frozensets(st.sampled_from(TOKENS), max_size=len(TOKENS)))
        for v in ids
    }
    edges = draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)), max_size=20))
    g = LocalGraph.from_edges(edges, tattrs=tattrs, nattrs=nattrs, nodes=ids)
    q = draw(st.sampled_from(ids))
    subset = draw(st.lists(st.sampled_from(ids), unique=True))
    gamma = draw(st.sampled_from([0, 0.5, 1]))
    return g, q, subset, gamma


def both_stats(g):
    """The matrix path's stats and the same bounds without a matrix."""
    s = norm_stats_local(g)
    assert (s.z is not None) == bool(s.ndim)
    return s, NormStats(s.mins, s.maxs)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(attributed_graphs())
def test_f_equals_per_node_reference(case):
    g, q, subset, gamma = case
    for s in both_stats(g):
        want = reference_f(g, q, gamma, s, subset)
        assert composite_distances_local(g, q, gamma, s, nodes=subset) == want
        assert composite_distances_local(g, q, gamma, s) == reference_f(g, q, gamma, s, g.adj)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(attributed_graphs())
def test_worst_pair_equals_brute_force(case):
    g, _, subset, gamma = case
    community = set(subset) if len(subset) > 1 else set(g.adj)
    for s in both_stats(g):
        assert worst_pair(g, community, gamma, s) == brute_worst_pair(g, community, gamma, s)


def test_matrix_of_another_graph_is_not_read():
    """Stats built on g1 carry g1's matrix; f on g2 (same ids, other
    attributes) must normalise g2's own rows with g1's bounds."""
    ids = range(4)
    g1 = LocalGraph.from_edges(
        [(0, 1), (1, 2), (2, 3)], nattrs={v: [float(v), 10.0 * v] for v in ids}
    )
    g2 = LocalGraph.from_edges(
        [(0, 1), (1, 2), (2, 3)], nattrs={v: [3.0 - v, 5.0 * v] for v in ids}
    )
    s1 = norm_stats_local(g1)
    bounds = NormStats(s1.mins, s1.maxs)
    got = composite_distances_local(g2, 0, 0.0, s1)
    assert got == composite_distances_local(g2, 0, 0.0, bounds)
    assert got == reference_f(g2, 0, 0.0, bounds, ids)
    assert got != composite_distances_local(g1, 0, 0.0, s1)
