"""Tests for the community-model table every search method goes through."""
import sys

import numpy as np
import pytest

from repro.baselines import acq_search, evac_search, locatc_search, vac_search
from repro.core import SEAParams, brute_force_cs, exact_cs, sea_search
from repro.graphs import (
    LocalGraph,
    community_model,
    maximal_connected_kcore,
    maximal_connected_ktruss,
)


def clique(n, seed=0):
    rng = np.random.default_rng(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    tattrs = {v: [f"t{rng.integers(4)}"] for v in range(n)}
    nattrs = {v: rng.random(1) for v in range(n)}
    return LocalGraph.from_edges(edges, tattrs=tattrs, nattrs=nattrs)


class TestTable:
    def test_core(self):
        m = community_model("core")
        assert m.maximal is maximal_connected_kcore
        assert m.min_size(4) == 5  # a k-core has at least k+1 nodes
        # the peel step: deleting 4 from the 5-clique leaves a 4-clique,
        # a 3-core; deleting one more node leaves no 3-core at all
        assert m.maximal(clique(5), 0, 3, within=set(range(5)) - {4}) == {0, 1, 2, 3}
        assert m.maximal(clique(5), 0, 3, within={0, 1, 2, 3} - {3}) == set()

    def test_truss(self):
        m = community_model("truss")
        assert m.maximal is maximal_connected_ktruss
        assert m.min_size(4) == 4  # a k-truss has at least k nodes (§VI-C)
        # a 4-clique is a 4-truss; without one of its nodes it is none
        assert m.maximal(clique(5), 0, 4, within=set(range(5)) - {4}) == {0, 1, 2, 3}
        assert m.maximal(clique(5), 0, 4, within={0, 1, 2, 3} - {3}) == set()

    def test_unknown(self):
        with pytest.raises(ValueError, match="unknown model 'clique'"):
            community_model("clique")


ENTRY_POINTS = {
    "sea_search": lambda g: sea_search(g, 0, SEAParams(k=3, model="clique")),
    "exact_cs": lambda g: exact_cs(g, 0, 3, model="clique"),
    "brute_force_cs": lambda g: brute_force_cs(g, 0, 3, model="clique"),
    "acq_search": lambda g: acq_search(g, 0, 3, model="clique"),
    "locatc_search": lambda g: locatc_search(g, 0, 3, model="clique"),
    "vac_search": lambda g: vac_search(g, 0, 3, model="clique"),
    "evac_search": lambda g: evac_search(g, 0, 3, model="clique"),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_points_reject_unknown_model(entry):
    with pytest.raises(ValueError, match="unknown model 'clique'"):
        ENTRY_POINTS[entry](clique(6))


def test_deep_searches_leave_recursion_limit_alone(monkeypatch):
    """Exact and E-VAC walk their search trees with an explicit stack, so
    a deep tree neither recurses nor touches the interpreter's limit."""
    calls = []
    monkeypatch.setattr(sys, "setrecursionlimit", calls.append)
    g = clique(250)
    r = exact_cs(
        g, 0, 4, prune_duplicate=False, prune_unnecessary=False,
        prune_unpromising=False, max_states=100,
    )
    assert r.capped and r.states == 100
    e = evac_search(g, 0, 4, max_states=1)  # each state scans 31k pairs
    assert e.capped and e.states == 1
    assert calls == []
