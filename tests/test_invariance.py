"""SEA's and Exact's answers are functions of the graph, q and the
parameters only: neither the order in which the edges were inserted nor
the node labels reach them.

The facebook stand-in is rebuilt three ways — its edges reversed, its
edges shuffled, its ids relabelled by a fixed permutation — and every
answer on 30 query nodes must equal the one on the original build: the
full ``SEAResult`` of the k-core and k-truss models (every field but the
wall times) and Exact's community and δ, with the relabelled build's
communities mapped back through the permutation. Node ids do break ties
between nodes of equal f(·,q), so the relabelling leaves the ids of such
nodes alone.
"""
import random
from collections import Counter

import pytest

from repro.core import SEAParams, exact_cs, sea_search
from repro.experiments import pick_queries, prepare
from repro.graphs import LocalGraph
from repro.metrics import composite_distances_local, norm_stats_local

K = 4


def rebuild(g, edges, label):
    """``g`` rebuilt from ``edges`` inserted in the given order, every id v
    renamed ``label[v]``."""
    return LocalGraph.from_edges(
        [(label[v], label[u]) for v, u in edges],
        tattrs={label[v]: a for v, a in g.tattrs.items()},
        nattrs={label[v]: a for v, a in g.nattrs.items()},
        nodes=[label[v] for v in g.adj],
    )


def answers(g, queries, label, gamma):
    """Every answer for ``queries`` (original ids) on ``g``, whose ids are
    the originals renamed by ``label``; communities are read back in
    original ids. Floats are compared by ``repr``, which round-trips them
    exactly and lets a NaN equal a NaN."""
    back = {new: old for old, new in label.items()}
    stats = norm_stats_local(g)
    out = {}
    for q in queries:
        for model in ("core", "truss"):
            r = sea_search(g, label[q], SEAParams(k=K, gamma=gamma, model=model, seed=q), stats)
            out[model, q] = repr((
                sorted(back[v] for v in r.community or ()), r.delta_star, r.moe,
                r.satisfied, r.gq_size, r.min_gq,
                [(x.round, x.delta_star, x.moe, x.delta_s, x.n_sample, x.n_candidates)
                 for x in r.rounds],
            ))
        x = exact_cs(g, label[q], K, gamma=gamma, stats=stats)
        out["exact", q] = repr((sorted(back[v] for v in x.community or ()), x.delta))
    return out


@pytest.fixture(scope="module")
def original():
    prep = prepare("facebook")
    queries = pick_queries(prep, K, 30, 1)
    identity = {v: v for v in prep.graph.adj}
    return prep, queries, answers(prep.graph, queries, identity, prep.gamma)


def _shuffled(edges):
    edges = list(edges)
    random.Random(7).shuffle(edges)
    return edges


@pytest.mark.parametrize("build", ["reversed", "shuffled", "relabelled"])
def test_answers_depend_on_the_graph_alone(original, build):
    prep, queries, want = original
    g = prep.graph
    edges = [(v, u) for v in g.adj for u in g.adj[v] if v < u]
    ids = sorted(g.adj)
    label = {v: v for v in ids}
    if build == "reversed":
        edges = edges[::-1]
    elif build == "shuffled":
        edges = _shuffled(edges)
    else:
        # f ties are broken by id on purpose (the BFS heap, the greedy peel
        # and Exact's priority order), so a node whose f(·,q) equals another
        # node's for one of the queries keeps its id; the others are shuffled
        tied = set()
        for q in queries:
            f = composite_distances_local(g, q, prep.gamma, prep.stats)
            count = Counter(f.values())
            tied |= {v for v, x in f.items() if count[x] > 1}
        free = [v for v in ids if v not in tied]
        label.update(zip(free, _shuffled(free)))
    got = answers(rebuild(g, edges, label), queries, label, prep.gamma)
    moved = sorted((key, want[key], got[key]) for key in want if got[key] != want[key])
    assert not moved, moved
