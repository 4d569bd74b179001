"""Synthetic attributed-graph generators.

The paper evaluates on ten real-world graphs (Table I) that we cannot
download offline; these generators produce seeded planted-partition
stand-ins whose *relative* character (density, attribute kinds, node/edge
types, known cohesive communities) matches each dataset. See DESIGN.md §3
for the substitution argument.

Structure: planted partition — each node belongs to one community; intra-
community edges appear with probability ``p_in``; a Hamiltonian cycle per
community guarantees base connectivity; ``m_out`` cross-community links
add noise. Cross links default to *bridge paths* (``a — bridge — b`` with
a fresh degree-2 bridge node): the graph stays globally connected — BFS
neighbourhoods and sampling cross communities — while any k≥3 core peels
the bridges away, so the maximal connected k-core containing q stays
community-sized and the exact ground truth (needed for every relative-
error table) is computable. Attributes are community-correlated:

* textual: each community owns ``N_TOPIC_TOKENS`` topic tokens; a node
  carries them (each dropped with probability ``T_NOISE``) plus
  ``N_GLOBAL_TOKENS`` random global tokens;
* numerical: each community has a centre in ``[0,1]^d``; node values are
  the centre plus Gaussian noise, clipped to [0,1].

An ``IMPOSTOR_FRAC`` fraction of each community's members are
**impostors**: structurally embedded exactly like any member, but with
attributes drawn from a *different* community's topic and centre, and
excluded from ``communities``/``ha_gt``. They are the Fig.-1 "dissimilar
movies inside the k-core": an attribute-cohesive search should trim
them, and the F1-vs-ground-truth evaluation (Table III) rewards methods
that do.

Heterogeneous graphs are built by *expanding* a homogeneous planted graph
over target nodes: every target–target edge is replaced by a length-2 path
through a fresh bridge node (e.g. authors joined through a paper), so the
meta-path projection T–B–T provably recovers the planted graph — which
both mirrors the paper's (k,P)-core setting and gives tests an exact
oracle for the projection dataflow. Additional flavour node/edge types
(venues, topics, …) hang off bridge nodes.

The recipe constants below are fixed: every dataset in
:mod:`.datasets`, and so every recorded table, is generated with them.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from .local import LocalGraph

IMPOSTOR_FRAC = 0.25  # share of each community's members that are impostors
N_TOPIC_TOKENS = 3  # topic tokens per community
N_GLOBAL_TOKENS = 1  # random global tokens per member
T_NOISE = 0.08  # probability that a member drops one of its topic tokens
FLAVOUR_FANOUT = 3  # a flavour type gets ~|bridges| / (4·FLAVOUR_FANOUT) hubs
GLOBAL_VOCAB = [f"g{j}" for j in range(50)]


@dataclass
class GeneratedGraph:
    """A generated graph plus its planted ground truth."""

    graph: LocalGraph
    communities: Dict[int, int]  # node id -> planted community id
    ha_gt: Dict[int, Set[int]] = field(default_factory=dict)  # comm id -> node ids
    is_hetero: bool = False
    target_type: Optional[str] = None
    meta_path: Optional[Tuple[str, ...]] = None

    def community_of(self, v: int) -> Set[int]:
        return self.ha_gt[self.communities[v]]


def _planted_edges(
    rng: np.random.Generator,
    comm_nodes: List[np.ndarray],
    p_in: float,
    m_out: int,
    n_total: int,
) -> Tuple[List[Tuple[int, int]], int]:
    """Intra-community edges plus bridge-path cross links; returns
    (edges, n_bridges).

    Bridge node ids are allocated contiguously from ``n_total`` upward.
    """
    edges: Set[Tuple[int, int]] = set()
    for nodes in comm_nodes:
        c = len(nodes)
        if c >= 2:
            # connectivity backbone: a cycle through the community
            perm = rng.permutation(nodes)
            for i in range(c):
                a, b = int(perm[i]), int(perm[(i + 1) % c])
                edges.add((min(a, b), max(a, b)))
        if c >= 3 and p_in > 0:
            iu, ju = np.triu_indices(c, k=1)
            mask = rng.random(len(iu)) < p_in
            for a, b in zip(nodes[iu[mask]], nodes[ju[mask]]):
                a, b = int(a), int(b)
                edges.add((min(a, b), max(a, b)))
    n_bridges = 0
    for _ in range(m_out):
        a, b = int(rng.integers(n_total)), int(rng.integers(n_total))
        if a == b:
            continue
        w = n_total + n_bridges
        n_bridges += 1
        edges.add((min(a, w), max(a, w)))
        edges.add((min(b, w), max(b, w)))
    return sorted(edges), n_bridges


def _attach_attributes(
    rng: np.random.Generator,
    communities: Dict[int, int],  # node -> community whose attributes it carries
    n_comms: int,
    n_dim: int,
    n_sigma: float,
    textual: bool,
) -> Tuple[Dict[int, frozenset], Dict[int, np.ndarray]]:
    topics = {
        c: [f"t{c}_{j}" for j in range(N_TOPIC_TOKENS)] for c in range(n_comms)
    }
    centres = rng.random((n_comms, n_dim))
    tattrs: Dict[int, frozenset] = {}
    nattrs: Dict[int, np.ndarray] = {}
    for v, c in communities.items():
        if textual:
            kept = [t for t in topics[c] if rng.random() >= T_NOISE]
            extra = list(rng.choice(GLOBAL_VOCAB, size=N_GLOBAL_TOKENS, replace=False))
            tattrs[v] = frozenset(kept + extra)
        else:
            tattrs[v] = frozenset()
        vals = np.clip(centres[c] + rng.normal(0.0, n_sigma, n_dim), 0.0, 1.0)
        nattrs[v] = vals
    return tattrs, nattrs


def planted_homogeneous(
    *,
    n_comms: int,
    comm_size: int,
    p_in: float,
    m_out: int,
    seed: int,
    n_dim: int = 2,
    n_sigma: float = 0.05,
    textual: bool = True,
) -> GeneratedGraph:
    """Planted-partition homogeneous attributed graph.

    ``communities``/``ha_gt`` cover the genuine community members only;
    bridge nodes and impostors belong to no
    planted community — they are the dissimilar nodes a good community
    search must keep out of its result.
    """
    rng = np.random.default_rng(seed)
    n = n_comms * comm_size
    order = rng.permutation(n)
    comm_nodes = [order[c * comm_size : (c + 1) * comm_size] for c in range(n_comms)]
    membership = {int(v): c for c, nodes in enumerate(comm_nodes) for v in nodes}
    edges, n_bridges = _planted_edges(rng, comm_nodes, p_in, m_out, n)
    # impostors: structural members whose attributes come from elsewhere
    impostors: Set[int] = set()
    attr_comm = dict(membership)
    n_imp = int(round(IMPOSTOR_FRAC * comm_size))
    if n_imp > 0 and n_comms > 1:
        for c, nodes in enumerate(comm_nodes):
            for v in rng.choice(nodes, size=n_imp, replace=False):
                v = int(v)
                impostors.add(v)
                foreign = int(rng.integers(n_comms - 1))
                attr_comm[v] = foreign if foreign < c else foreign + 1
    communities = {v: c for v, c in membership.items() if v not in impostors}
    tattrs, nattrs = _attach_attributes(
        rng, attr_comm, n_comms, n_dim, n_sigma, textual
    )
    if textual:
        # an impostor keeps ONE home-topic token (the Fig.-1 action movies
        # are still "movies"): coverage/equality metrics are attracted to
        # it while the composite q-centric distance still rejects it
        for v in impostors:
            home = membership[v]
            # sorted() keeps the generated graph identical across
            # processes (frozenset order is hash-randomised)
            tattrs[v] = frozenset(
                sorted(tattrs[v])[: N_TOPIC_TOKENS - 1]
                + [f"t{home}_0"]
            )
    for b in range(n, n + n_bridges):
        if textual:
            tattrs[b] = frozenset(
                rng.choice(GLOBAL_VOCAB, size=N_TOPIC_TOKENS, replace=False)
            )
        else:
            tattrs[b] = frozenset()
        nattrs[b] = rng.random(n_dim)
    g = LocalGraph.from_edges(
        edges, tattrs=tattrs, nattrs=nattrs, nodes=range(n + n_bridges)
    )
    ha_gt = {
        c: {int(v) for v in nodes if int(v) not in impostors}
        for c, nodes in enumerate(comm_nodes)
    }
    return GeneratedGraph(g, communities, ha_gt)


def planted_heterogeneous(
    *,
    n_comms: int,
    comm_size: int,
    p_in: float,
    m_out: int,
    seed: int,
    target_type: str = "A",
    bridge_type: str = "P",
    flavour_types: Sequence[str] = ("V",),
    n_dim: int = 2,
    n_sigma: float = 0.05,
    textual: bool = True,
) -> GeneratedGraph:
    """Heterogeneous expansion of a planted graph over target nodes.

    Target nodes keep the planted communities and attributes. Each planted
    target–target edge becomes target–bridge–target through a fresh bridge
    node, so the meta-path (target, bridge, target) projection returns
    exactly the planted homogeneous graph. Each flavour type adds hub nodes
    that bridge nodes link to (venue/topic-style).
    """
    base = planted_homogeneous(
        n_comms=n_comms, comm_size=comm_size, p_in=p_in, m_out=m_out, seed=seed,
        n_dim=n_dim, n_sigma=n_sigma, textual=textual,
    )
    rng = np.random.default_rng(seed + 1)
    n_targets = base.graph.num_nodes
    n_dim_eff = len(next(iter(base.graph.nattrs.values())))
    edges: List[Tuple[int, int]] = []
    ntypes: Dict[int, str] = {v: target_type for v in base.graph.adj}
    tattrs = dict(base.graph.tattrs)
    nattrs = dict(base.graph.nattrs)
    next_id = n_targets
    bridge_ids: List[int] = []
    for v in base.graph.adj:
        for u in base.graph.adj[v]:
            if v < u:
                b = next_id
                next_id += 1
                ntypes[b] = bridge_type
                tattrs[b] = frozenset()
                nattrs[b] = np.zeros(n_dim_eff)
                bridge_ids.append(b)
                edges.append((v, b))
                edges.append((b, u))
    for ft in flavour_types:
        n_hubs = max(1, len(bridge_ids) // FLAVOUR_FANOUT) // 4 or 1
        hubs = []
        for _ in range(n_hubs):
            h = next_id
            next_id += 1
            ntypes[h] = ft
            tattrs[h] = frozenset()
            nattrs[h] = np.zeros(n_dim_eff)
            hubs.append(h)
        for b in bridge_ids:
            h = hubs[int(rng.integers(len(hubs)))]
            edges.append((b, h))
    g = LocalGraph.from_edges(
        edges, tattrs=tattrs, nattrs=nattrs, ntypes=ntypes, nodes=range(next_id)
    )
    return GeneratedGraph(
        g,
        base.communities,
        base.ha_gt,
        is_hetero=True,
        target_type=target_type,
        meta_path=(target_type, bridge_type, target_type),
    )
