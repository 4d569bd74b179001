"""Named synthetic stand-ins for the paper's evaluation datasets.

Table I of the paper lists 5 homogeneous social networks and 5
heterogeneous graphs; Table III additionally uses Orkut and Amazon for
their human-annotated ground-truth communities. Each recipe in
``REGISTRY`` is a seeded, deterministic planted-partition graph at laptop
scale whose relative character matches its namesake:

* relative density ordering (twitch > facebook > livejournal > github);
* heterogeneous graphs with target/bridge/flavour node types and a
  canonical meta-path (A-P-A for dblp, person-movie-person for imdb);
* dbpedia/yago/freebase carry *numerical attributes only*, reproducing
  the paper's observation that equality-matching ACQ returns nothing on
  them (Table V '-' cells);
* facebook/livejournal/orkut/amazon expose planted communities as the
  human-annotated ground truth for the F1 evaluation (Table III).

:func:`load` is memoised — a dataset is generated once per process.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Any, Callable, Dict, List, Tuple

from .generator import GeneratedGraph, planted_heterogeneous, planted_homogeneous

# Knowledge-graph stand-ins: numerical attributes only.
_KG = dict(textual=False, n_dim=16, n_sigma=0.10)

# name -> (generator, its keyword arguments)
REGISTRY: Dict[str, Tuple[Callable[..., GeneratedGraph], Dict[str, Any]]] = {
    "facebook": (planted_homogeneous, dict(
        n_comms=28, comm_size=22, p_in=0.40, m_out=250, seed=101)),
    "github": (planted_homogeneous, dict(
        n_comms=70, comm_size=16, p_in=0.35, m_out=300, seed=102)),
    "twitch": (planted_homogeneous, dict(
        n_comms=30, comm_size=22, p_in=0.50, m_out=500, seed=103)),
    "livejournal": (planted_homogeneous, dict(
        n_comms=160, comm_size=20, p_in=0.38, m_out=700, seed=104)),
    "twitter": (planted_homogeneous, dict(
        n_comms=320, comm_size=20, p_in=0.35, m_out=2000, seed=105)),
    "orkut": (planted_homogeneous, dict(
        n_comms=64, comm_size=20, p_in=0.40, m_out=400, seed=106)),
    "amazon": (planted_homogeneous, dict(
        n_comms=64, comm_size=16, p_in=0.40, m_out=250, seed=107)),
    # Authors joined through papers; venues/topics as flavour types.
    "dblp": (planted_heterogeneous, dict(
        n_comms=32, comm_size=18, p_in=0.40, m_out=200, seed=108,
        target_type="A", bridge_type="P", flavour_types=("V", "T"))),
    # Persons joined through movies; genres as flavour type.
    "imdb": (planted_heterogeneous, dict(
        n_comms=40, comm_size=20, p_in=0.40, m_out=250, seed=109,
        target_type="person", bridge_type="movie", flavour_types=("genre",))),
    "dbpedia": (planted_heterogeneous, dict(
        n_comms=16, comm_size=20, p_in=0.45, m_out=150, seed=110,
        target_type="entity", bridge_type="rel",
        flavour_types=("cls", "cat", "prop"), **_KG)),
    "yago": (planted_heterogeneous, dict(
        n_comms=18, comm_size=20, p_in=0.42, m_out=180, seed=111,
        target_type="entity", bridge_type="fact", flavour_types=("cls", "geo"), **_KG)),
    "freebase": (planted_heterogeneous, dict(
        n_comms=20, comm_size=20, p_in=0.42, m_out=200, seed=112,
        target_type="entity", bridge_type="mid",
        flavour_types=("dom", "typ", "prop", "cvt"), **_KG)),
}

# Ordered as in Table I: 5 homogeneous then 5 heterogeneous.
TABLE1_DATASETS: List[str] = [
    "facebook", "github", "twitch", "livejournal", "twitter",
    "dblp", "imdb", "dbpedia", "freebase", "yago",
]

# Table III datasets with human-annotated (here: planted) ground truth.
HA_GT_DATASETS: List[str] = ["facebook", "livejournal", "orkut", "amazon"]


@lru_cache(maxsize=None)
def load(name: str) -> GeneratedGraph:
    """Load a dataset stand-in by its paper name (lower-case)."""
    try:
        generate, kwargs = REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown dataset {name!r}; known: {sorted(REGISTRY)}") from None
    return generate(**kwargs)
