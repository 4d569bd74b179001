"""Attribute-distance and cohesiveness metrics."""
from .cohesiveness import acq_shared, atc_coverage, f1_score, vac_minmax, worst_pair
from .distance import (
    DEFAULT_GAMMA,
    NormStats,
    composite_distances_local,
    delta,
    jaccard_distance,
    norm_stats_local,
)

__all__ = [
    "DEFAULT_GAMMA",
    "NormStats",
    "acq_shared",
    "atc_coverage",
    "composite_distances_local",
    "delta",
    "f1_score",
    "jaccard_distance",
    "norm_stats_local",
    "vac_minmax",
    "worst_pair",
]
