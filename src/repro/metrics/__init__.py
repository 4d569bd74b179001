"""Attribute-distance and cohesiveness metrics."""
from .cohesiveness import acq_shared, atc_coverage, delta_metric, f1_score, vac_minmax
from .distance import (
    DEFAULT_GAMMA,
    NormStats,
    composite_distances,
    composite_distances_local,
    delta,
    jaccard_distance,
    norm_stats_local,
    norm_stats_spark,
    pair_distance,
)

__all__ = [
    "DEFAULT_GAMMA",
    "NormStats",
    "acq_shared",
    "atc_coverage",
    "composite_distances",
    "composite_distances_local",
    "delta",
    "delta_metric",
    "f1_score",
    "jaccard_distance",
    "norm_stats_local",
    "norm_stats_spark",
    "pair_distance",
    "vac_minmax",
]
