"""The paper's contribution: Exact CS-AG and the SEA approximate method."""
from .estimation import (
    BLBEstimate,
    BLBParams,
    accuracy_guaranteed,
    blb_estimate,
    incremental_sample_size,
    moe_threshold,
    z_value,
)
from .exact import ExactResult, exact_cs
from .hoeffding import min_neighborhood_size, min_possible_worlds
from .sea import SEAParams, SEAResult, SEARound, sea_search, sea_search_spark

__all__ = [
    "BLBEstimate",
    "BLBParams",
    "ExactResult",
    "SEAParams",
    "SEAResult",
    "SEARound",
    "accuracy_guaranteed",
    "blb_estimate",
    "exact_cs",
    "incremental_sample_size",
    "min_neighborhood_size",
    "min_possible_worlds",
    "moe_threshold",
    "sea_search",
    "sea_search_spark",
    "z_value",
]
