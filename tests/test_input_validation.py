"""Bad inputs are rejected at the API boundary with a ValueError.

Out-of-range SEA parameters would otherwise pass silently (``alpha=1.5``
makes the Theorem-11 test vacuous, ``k=0`` returns {q} as satisfied) or
fail deep inside a loop (``e=-1``, ``alpha=0``); a query node that is not
in the graph would raise ``KeyError`` from the distance pass (SEA) or
return no community (Exact, Spark SEA).
"""
import pytest

from repro.core import SEAParams, exact_cs, sea_search, sea_search_spark

MISSING = 10**6  # no node of the tiny fixture has this id

BAD_PARAMS = [
    dict(k=0),
    dict(e=0.0),
    dict(e=-1.0),
    dict(max_rounds=0),
    dict(gamma=-0.1),
    dict(gamma=1.5),
    dict(alpha=0.0),
    dict(alpha=1.0),
    dict(alpha=1.5),
    dict(lam=0.0),
    dict(lam=1.5),
    dict(hoeffding_eps=0.0),
    dict(hoeffding_beta=0.0),
    dict(hoeffding_beta=1.0),
    dict(size_bound=(0, 10)),
    dict(size_bound=(20, 10)),
]

CASES = [
    pytest.param(lambda g, kw=kw: SEAParams(**kw), next(iter(kw)), id=repr(kw))
    for kw in BAD_PARAMS
] + [
    pytest.param(
        lambda g: sea_search(g, MISSING, SEAParams(k=4)), str(MISSING),
        id="sea_search-missing-q",
    ),
    pytest.param(
        lambda g: exact_cs(g, MISSING, 4), str(MISSING), id="exact_cs-missing-q"
    ),
]


@pytest.mark.parametrize("call, named", CASES)
def test_bad_input_rejected(tiny, call, named):
    """The error names the offending parameter or query node."""
    with pytest.raises(ValueError, match=named):
        call(tiny.graph)


def test_sea_search_spark_missing_q(tiny_spark):
    """The Spark front end rejects a missing q instead of returning no
    community from an empty G_q."""
    with pytest.raises(ValueError, match=str(MISSING)):
        sea_search_spark(tiny_spark, MISSING, SEAParams(k=4))
