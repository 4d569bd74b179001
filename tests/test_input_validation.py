"""Bad inputs are rejected at the API boundary with a ValueError.

Out-of-range SEA parameters would otherwise pass silently (``alpha=1.5``
makes the Theorem-11 test vacuous, ``k=0`` returns {q} as satisfied, an
``h`` below the model's fewest nodes leaves no community) or fail deep
inside a loop (``e=-1``, ``alpha=0``, an unknown model after the G_q
BFS); a query node that is not in the graph would raise ``KeyError``
from the distance pass (SEA) or return no community (Exact, VAC, E-VAC,
ACQ, LocATC, Spark SEA), and ``k=0`` makes Exact enumerate q's whole
component and LocATC return a community. Exact's ablation level
``prunings`` names how many of P1, P2, P3 apply, so only 0–3 mean
anything.
"""
import pytest

from repro.baselines import acq_search, evac_search, locatc_search, vac_search
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
    dict(model="bogus"),
    dict(size_bound=(2, 3), k=4),  # h below a 4-core's 5 nodes
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
] + [
    pytest.param(lambda g, f=f: f(g, MISSING, 4), str(MISSING), id=f"{f.__name__}-missing-q")
    for f in (vac_search, evac_search)
] + [
    pytest.param(lambda g, f=f: f(g, 0, 0), "got 0", id=f"{f.__name__}-k0")
    for f in (exact_cs, vac_search, evac_search)
] + [
    pytest.param(
        lambda g, p=p: exact_cs(g, 0, 4, prunings=p), "prunings", id=f"exact_cs-prunings{p}"
    )
    for p in (-1, 4)
] + [
    pytest.param(lambda g, f=f: f(g, MISSING, 4), str(MISSING), id=f"{f.__name__}-missing-q")
    for f in (acq_search, locatc_search)
] + [
    pytest.param(lambda g, f=f: f(g, 0, 0), "got 0", id=f"{f.__name__}-k0")
    for f in (acq_search, locatc_search)
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
