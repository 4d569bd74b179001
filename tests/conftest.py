"""Shared fixtures: datasets (local + Spark) built once per session."""
import pytest

from repro.graphs import AttributedGraph
from repro.graphs.datasets import load
from repro.graphs.generator import planted_homogeneous


@pytest.fixture(scope="session")
def tiny():
    """An 80-node planted graph — the workhorse for algorithm tests."""
    return planted_homogeneous(n_comms=4, comm_size=20, p_in=0.45, m_out=40, seed=7)


@pytest.fixture(scope="session")
def tiny_spark(spark, tiny):
    # cached lazily: the first query's reads materialise the frame
    return AttributedGraph.from_local(spark, tiny.graph).cache()


@pytest.fixture(scope="session")
def fb():
    return load("facebook")


@pytest.fixture(scope="session")
def dblp():
    return load("dblp")
