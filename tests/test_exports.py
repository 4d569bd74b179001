"""Every module of ``repro`` imports, and every name in its ``__all__`` exists."""
import importlib
import pkgutil

import pytest

import repro

MODULES = sorted(m.name for m in pkgutil.walk_packages(repro.__path__, "repro."))


def test_walk_finds_the_packages():
    assert {"repro.core", "repro.graphs", "repro.spark_core"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
