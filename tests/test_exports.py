"""Every module of ``repro`` imports, every name in its ``__all__`` exists,
the local packages do not load pyspark, and no module loads the test
oracles' DuckDB or pandas."""
import importlib
import os
import pkgutil
import subprocess
import sys

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


def test_local_packages_do_not_load_pyspark():
    """Only the Spark front end loads pyspark: a fresh interpreter that
    imports every local package has not loaded it, and ``AttributedGraph``
    still imports from ``repro.graphs``."""
    code = (
        "import sys\n"
        "import repro.core, repro.metrics, repro.graphs, repro.baselines, "
        "repro.experiments, repro.hetero\n"
        "assert 'pyspark' not in sys.modules, 'pyspark was loaded'\n"
        "from repro.graphs import AttributedGraph\n"
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr


def test_library_does_not_load_oracle_dependencies():
    """DuckDB and pandas serve only the test oracles (``tests/oracle.py``):
    a fresh interpreter that imports every ``repro`` module has loaded
    neither."""
    code = (
        "import importlib, sys\n"
        f"for name in {MODULES!r}:\n"
        "    importlib.import_module(name)\n"
        "loaded = [m for m in ('duckdb', 'pandas') if m in sys.modules]\n"
        "assert not loaded, loaded\n"
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
