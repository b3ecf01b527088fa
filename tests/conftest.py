"""Shared fixtures for the test suite, and its one option.

``--execution hybrid`` runs the suite with ``PlatformConfig.execution``
defaulting to ``hybrid`` -- in this process and in every worker the
``process`` scheduler forks from it -- while a config that names its
execution keeps it.  CI's hybrid-execution conformance step passes it.
"""

from __future__ import annotations

import functools

import pytest

from repro.core import PlatformConfig
from repro.core.config import CHOICES
from repro.graphs import Graph, hex32, hex64, random_connected_graph
from repro.mpi import IDEAL, ORIGIN2000
from repro.partitioning import MetisLikePartitioner


def pytest_addoption(parser) -> None:
    parser.addoption(
        "--execution",
        choices=CHOICES["execution"],
        help="PlatformConfig.execution's default for this run (test side only)",
    )


def pytest_configure(config) -> None:
    execution = config.getoption("--execution")
    if execution is not None:
        PlatformConfig.__init__ = execution_default(execution)


def execution_default(execution: str):
    """``PlatformConfig.__init__`` with ``execution`` as that field's
    default."""
    init = PlatformConfig.__init__

    @functools.wraps(init)
    def __init__(self, *args, execution: str = execution, **kwargs) -> None:
        init(self, *args, execution=execution, **kwargs)

    return __init__


@pytest.fixture(scope="session")
def hex32_graph() -> Graph:
    return hex32()


@pytest.fixture(scope="session")
def hex64_graph() -> Graph:
    return hex64()


@pytest.fixture(scope="session")
def rand24_graph() -> Graph:
    return random_connected_graph(24, avg_degree=3.0, seed=7, name="rand24")


@pytest.fixture(scope="session")
def small_path() -> Graph:
    return Graph.from_edges(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)], name="path6")


@pytest.fixture(scope="session")
def metis() -> MetisLikePartitioner:
    return MetisLikePartitioner(seed=1)


@pytest.fixture(scope="session")
def ideal_machine():
    return IDEAL


@pytest.fixture(scope="session")
def origin_machine():
    return ORIGIN2000


@pytest.fixture
def vectorize_any_size(monkeypatch):
    """Let bulk kernels vectorize on graphs of any size.  The store
    differentials compare the struct-of-arrays sweep with the scalar twin's
    on small graphs, which the platform would otherwise keep on the object
    store (fewer than ``BULK_MIN_NODES_PER_RANK`` nodes a rank)."""
    monkeypatch.setattr("repro.core.platform.BULK_MIN_NODES_PER_RANK", 0)
