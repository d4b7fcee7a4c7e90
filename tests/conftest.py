"""Shared fixtures: small canonical graphs and protein trajectories,
plus the suite-wide shared-memory leak gate."""

from __future__ import annotations

import gc
import os

import networkx as nx
import pytest

from repro.graphkit import Graph
from repro.md import generate_trajectory, proteins
from tests.helpers import ShmLedger

_SHM_DIR = "/dev/shm"


@pytest.fixture(scope="session", autouse=True)
def _shared_memory_leak_gate():
    """Fail the suite if a test leaves a shared-memory segment behind.

    Records every segment this process creates during the session
    (:class:`tests.helpers.ShmLedger`); after the last test, shuts the
    process-wide compute service down (its ``atexit`` hook would
    otherwise only run after this check) and asserts none of them
    remains — every ``SharedDataset``, ``SharedCancelFlag`` and pool a
    test created must be gone, whether it was closed explicitly or
    reaped by a finalizer. Segments other processes hold are not this
    suite's to judge.
    """
    if not os.path.isdir(_SHM_DIR):  # non-Linux fallback: nothing to gate
        yield
        return
    with ShmLedger(_SHM_DIR) as ledger:
        yield
        from repro.graphkit.service import shutdown_compute_service

        shutdown_compute_service()
        gc.collect()  # run pending SharedDataset/flag finalizers
    leaked = ledger.leaked()
    assert not leaked, (
        f"test suite leaked shared-memory segments: {leaked}"
    )


@pytest.fixture(scope="session")
def a3d_traj():
    """12-frame A3D trajectory shared across rin/core/bench tests."""
    topo, native = proteins.build("A3D")
    return generate_trajectory(topo, native, 12, seed=7)


@pytest.fixture(scope="session")
def trp_traj():
    topo, native = proteins.build("2JOF")
    return generate_trajectory(topo, native, 12, seed=7)


@pytest.fixture(scope="session")
def ntl9_traj():
    topo, native = proteins.build("NTL9")
    return generate_trajectory(topo, native, 12, seed=7)


@pytest.fixture
def triangle() -> Graph:
    """K3."""
    return Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def path4() -> Graph:
    """Path 0-1-2-3."""
    return Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])


@pytest.fixture
def star5() -> Graph:
    """Star with center 0 and four leaves."""
    return Graph.from_edges(5, [(0, i) for i in range(1, 5)])


@pytest.fixture
def two_triangles() -> Graph:
    """Two triangles joined by one bridge edge (2-3)."""
    return Graph.from_edges(
        6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]
    )


@pytest.fixture
def disconnected() -> Graph:
    """An edge plus an isolated node."""
    return Graph.from_edges(3, [(0, 1)])


@pytest.fixture
def karate() -> Graph:
    """Zachary's karate club (the paper's Listing 1 example graph)."""
    nxg = nx.karate_club_graph()
    return Graph.from_edges(nxg.number_of_nodes(), nxg.edges())


