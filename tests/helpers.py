"""Shared test helpers (importable, unlike conftest fixtures).

Besides the networkx bridge, this module hosts the **engine registry**:
one :class:`EngineCase` per measure configuration, naming every
``impl=`` engine the measure registers, the tolerance each pair is
pinned at, and a documented reason for every engine a case does *not*
run. The cross-engine matrix harness
(``tests/graphkit/test_kernel_matrix.py``) and the legacy differential
suites (``tests/graphkit/test_impl_differential.py``) both consume this
registry, so a new engine joins every suite by editing exactly one
table — and the matrix drift guard fails if it doesn't.
"""

from __future__ import annotations

import functools
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from typing import Callable, Iterator

import networkx as nx
import numpy as np

from repro.graphkit import Graph, core_decomposition
from repro.graphkit.centrality import (
    Betweenness,
    Closeness,
    DegreeCentrality,
    EigenvectorCentrality,
    HarmonicCloseness,
    KatzCentrality,
    PageRank,
)
from repro.graphkit.parallel import set_num_threads

__all__ = [
    "to_networkx",
    "EngineCase",
    "ENGINE_MATRIX",
    "EXACT_ATOL",
    "SEEDS",
    "num_threads",
    "ShmLedger",
]

#: Canonical seed triple shared by the differential suites.
SEEDS = [1, 7, 23]

#: Tolerance for "exact" engine pairs: independent float summation
#: orders (SpMM vs scalar loops vs packed scatter-adds) on identical
#: shortest-path structure.
EXACT_ATOL = 1e-8


def to_networkx(g: Graph) -> nx.Graph:
    """Convert a repro Graph to networkx for cross-validation."""
    out = nx.DiGraph() if g.directed else nx.Graph()
    out.add_nodes_from(range(g.number_of_nodes()))
    if g.weighted:
        out.add_weighted_edges_from(g.iter_weighted_edges())
    else:
        out.add_edges_from(g.iter_edges())
    return out


@contextmanager
def num_threads(n: int) -> Iterator[None]:
    """Run the block with ``set_num_threads(n)``, then reset the count."""
    set_num_threads(n)
    try:
        yield
    finally:
        set_num_threads(None)


class ShmLedger:
    """The shared-memory segments this process creates, and which remain.

    While the ledger is active (``with ShmLedger() as ledger:``), every
    ``SharedMemory(create=True)`` in this process records its name;
    :meth:`leaked` lists the recorded segments still present in
    ``shm_dir``. Segments of other processes are never recorded, so a
    benchmark running beside the test suite cannot trip a gate built on
    this ledger.
    """

    def __init__(self, shm_dir: str = "/dev/shm"):
        self.shm_dir = shm_dir
        self.created: list[str] = []
        self._original = shared_memory.SharedMemory.__init__

    def __enter__(self) -> "ShmLedger":
        original, created = self._original, self.created

        @functools.wraps(original)
        def recording_init(shm, name=None, create=False, size=0, **kwargs):
            original(shm, name, create, size, **kwargs)
            if create:
                created.append(shm.name)

        shared_memory.SharedMemory.__init__ = recording_init
        return self

    def __exit__(self, *exc) -> None:
        shared_memory.SharedMemory.__init__ = self._original

    def leaked(self) -> list[str]:
        """Recorded segment names that still exist, sorted."""
        return sorted(
            name
            for name in set(self.created)
            if os.path.exists(os.path.join(self.shm_dir, name))
        )


@dataclass(frozen=True)
class EngineCase:
    """One measure configuration and the engines it is pinned across.

    ``impls[0]`` is the baseline engine; every other listed impl must
    agree within ``atol(impl)``. Engines a configuration legitimately
    cannot run go in ``excluded`` with a reason — the matrix verifies
    they *raise* — and ``impls ∪ excluded`` must equal the shared
    ``IMPLEMENTATIONS`` pair, so a newly registered engine fails the
    drift guard until it joins.
    """

    id: str
    cls: type | None
    factory: Callable[..., np.ndarray]  # (g, impl) -> (n,) scores
    impls: tuple[str, ...]
    group: str = "hop"  # hop | decomposition
    excluded: dict[str, str] = field(default_factory=dict)
    tolerances: dict[str, float] = field(default_factory=dict)

    def atol(self, impl: str) -> float:
        return self.tolerances.get(impl, EXACT_ATOL)

    def run(self, g, impl: str) -> np.ndarray:
        return np.asarray(self.factory(g, impl), dtype=np.float64)


def _eigenvector(g, impl: str) -> np.ndarray:
    # EigenvectorCentrality registers no alternate engines at all — its
    # constructor does not take ``impl=`` — so any non-default engine is
    # rejected by the constructor itself (TypeError).
    kwargs = {} if impl == "vectorized" else {"impl": impl}
    return EigenvectorCentrality(g, **kwargs).run().scores_array()


ENGINE_MATRIX: tuple[EngineCase, ...] = (
    EngineCase(
        id="degree",
        cls=DegreeCentrality,
        factory=lambda g, impl: DegreeCentrality(g, impl=impl)
        .run()
        .scores_array(),
        impls=("vectorized", "reference"),
    ),
    EngineCase(
        id="degree-weighted",
        cls=DegreeCentrality,
        factory=lambda g, impl: DegreeCentrality(g, weighted=True, impl=impl)
        .run()
        .scores_array(),
        impls=("vectorized", "reference"),
    ),
    EngineCase(
        id="closeness",
        cls=Closeness,
        factory=lambda g, impl: Closeness(g, normalized=True, impl=impl)
        .run()
        .scores_array(),
        impls=("vectorized", "reference"),
    ),
    EngineCase(
        id="harmonic",
        cls=HarmonicCloseness,
        factory=lambda g, impl: HarmonicCloseness(
            g, normalized=False, impl=impl
        )
        .run()
        .scores_array(),
        impls=("vectorized", "reference"),
    ),
    EngineCase(
        id="betweenness",
        cls=Betweenness,
        factory=lambda g, impl: Betweenness(g, impl=impl).run().scores_array(),
        impls=("vectorized", "reference"),
    ),
    EngineCase(
        id="pagerank",
        cls=PageRank,
        factory=lambda g, impl: PageRank(g, tol=1e-13, impl=impl)
        .run()
        .scores_array(),
        impls=("vectorized", "reference"),
    ),
    EngineCase(
        id="katz",
        cls=KatzCentrality,
        factory=lambda g, impl: KatzCentrality(
            g, method="series", tol=1e-13, impl=impl
        )
        .run()
        .scores_array(),
        impls=("vectorized", "reference"),
    ),
    EngineCase(
        id="eigenvector",
        cls=EigenvectorCentrality,
        factory=_eigenvector,
        impls=("vectorized",),
        excluded={
            "reference": "no scalar twin; pinned against networkx in "
            "test_centrality_vs_networkx.py instead"
        },
    ),
    # -- decomposition ----------------------------------------------------
    EngineCase(
        id="core-decomposition",
        cls=None,
        group="decomposition",
        factory=lambda g, impl: core_decomposition(g, impl=impl).astype(
            np.float64
        ),
        impls=("vectorized", "reference"),
        tolerances={"reference": 0.0},
    ),
)
