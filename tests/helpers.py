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

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

import networkx as nx
import numpy as np

from repro.graphkit import Graph, core_decomposition
from repro.graphkit.centrality import (
    ApproxCloseness,
    Betweenness,
    Closeness,
    DegreeCentrality,
    EigenvectorCentrality,
    EstimateBetweenness,
    HarmonicCloseness,
    KatzCentrality,
    PageRank,
)
from repro.graphkit.centrality.base import IMPLEMENTATIONS
from repro.graphkit.parallel import set_num_threads

__all__ = [
    "to_networkx",
    "all_impls",
    "EngineCase",
    "ENGINE_MATRIX",
    "EXACT_ATOL",
    "SEEDS",
    "random_weighted",
    "weighted_disconnected",
    "num_threads",
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


def all_impls(measure) -> tuple[str, ...]:
    """Every registered ``impl=`` of a measure class (or instance).

    The shared ``("vectorized", "reference")`` pair plus the class's
    ``extra_impls`` — the complete engine set the matrix harness must
    account for.
    """
    cls = measure if isinstance(measure, type) else type(measure)
    return tuple(IMPLEMENTATIONS) + tuple(getattr(cls, "extra_impls", ()))


def _n(g) -> int:
    return g.number_of_nodes() if isinstance(g, Graph) else g.n


def random_weighted(n: int, p: float, seed: int) -> Graph:
    """Random graph with strictly positive random edge weights."""
    from repro.graphkit.generators import erdos_renyi

    csr = erdos_renyi(n, p, seed=seed).csr()
    rng = np.random.default_rng(seed + 1000)
    edges = csr.edge_array()
    weights = rng.uniform(0.2, 3.0, size=len(edges))
    return Graph.from_weighted_edges(
        n, [(int(u), int(v), float(w)) for (u, v), w in zip(edges, weights)]
    )


def weighted_disconnected() -> Graph:
    """Two weighted components + an isolated node (multigraph-free)."""
    return Graph.from_weighted_edges(
        7,
        [
            (0, 1, 0.5),
            (1, 2, 1.5),
            (0, 2, 1.9),  # near-tie with the 0-1-2 path (length 2.0)
            (4, 5, 2.5),
            (5, 6, 0.25),
        ],
    )  # node 3 isolated


@dataclass(frozen=True)
class EngineCase:
    """One measure configuration and the engines it is pinned across.

    ``impls[0]`` is the baseline engine (or ``baseline`` overrides it
    with an external anchor, for estimators without a scalar twin);
    every other listed impl must agree within ``atol(impl)``. Engines a
    configuration legitimately cannot run go in ``excluded`` with a
    reason — the matrix verifies they *raise* — and
    ``impls ∪ excluded`` must equal :func:`all_impls` of the class, so
    a newly registered engine fails the drift guard until it joins.
    """

    id: str
    cls: type | None
    factory: Callable[..., np.ndarray]  # (g, impl) -> (n,) scores
    impls: tuple[str, ...]
    group: str = "hop"  # hop | weighted | directed | estimator | decomposition
    excluded: dict[str, str] = field(default_factory=dict)
    tolerances: dict[str, float] = field(default_factory=dict)
    baseline: Callable[..., np.ndarray] | None = None
    #: Estimator identities only hold when every pivot reaches every
    #: node — such cases run on connected fixtures only.
    connected_only: bool = False
    #: Compare peak-normalized score vectors (estimators whose scale
    #: differs from the exact measure by a constant factor).
    normalize_peak: bool = False

    def atol(self, impl: str) -> float:
        return self.tolerances.get(impl, EXACT_ATOL)

    def run(self, g, impl: str) -> np.ndarray:
        return np.asarray(self.factory(g, impl), dtype=np.float64)


def _sampled_weighted(g, impl: str) -> np.ndarray:
    # Full pivot set: the sampled estimator visits every source exactly
    # once, so it equals the exact engine up to float summation order —
    # the documented matrix tolerance for "sampled".
    kwargs = {"nsamples": max(1, _n(g))} if impl == "sampled" else {}
    return (
        Betweenness(g, weighted=True, impl=impl, **kwargs)
        .run()
        .scores_array()
    )


def _eigenvector(g, impl: str) -> np.ndarray:
    # EigenvectorCentrality registers no alternate engines at all — its
    # constructor does not take ``impl=`` — so any non-default engine is
    # rejected by the constructor itself (TypeError).
    kwargs = {} if impl == "vectorized" else {"impl": impl}
    return EigenvectorCentrality(g, **kwargs).run().scores_array()


_UNDIRECTED_ONLY = "undirected-only engine (rejected at construction)"
_WEIGHTED_ONLY = "weighted-only estimator (rejected at construction)"
_NO_SCALAR_TWIN = (
    "sampling estimator has no scalar twin; impl='reference' raises "
    "instead of silently running the fast engine"
)

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
        excluded={"sampled": _WEIGHTED_ONLY},
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
    # -- weighted (delta-stepping) engines --------------------------------
    EngineCase(
        id="closeness-weighted",
        cls=Closeness,
        group="weighted",
        factory=lambda g, impl: Closeness(
            g, weighted=True, normalized=True, impl=impl
        )
        .run()
        .scores_array(),
        impls=("vectorized", "reference"),
    ),
    EngineCase(
        id="harmonic-weighted",
        cls=HarmonicCloseness,
        group="weighted",
        factory=lambda g, impl: HarmonicCloseness(
            g, weighted=True, normalized=False, impl=impl
        )
        .run()
        .scores_array(),
        impls=("vectorized", "reference"),
    ),
    EngineCase(
        id="betweenness-weighted",
        cls=Betweenness,
        group="weighted",
        factory=_sampled_weighted,
        impls=("vectorized", "reference", "sampled"),
        tolerances={"sampled": 1e-8},
    ),
    # -- directed batched Brandes -----------------------------------------
    EngineCase(
        id="betweenness-directed",
        cls=Betweenness,
        group="directed",
        factory=lambda g, impl: Betweenness(g, directed=True, impl=impl)
        .run()
        .scores_array(),
        impls=("vectorized", "reference"),
        excluded={"sampled": _UNDIRECTED_ONLY},
    ),
    # -- sampling estimators (pinned to their exact anchors) --------------
    EngineCase(
        id="betweenness-estimate",
        cls=EstimateBetweenness,
        group="estimator",
        factory=lambda g, impl: EstimateBetweenness(
            g, nsamples=max(1, _n(g)), impl=impl
        )
        .run()
        .scores_array(),
        impls=("vectorized",),
        baseline=lambda g: Betweenness(g).run().scores_array(),
        excluded={"reference": _NO_SCALAR_TWIN},
    ),
    EngineCase(
        id="closeness-approx",
        cls=ApproxCloseness,
        group="estimator",
        factory=lambda g, impl: ApproxCloseness(
            g, nsamples=max(1, _n(g)), normalized=True, impl=impl
        )
        .run()
        .scores_array(),
        impls=("vectorized",),
        baseline=lambda g: Closeness(g, normalized=True)
        .run()
        .scores_array(),
        excluded={"reference": _NO_SCALAR_TWIN},
        connected_only=True,
        normalize_peak=True,
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
