"""repro.graphkit — the NetworKit-analog network-analysis substrate.

A from-scratch, NumPy-vectorized reimplementation of the NetworKit feature
set the paper relies on: a dynamic :class:`Graph`, centralities
(:mod:`~repro.graphkit.centrality`), PLM and PLP community detection
(:mod:`~repro.graphkit.community`), components, graph generators, the
Maxent-Stress layout (:mod:`~repro.graphkit.layout`) and the METIS reader
of Listing 1 (:mod:`~repro.graphkit.io`).

The public API intentionally mirrors NetworKit's run-pattern::

    from repro import graphkit as gk
    g = gk.generators.erdos_renyi(100, 0.05, seed=1)
    bc = gk.centrality.Betweenness(g).run()
    scores = bc.scores()
"""

from . import centrality, community, generators, io, kernels, layout
from .components import ConnectedComponents, connected_components, largest_component
from .coreness import CoreDecomposition, core_decomposition, local_clustering
from .csr import CSRDelta, CSRGraph, CSRSnapshotBuffer, pack_edge_keys
from .graph import Graph
from .incremental import IncrementalMeasures, canonical_components, full_measures
from .parallel import get_num_threads, set_num_threads
from .service import (
    ComputeService,
    ComputeSession,
    ServiceExecutor,
    configure_compute_service,
    get_compute_service,
    shutdown_compute_service,
)

__all__ = [
    "ComputeService",
    "ComputeSession",
    "ServiceExecutor",
    "configure_compute_service",
    "get_compute_service",
    "shutdown_compute_service",
    "Graph",
    "CSRGraph",
    "CSRDelta",
    "CSRSnapshotBuffer",
    "pack_edge_keys",
    "CoreDecomposition",
    "core_decomposition",
    "local_clustering",
    "centrality",
    "community",
    "kernels",
    "generators",
    "layout",
    "io",
    "ConnectedComponents",
    "connected_components",
    "largest_component",
    "IncrementalMeasures",
    "canonical_components",
    "full_measures",
    "set_num_threads",
    "get_num_threads",
]
