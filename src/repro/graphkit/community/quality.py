"""Partition quality measures: modularity and coverage.

All measures consume the CSR snapshot once and reduce with vectorized
``np.bincount`` segment sums — no per-edge Python loops.
"""

from __future__ import annotations

import numpy as np

from ..csr import CSRGraph
from ..graph import Graph
from .partition import Partition

__all__ = ["modularity", "coverage", "Modularity"]


def _block_aggregates(
    csr: CSRGraph, labels: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """Per-block (intra-edge weight, total volume) and total edge weight m.

    ``intra`` counts each undirected intra-block edge once; ``volume`` is the
    sum of weighted degrees of the block's nodes (2m summed over blocks).
    """
    n = csr.n
    if len(labels) != n:
        raise ValueError(f"partition covers {len(labels)} nodes, graph has {n}")
    nblocks = int(labels.max()) + 1 if n else 0
    # Arc endpoints: row index per stored arc.
    rows = np.repeat(np.arange(n), np.diff(csr.indptr))
    same = labels[rows] == labels[csr.indices]
    intra = np.bincount(
        labels[rows][same], weights=csr.weights[same], minlength=nblocks
    )
    volume = np.bincount(labels, weights=csr.weighted_degrees(), minlength=nblocks)
    two_m = float(csr.weights.sum())  # undirected: each edge stored twice
    return intra / 2.0, volume, two_m / 2.0


def modularity(
    g: Graph | CSRGraph, partition: Partition, *, gamma: float = 1.0
) -> float:
    """Newman modularity ``Q = Σ_c [ e_c/m − γ (v_c / 2m)² ]``.

    ``e_c`` is intra-block edge weight, ``v_c`` block volume, ``γ`` the
    resolution parameter (1.0 = classic modularity).
    """
    csr = g.csr()
    if csr.directed:
        raise ValueError("modularity is defined here for undirected graphs")
    labels = partition.compact().labels()
    if csr.m == 0:
        return 0.0
    intra, volume, m = _block_aggregates(csr, labels)
    return float(np.sum(intra / m) - gamma * np.sum((volume / (2.0 * m)) ** 2))


def coverage(g: Graph | CSRGraph, partition: Partition) -> float:
    """Fraction of edge weight that falls inside blocks."""
    csr = g.csr()
    labels = partition.compact().labels()
    if csr.m == 0:
        return 0.0
    intra, _, m = _block_aggregates(csr, labels)
    return float(np.sum(intra) / m)


class Modularity:
    """NetworKit-style quality runner: ``Modularity().get_quality(zeta, G)``."""

    def __init__(self, *, gamma: float = 1.0):
        self._gamma = gamma

    def get_quality(self, partition: Partition, g: Graph | CSRGraph) -> float:
        """Modularity of ``partition`` on ``g``."""
        return modularity(g, partition, gamma=self._gamma)
