"""Partition quality measures: modularity, coverage, map equation.

All measures consume the CSR snapshot once and reduce with vectorized
``np.bincount`` segment sums — no per-edge Python loops.
"""

from __future__ import annotations

import numpy as np

from ..csr import CSRGraph
from ..graph import Graph
from .partition import Partition

__all__ = ["modularity", "coverage", "map_equation", "Modularity", "Coverage"]


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


def _plogp(x: np.ndarray | float) -> np.ndarray | float:
    """``x * log2(x)`` with the 0 log 0 = 0 convention."""
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(x)
    mask = x > 0
    out[mask] = x[mask] * np.log2(x[mask])
    return out if out.ndim else float(out)


def map_equation(g: Graph | CSRGraph, partition: Partition) -> float:
    """The map equation ``L(M)`` (bits) for an undirected graph.

    Uses the expanded form (Rosvall & Bergstrom)::

        L(M) = plogp(q) - 2 Σ_i plogp(q_i) + Σ_i plogp(p_i) - Σ_α plogp(p_α)

    with node visit rates ``p_α = k_α / 2m``, module exit rates
    ``q_i = cut_i / 2m`` and ``p_i = q_i + Σ_{α∈i} p_α``.  Lower is better.
    """
    csr = g.csr()
    if csr.directed:
        raise ValueError("map equation implemented for undirected graphs")
    labels = partition.compact().labels()
    two_m = float(csr.weights.sum())
    if two_m == 0.0:
        return 0.0
    intra, volume, _ = _block_aggregates(csr, labels)
    p_nodes = csr.weighted_degrees() / two_m
    p_modules = volume / two_m
    cut = volume - 2.0 * intra  # weight of arcs leaving each module
    q_modules = cut / two_m
    q_total = float(q_modules.sum())
    term_index = _plogp(q_total) - 2.0 * float(np.sum(_plogp(q_modules)))
    term_modules = float(np.sum(_plogp(q_modules + p_modules)))
    term_nodes = float(np.sum(_plogp(p_nodes)))
    return term_index + term_modules - term_nodes


class Modularity:
    """NetworKit-style quality runner: ``Modularity().get_quality(zeta, G)``."""

    def __init__(self, *, gamma: float = 1.0):
        self._gamma = gamma

    def get_quality(self, partition: Partition, g: Graph | CSRGraph) -> float:
        """Modularity of ``partition`` on ``g``."""
        return modularity(g, partition, gamma=self._gamma)


class Coverage:
    """NetworKit-style coverage runner."""

    def get_quality(self, partition: Partition, g: Graph | CSRGraph) -> float:
        """Coverage of ``partition`` on ``g``."""
        return coverage(g, partition)
