"""Closeness and harmonic centrality (exact, hop distances).

Closeness of ``u`` is ``(r_u - 1) / Σ_v d(u, v)`` restricted to the
``r_u`` nodes reachable from ``u`` (the Wasserman-Faust / NetworKit
``ClosenessVariant.Generalized`` convention, well-defined on disconnected
RINs at small cut-offs).  Harmonic centrality sums ``1 / d(u, v)`` and
needs no reachability correction.

Both measures batch their sources: hop distances come from the SpMM BFS
kernel, with no per-source queue loop (see ``docs/KERNELS.md``).
"""

from __future__ import annotations

import numpy as np

from ..csr import CSRGraph
from ..kernels import batched_bfs_distances, source_blocks
from ..parallel import parallel_for_chunks
from . import reference
from .base import Centrality

__all__ = ["Closeness", "HarmonicCloseness"]


def _block_distances(csr: CSRGraph, lo: int, hi: int) -> np.ndarray:
    """Hop distances of the ``[lo, hi)`` source block as a float matrix
    with ``np.inf`` for unreachable pairs."""
    d = batched_bfs_distances(csr, np.arange(lo, hi)).astype(np.float64)
    d[d < 0] = np.inf
    return d


class Closeness(Centrality):
    """Exact closeness centrality via batched multi-source sweeps.

    The vectorized engine sweeps blocks of sources with the level-
    synchronous :func:`~repro.graphkit.kernels.batched_bfs_distances`
    kernel, one compiled pass per level for the whole block; blocks are
    distributed over worker threads. ``impl="reference"`` runs the
    textbook one-queue-BFS-per-node loop instead.

    Parameters
    ----------
    g:
        The graph.
    normalized:
        Multiply by ``(r_u - 1) / (n - 1)`` so scores are comparable across
        components (generalized closeness); without it the per-component
        value is returned.
    """

    name = "closeness"

    def __init__(
        self,
        g,
        *,
        normalized: bool = True,
        impl: str = "vectorized",
    ):
        super().__init__(g, normalized=normalized, impl=impl)

    def _compute(self, csr: CSRGraph) -> np.ndarray:
        n = csr.n
        raw = np.zeros(n, dtype=np.float64)
        reach = np.zeros(n, dtype=np.int64)

        def run_chunk(start: int, stop: int) -> None:
            for lo, hi in source_blocks(start, stop, n):
                d = _block_distances(csr, lo, hi)
                reached = np.isfinite(d) & (d > 0)
                total = np.where(reached, d, 0.0).sum(axis=1)
                r = reached.sum(axis=1) + 1  # including the source itself
                reach[lo:hi] = r
                np.divide(r - 1, total, out=raw[lo:hi], where=total > 0)

        parallel_for_chunks(run_chunk, n)
        self._reach = reach
        return raw

    def _compute_reference(self, csr: CSRGraph) -> np.ndarray:
        raw, reach = reference.closeness_scores(csr)
        self._reach = reach
        return raw

    def _normalize(self, scores: np.ndarray, csr: CSRGraph) -> np.ndarray:
        n = csr.n
        if n <= 1:
            return scores
        return scores * (self._reach - 1) / (n - 1)


class HarmonicCloseness(Centrality):
    """Harmonic centrality: ``Σ_{v≠u} 1 / d(u, v)`` (0 for unreachable).

    Batched like :class:`Closeness`.
    """

    name = "harmonic"

    def __init__(self, g, *, normalized: bool = True, impl: str = "vectorized"):
        super().__init__(g, normalized=normalized, impl=impl)

    def _compute(self, csr: CSRGraph) -> np.ndarray:
        n = csr.n
        raw = np.zeros(n, dtype=np.float64)

        def run_chunk(start: int, stop: int) -> None:
            for lo, hi in source_blocks(start, stop, n):
                d = _block_distances(csr, lo, hi)
                positive = np.isfinite(d) & (d > 0)
                inv = np.where(positive, 1.0 / np.where(positive, d, 1.0), 0.0)
                raw[lo:hi] = inv.sum(axis=1)

        parallel_for_chunks(run_chunk, n)
        return raw

    def _compute_reference(self, csr: CSRGraph) -> np.ndarray:
        return reference.harmonic_scores(csr)

    def _normalize(self, scores: np.ndarray, csr: CSRGraph) -> np.ndarray:
        n = csr.n
        return scores / (n - 1) if n > 1 else scores
