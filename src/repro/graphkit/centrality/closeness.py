"""Closeness and harmonic centrality (exact, weighted and sampled).

Closeness of ``u`` is ``(r_u - 1) / Σ_v d(u, v)`` restricted to the
``r_u`` nodes reachable from ``u`` (the Wasserman-Faust / NetworKit
``ClosenessVariant.Generalized`` convention, well-defined on disconnected
RINs at small cut-offs).  Harmonic centrality sums ``1 / d(u, v)`` and
needs no reachability correction.

Both measures batch their sources: hop distances come from the SpMM BFS
kernel, weighted distances (``weighted=True``) from the multi-source
delta-stepping kernel — no per-source queue or heap loop on either path
(see ``docs/KERNELS.md``).
"""

from __future__ import annotations

import numpy as np

from ..csr import CSRGraph
from ..kernels import (
    batched_bfs_distances,
    batched_delta_stepping_distances,
    source_blocks,
)
from ..parallel import parallel_for_chunks
from . import reference
from .base import Centrality

__all__ = ["Closeness", "HarmonicCloseness", "ApproxCloseness"]


def _block_distances(csr: CSRGraph, lo: int, hi: int, weighted: bool) -> np.ndarray:
    """Distances of the ``[lo, hi)`` source block as a float matrix with
    ``np.inf`` for unreachable pairs (uniform across both kernels)."""
    if weighted:
        return batched_delta_stepping_distances(csr, np.arange(lo, hi))
    d = batched_bfs_distances(csr, np.arange(lo, hi)).astype(np.float64)
    d[d < 0] = np.inf
    return d


class Closeness(Centrality):
    """Exact closeness centrality via batched multi-source sweeps.

    The vectorized engine sweeps blocks of sources with the level-
    synchronous :func:`~repro.graphkit.kernels.batched_bfs_distances`
    kernel — or, with ``weighted=True``, the bucketed
    :func:`~repro.graphkit.kernels.batched_delta_stepping_distances`
    kernel — one compiled pass per level/bucket for the whole block;
    blocks are distributed over worker threads. ``impl="reference"`` runs
    the textbook one-traversal-per-node loop instead (queue BFS, or heap
    Dijkstra when weighted).

    Parameters
    ----------
    g:
        The graph.
    normalized:
        Multiply by ``(r_u - 1) / (n - 1)`` so scores are comparable across
        components (generalized closeness); without it the per-component
        value is returned.
    weighted:
        Use edge weights as distances (non-negative weights required).
    """

    name = "closeness"

    def __init__(
        self,
        g,
        *,
        normalized: bool = True,
        weighted: bool = False,
        impl: str = "vectorized",
    ):
        super().__init__(g, normalized=normalized, impl=impl)
        self._weighted = bool(weighted)

    def _compute(self, csr: CSRGraph) -> np.ndarray:
        n = csr.n
        raw = np.zeros(n, dtype=np.float64)
        reach = np.zeros(n, dtype=np.int64)

        def run_chunk(start: int, stop: int) -> None:
            for lo, hi in source_blocks(start, stop, n):
                d = _block_distances(csr, lo, hi, self._weighted)
                reached = np.isfinite(d) & (d > 0)
                total = np.where(reached, d, 0.0).sum(axis=1)
                r = reached.sum(axis=1) + 1  # including the source itself
                reach[lo:hi] = r
                np.divide(r - 1, total, out=raw[lo:hi], where=total > 0)

        parallel_for_chunks(run_chunk, n)
        self._reach = reach
        return raw

    def _compute_reference(self, csr: CSRGraph) -> np.ndarray:
        if self._weighted:
            raw, reach = reference.weighted_closeness_scores(csr)
        else:
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

    Batched like :class:`Closeness`; ``weighted=True`` swaps the SpMM BFS
    kernel for the delta-stepping kernel.
    """

    name = "harmonic"

    def __init__(
        self,
        g,
        *,
        normalized: bool = True,
        weighted: bool = False,
        impl: str = "vectorized",
    ):
        super().__init__(g, normalized=normalized, impl=impl)
        self._weighted = bool(weighted)

    def _compute(self, csr: CSRGraph) -> np.ndarray:
        n = csr.n
        raw = np.zeros(n, dtype=np.float64)

        def run_chunk(start: int, stop: int) -> None:
            for lo, hi in source_blocks(start, stop, n):
                d = _block_distances(csr, lo, hi, self._weighted)
                positive = np.isfinite(d) & (d > 0)
                inv = np.where(positive, 1.0 / np.where(positive, d, 1.0), 0.0)
                raw[lo:hi] = inv.sum(axis=1)

        parallel_for_chunks(run_chunk, n)
        return raw

    def _compute_reference(self, csr: CSRGraph) -> np.ndarray:
        if self._weighted:
            return reference.weighted_harmonic_scores(csr)
        return reference.harmonic_scores(csr)

    def _normalize(self, scores: np.ndarray, csr: CSRGraph) -> np.ndarray:
        n = csr.n
        return scores / (n - 1) if n > 1 else scores


class ApproxCloseness(Centrality):
    """Sampled closeness (Eppstein-Wang style pivot estimator).

    Estimates ``Σ_v d(u, v)`` from BFS trees of ``nsamples`` random pivots:
    the average pivot distance scaled by ``n`` approximates each node's
    farness. Suitable for graphs where one BFS per node is too expensive.
    """

    name = "closeness-approx"

    def __init__(
        self,
        g,
        nsamples: int = 64,
        *,
        normalized: bool = True,
        seed: int | None = 42,
        impl: str = "vectorized",
    ):
        if nsamples < 1:
            raise ValueError("nsamples must be >= 1")
        super().__init__(g, normalized=normalized, impl=impl)
        self._nsamples = nsamples
        self._seed = seed

    def _compute(self, csr: CSRGraph) -> np.ndarray:
        n = csr.n
        if n == 0:
            return np.zeros(0)
        rng = np.random.default_rng(self._seed)
        k = min(self._nsamples, n)
        pivots = rng.choice(n, size=k, replace=False)
        # All pivot BFS trees in one batched sweep (undirected graphs, so
        # pivot->node distances equal node->pivot distances).
        d = batched_bfs_distances(csr, pivots)
        reached = d >= 0
        farness = np.where(reached, d, 0).sum(axis=0).astype(np.float64)
        hits = reached.sum(axis=0).astype(np.int64)
        est = np.zeros(n, dtype=np.float64)
        ok = (hits > 0) & (farness > 0)
        # Scale mean pivot distance to a full-farness estimate over n nodes.
        est[ok] = (hits[ok]) / farness[ok] * (hits[ok] / k)
        return est

    def _normalize(self, scores: np.ndarray, csr: CSRGraph) -> np.ndarray:
        peak = scores.max() if len(scores) else 0.0
        return scores / peak if peak > 0 else scores
