"""Betweenness centrality — batched Brandes.

The default engine batches *sources*: sigma/delta accumulation runs as
dense ``(sources, nodes)`` matrix ops per BFS level
(:func:`~repro.graphkit.kernels.batched_brandes_dependencies`), processing
sources in memory-bounded blocks distributed over worker threads — one
SpMM per level for a whole block rather than one sweep per source.

``impl="reference"`` is the textbook scalar Brandes, kept for
differential testing. ``docs/KERNELS.md`` documents the block math and
the selection rules.
"""

from __future__ import annotations

import numpy as np

from ..csr import CSRGraph
from ..kernels import batched_brandes_dependencies
from ..parallel import parallel_for_chunks
from . import reference
from .base import Centrality

__all__ = ["Betweenness"]


def _sum_in_chunk_order(slots: dict[int, np.ndarray], n: int) -> np.ndarray:
    """Sum per-chunk partials by chunk start, never by completion order.

    Threads finish in any order; a fixed summation order keeps the float
    result bit-identical from run to run.
    """
    total = np.zeros(n, dtype=np.float64)
    for start in sorted(slots):
        total += slots[start]
    return total


class Betweenness(Centrality):
    """Exact betweenness centrality (Brandes 2001) on undirected,
    unweighted graphs; each unordered pair is counted once.

    Parameters
    ----------
    g:
        The graph (undirected; a directed CSR is rejected).
    normalized:
        Scale scores by ``2 / ((n-1)(n-2))``.
    impl:
        ``"vectorized"`` (batched Brandes, default; its source blocks run
        on :func:`~repro.graphkit.parallel.set_num_threads` threads) or
        ``"reference"`` (textbook scalar Brandes).
    packed:
        Frontier representation of the batched kernel: ``None``
        (default) auto-selects bit-packed frontiers above
        :data:`~repro.graphkit.kernels.BITPACK_THRESHOLD` nodes,
        ``True``/``False`` force the choice.
    """

    name = "betweenness"

    def __init__(
        self,
        g,
        *,
        normalized: bool = False,
        impl: str = "vectorized",
        packed: bool | None = None,
    ):
        super().__init__(g, normalized=normalized, impl=impl)
        self._packed = packed

    @staticmethod
    def _check_undirected(csr: CSRGraph) -> None:
        if csr.directed:
            raise NotImplementedError(
                "Betweenness is implemented for undirected graphs only; "
                "this CSR is directed"
            )

    def _compute_reference(self, csr: CSRGraph) -> np.ndarray:
        self._check_undirected(csr)
        return reference.betweenness_scores(csr)

    def _compute(self, csr: CSRGraph) -> np.ndarray:
        self._check_undirected(csr)
        n = csr.n
        slots: dict[int, np.ndarray] = {}

        def run_chunk(start: int, stop: int) -> None:
            # Per-chunk private accumulator (OpenMP reduction idiom) —
            # avoids write races between chunks; the kernel blocks the
            # chunk's sources internally to bound dense memory.
            if stop <= start:
                return
            slots[start] = batched_brandes_dependencies(
                csr, np.arange(start, stop), packed=self._packed
            )

        parallel_for_chunks(run_chunk, n)
        partials = _sum_in_chunk_order(slots, n)
        partials /= 2.0  # each unordered pair contributed twice
        return partials

    def _normalize(self, scores: np.ndarray, csr: CSRGraph) -> np.ndarray:
        n = csr.n
        if n < 3:
            return scores
        return scores * (2.0 / ((n - 1) * (n - 2)))
