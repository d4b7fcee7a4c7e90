"""PLP — parallel label propagation (Raghavan et al. / NetworKit PLP).

Each node repeatedly adopts the label with the highest total edge weight
among its neighbours; convergence typically takes a handful of sweeps.
The sweep is semi-synchronous: nodes are visited in a seeded random order
and read the freshest labels, which avoids the bipartite oscillation of the
fully synchronous variant.
"""

from __future__ import annotations

import numpy as np

from ..csr import CSRGraph
from ..graph import Graph
from .partition import Partition

__all__ = ["PLP"]


class PLP:
    """Label propagation community detection.

    Parameters
    ----------
    g:
        Undirected graph.
    max_iterations:
        Upper bound on full sweeps.
    update_threshold:
        Stop when fewer than this many nodes changed label in a sweep
        (NetworKit uses ``n / 1e5`` by default; we default to 0 = exact
        convergence, which is appropriate for RIN-sized graphs).
    seed:
        Seed for visit-order permutations (deterministic output).
    """

    def __init__(
        self,
        g: Graph | CSRGraph,
        *,
        max_iterations: int = 100,
        update_threshold: int = 0,
        seed: int | None = 42,
    ):
        if max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        self._g = g
        self._max_iterations = max_iterations
        self._threshold = max(0, int(update_threshold))
        self._seed = seed
        self._partition: Partition | None = None
        self._iterations = 0

    def run(self) -> "PLP":
        """Execute label propagation until stable."""
        csr = self._g.csr()
        if csr.directed:
            raise ValueError("PLP requires an undirected graph")
        n = csr.n
        rng = np.random.default_rng(self._seed)
        labels = np.arange(n, dtype=np.int64)
        self._iterations = 0
        for _ in range(self._max_iterations):
            self._iterations += 1
            changed = 0
            for u in rng.permutation(n):
                lo, hi = csr.indptr[u], csr.indptr[u + 1]
                if lo == hi:
                    continue
                nbr_labels = labels[csr.indices[lo:hi]]
                wts = csr.weights[lo:hi]
                # Segment-sum neighbour label weights (sparse id space).
                order = np.argsort(nbr_labels, kind="stable")
                sorted_labels = nbr_labels[order]
                starts = np.concatenate(
                    [[0], np.flatnonzero(np.diff(sorted_labels)) + 1]
                )
                sums = np.add.reduceat(wts[order], starts)
                candidates = sorted_labels[starts]
                best_weight = sums.max()
                # Deterministic tie-break: smallest label among the heaviest
                # (ties are resolved randomly in NetworKit; a fixed rule
                # keeps results reproducible for tests).
                heaviest = candidates[sums >= best_weight - 1e-12]
                new_label = int(heaviest.min())
                current = int(labels[u])
                current_weight = (
                    float(sums[np.searchsorted(candidates, current)])
                    if current in candidates
                    else 0.0
                )
                if new_label != current and best_weight > current_weight + 1e-12:
                    labels[u] = new_label
                    changed += 1
            if changed <= self._threshold:
                break
        self._partition = Partition(labels).compact()
        return self

    def get_partition(self) -> Partition:
        """The detected communities; requires :meth:`run`."""
        if self._partition is None:
            raise RuntimeError("call run() first")
        return self._partition

    def number_of_iterations(self) -> int:
        """Sweeps executed by the last :meth:`run`."""
        if self._partition is None:
            raise RuntimeError("call run() first")
        return self._iterations
