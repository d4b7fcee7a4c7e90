"""LouvainMapEquation — Louvain local moves driven by the map equation.

The parallel Louvain/map-equation combination added to NetworKit (Bohlin et
al. framework; see paper §II-A): identical multi-level skeleton to PLM but
the move objective minimizes the description length ``L(M)`` of a random
walk (Rosvall-Bergstrom map equation) instead of maximizing modularity.
"""

from __future__ import annotations

import numpy as np

from ..csr import CSRGraph
from ..graph import Graph
from ._engine import LevelState, coarsen, local_move_map_equation
from .partition import Partition

__all__ = ["LouvainMapEquation"]


class LouvainMapEquation:
    """Map-equation community detection with Louvain-style levels.

    Parameters
    ----------
    g:
        Undirected graph.
    hierarchical:
        Accepted for NetworKit API compatibility (two-level codebook only).
    max_iterations:
        Max local-move sweeps per level.
    seed:
        RNG seed for visit orders (deterministic output).
    """

    def __init__(
        self,
        g: Graph | CSRGraph,
        *,
        hierarchical: bool = False,
        max_iterations: int = 32,
        seed: int | None = 42,
    ):
        self._g = g
        self._hierarchical = hierarchical
        self._max_iterations = max_iterations
        self._seed = seed
        self._partition: Partition | None = None

    def run(self) -> "LouvainMapEquation":
        """Execute the multi-level optimization."""
        csr = self._g.csr()
        if csr.directed:
            raise ValueError("LouvainMapEquation requires an undirected graph")
        rng = np.random.default_rng(self._seed)
        adj = csr.to_scipy().copy()
        n0 = csr.n

        mappings: list[np.ndarray] = []
        while True:
            state = LevelState.from_adjacency(adj)
            labels, moved = local_move_map_equation(
                state, rng=rng, max_sweeps=self._max_iterations
            )
            uniq = len(np.unique(labels)) if len(labels) else 0
            if not moved or uniq == adj.shape[0] or uniq <= 1:
                mappings.append(labels)
                break
            adj, dense = coarsen(adj, labels)
            mappings.append(dense)

        labels = mappings[-1]
        for level in range(len(mappings) - 2, -1, -1):
            labels = labels[mappings[level]]
        assert len(labels) == n0
        self._partition = Partition(labels).compact()
        return self

    def get_partition(self) -> Partition:
        """The detected communities; requires :meth:`run`."""
        if self._partition is None:
            raise RuntimeError("call run() first")
        return self._partition
