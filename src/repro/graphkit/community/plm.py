"""PLM — parallel Louvain method (Staudt & Meyerhenke).

Multi-level modularity maximization: greedy local move, coarsening,
recursion, optional refinement sweep ("prolong and refine") back on the
finer levels — the algorithm behind ``networkit.community.PLM``.
"""

from __future__ import annotations

import numpy as np

from ..csr import CSRGraph
from ..graph import Graph
from ._engine import LevelState, coarsen, local_move_modularity
from .partition import Partition

__all__ = ["PLM"]


class PLM:
    """Parallel Louvain method for modularity-based community detection.

    Parameters
    ----------
    g:
        Undirected graph.
    refine:
        Run an extra local-move sweep after prolonging each coarse solution
        back to the finer level (NetworKit's ``refine`` flag).
    gamma:
        Modularity resolution parameter.
    turbo:
        Accepted for NetworKit API compatibility (vectorized move phase is
        always on here).
    seed:
        Seed for the per-sweep node permutations; fixed seed gives a fully
        deterministic partition.

    Examples
    --------
    >>> from repro.graphkit import Graph
    >>> from repro.graphkit.community import PLM
    >>> g = Graph.from_edges(6, [(0,1),(0,2),(1,2),(3,4),(3,5),(4,5),(2,3)])
    >>> part = PLM(g, seed=1).run().get_partition()
    >>> part.number_of_subsets()
    2
    """

    def __init__(
        self,
        g: Graph | CSRGraph,
        *,
        refine: bool = False,
        gamma: float = 1.0,
        turbo: bool = True,
        seed: int | None = 42,
    ):
        self._g = g
        self._refine = bool(refine)
        self._gamma = float(gamma)
        self._turbo = bool(turbo)
        self._seed = seed
        self._partition: Partition | None = None
        self._levels = 0

    def run(self) -> "PLM":
        """Execute the multi-level optimization."""
        csr = self._g.csr()
        if csr.directed:
            raise ValueError("PLM requires an undirected graph")
        rng = np.random.default_rng(self._seed)
        adj = csr.to_scipy().copy()
        n0 = csr.n

        labels_per_level: list[np.ndarray] = []
        level_adjs: list = []
        while True:
            state = LevelState.from_adjacency(adj)
            labels, moved = local_move_modularity(
                state, gamma=self._gamma, rng=rng
            )
            uniq = len(np.unique(labels)) if len(labels) else 0
            labels_per_level.append(labels)
            level_adjs.append(adj)
            if not moved or uniq == adj.shape[0] or uniq <= 1:
                break
            adj, dense = coarsen(adj, labels)
            labels_per_level[-1] = dense  # store dense relabelling
        self._levels = len(labels_per_level)

        # Prolong coarsest labels down to the original nodes, optionally
        # refining with one more move sweep at each finer level.
        labels = labels_per_level[-1]
        for level in range(len(labels_per_level) - 2, -1, -1):
            labels = labels[labels_per_level[level]]
            if self._refine:
                state = LevelState.from_adjacency(level_adjs[level])
                labels, _ = local_move_modularity(
                    state, gamma=self._gamma, rng=rng, labels=labels
                )
        assert len(labels) == n0, "prolongation must end on the original nodes"
        self._partition = Partition(labels).compact()
        return self

    def get_partition(self) -> Partition:
        """The detected communities; requires :meth:`run`."""
        if self._partition is None:
            raise RuntimeError("call run() first")
        return self._partition

    def number_of_levels(self) -> int:
        """Hierarchy depth used by the last :meth:`run`."""
        if self._partition is None:
            raise RuntimeError("call run() first")
        return self._levels
