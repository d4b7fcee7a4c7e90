"""ParallelLeiden — Leiden algorithm (Traag, Waltman & van Eck 2019).

Louvain with an extra *refinement* phase per level: after the greedy local
move, each community is internally re-partitioned starting from singletons
with moves constrained to stay inside the community. Aggregation then
contracts the **refined** partition while the move-phase communities seed
the next level — this is what guarantees well-connected communities.
"""

from __future__ import annotations

import numpy as np

from ..csr import CSRGraph
from ..graph import Graph
from ._engine import LevelState, coarsen, local_move_modularity
from .partition import Partition

__all__ = ["ParallelLeiden"]


def _refine(
    state: LevelState,
    move_labels: np.ndarray,
    *,
    gamma: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Constrained singleton merge phase within each move-phase community.

    Every node starts in its own refined block; a node may merge only into
    refined blocks of nodes sharing its move-phase community, and only when
    the modularity gain is positive. Returns refined labels.
    """
    n = state.adj.shape[0]
    refined = np.arange(n, dtype=np.int64)
    volumes = state.strength.astype(np.float64).copy()  # singleton volumes
    m = state.two_m / 2.0
    if m <= 0:
        return refined
    for u in rng.permutation(n):
        # Leiden rule: only nodes still in a singleton refined block may
        # merge; a node whose block already absorbed others stays put.
        if volumes[u] > state.strength[u] + 1e-12:
            continue
        lo, hi = state.adj.indptr[u], state.adj.indptr[u + 1]
        nbrs = state.adj.indices[lo:hi]
        wts = state.adj.data[lo:hi]
        mask = (nbrs != u) & (move_labels[nbrs] == move_labels[u])
        if not mask.any():
            continue
        cand = refined[nbrs[mask]]
        order = np.argsort(cand, kind="stable")
        cand_sorted = cand[order]
        starts = np.concatenate([[0], np.flatnonzero(np.diff(cand_sorted)) + 1])
        blocks = cand_sorted[starts]
        weights = np.add.reduceat(wts[mask][order], starts)
        a = refined[u]
        k_u = state.strength[u]
        idx_a = np.flatnonzero(blocks == a)
        w_ua = float(weights[idx_a[0]]) if len(idx_a) else 0.0
        vol_a = volumes[a] - k_u
        best_gain, best_block = 0.0, a
        for c, w_uc in zip(blocks, weights):
            if c == a:
                continue
            gain = (w_uc - w_ua) / m - gamma * k_u * (volumes[c] - vol_a) / (
                2.0 * m * m
            )
            if gain > best_gain + 1e-12:
                best_gain, best_block = gain, int(c)
        if best_block != a:
            volumes[a] -= k_u
            volumes[best_block] += k_u
            refined[u] = best_block
    return refined


class ParallelLeiden:
    """Leiden community detection (modularity objective).

    Parameters
    ----------
    g:
        Undirected graph.
    gamma:
        Resolution parameter.
    iterations:
        Number of full Leiden passes over the hierarchy (the original paper
        iterates until stable; 3 passes are plenty for RIN-scale graphs).
    seed:
        RNG seed for visit orders (deterministic output).
    """

    def __init__(
        self,
        g: Graph | CSRGraph,
        *,
        gamma: float = 1.0,
        iterations: int = 3,
        seed: int | None = 42,
    ):
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        self._g = g
        self._gamma = float(gamma)
        self._iterations = iterations
        self._seed = seed
        self._partition: Partition | None = None

    def run(self) -> "ParallelLeiden":
        """Execute the Leiden passes."""
        csr = self._g.csr()
        if csr.directed:
            raise ValueError("ParallelLeiden requires an undirected graph")
        rng = np.random.default_rng(self._seed)
        n0 = csr.n
        best = np.arange(n0, dtype=np.int64)
        for _ in range(self._iterations):
            best = self._one_pass(csr.to_scipy().copy(), best, rng)
        self._partition = Partition(best).compact()
        return self

    def _one_pass(
        self, adj, init_labels: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        n0 = adj.shape[0]
        # Mapping from original nodes to current-level nodes.
        to_level = np.arange(n0, dtype=np.int64)
        # Current-level seed labels (from the previous pass).
        seed_labels = init_labels.copy()
        final = init_labels.copy()
        while True:
            state = LevelState.from_adjacency(adj)
            move_labels, moved = local_move_modularity(
                state, gamma=self._gamma, rng=rng, labels=seed_labels
            )
            final = move_labels[to_level]
            uniq = len(np.unique(move_labels)) if len(move_labels) else 0
            if not moved or uniq <= 1 or uniq == adj.shape[0]:
                break
            refined = _refine(state, move_labels, gamma=self._gamma, rng=rng)
            adj, dense_refined = coarsen(adj, refined)
            # Seed the coarse level with the move-phase communities: each
            # refined block lies inside exactly one move community.
            k = adj.shape[0]
            coarse_seed = np.zeros(k, dtype=np.int64)
            coarse_seed[dense_refined] = move_labels
            seed_labels = coarse_seed
            to_level = dense_refined[to_level]
        return final

    def get_partition(self) -> Partition:
        """The detected communities; requires :meth:`run`."""
        if self._partition is None:
            raise RuntimeError("call run() first")
        return self._partition
