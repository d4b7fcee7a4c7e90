"""Shared Louvain-style engine: local move + coarsening on scipy CSR.

:class:`~repro.graphkit.community.PLM` runs it: modularity local moves,
coarsening, and an optional refinement sweep on the way back down.

The engine works directly on a symmetric ``scipy.sparse.csr_matrix`` whose
diagonal stores (twice the) intra-node self-loop weight created by
coarsening — the public :class:`~repro.graphkit.graph.Graph` stays
loop-free, all looped intermediates live only inside this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

__all__ = [
    "LevelState",
    "local_move_modularity",
    "coarsen",
]


@dataclass
class LevelState:
    """Adjacency + cached per-node quantities for one hierarchy level."""

    adj: sparse.csr_matrix  # symmetric, possibly with diagonal self-loops
    strength: np.ndarray  # weighted degree incl. self-loop weight (k_u)
    two_m: float  # total arc weight == sum of strengths

    @classmethod
    def from_adjacency(cls, adj: sparse.csr_matrix) -> "LevelState":
        adj = adj.tocsr()
        adj.sum_duplicates()
        strength = np.asarray(adj.sum(axis=1)).ravel()
        return cls(adj, strength, float(strength.sum()))


def _neighbor_community_weights(
    state: LevelState, u: int, labels: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Distinct neighbour communities of ``u`` and arc weight into each.

    ``u``'s own self-loop is excluded from the community weights.
    """
    lo, hi = state.adj.indptr[u], state.adj.indptr[u + 1]
    nbrs = state.adj.indices[lo:hi]
    wts = state.adj.data[lo:hi]
    mask = nbrs != u
    comms = labels[nbrs[mask]]
    if len(comms) == 0:
        return np.empty(0, dtype=np.int64), np.empty(0)
    # Segment-sum by community id via sort+reduceat (communities are sparse
    # in id space, so bincount over the full range would waste memory).
    order = np.argsort(comms, kind="stable")
    comms_sorted = comms[order]
    wts_sorted = wts[mask][order]
    boundaries = np.flatnonzero(np.diff(comms_sorted)) + 1
    starts = np.concatenate([[0], boundaries])
    uniq = comms_sorted[starts]
    sums = np.add.reduceat(wts_sorted, starts)
    return uniq.astype(np.int64), sums


def local_move_modularity(
    state: LevelState,
    *,
    gamma: float = 1.0,
    rng: np.random.Generator,
    max_sweeps: int = 32,
    labels: np.ndarray | None = None,
) -> tuple[np.ndarray, bool]:
    """Greedy modularity local move; returns (labels, any_node_moved).

    Gain of moving ``u`` from community ``a`` to ``b`` (volumes exclude u):

        ΔQ = (w_ub − w_ua)/m − γ k_u (vol_b − vol_a) / (2 m²)

    Nodes are visited in a seeded random order per sweep, mirroring the
    shared-memory PLM where per-thread visit order is nondeterministic but
    seed-reproducible here.
    """
    n = state.adj.shape[0]
    labels = np.arange(n, dtype=np.int64) if labels is None else labels.copy()
    if state.two_m <= 0 or n == 0:
        return labels, False
    m = state.two_m / 2.0
    volumes = np.bincount(labels, weights=state.strength, minlength=n).astype(
        np.float64
    )
    moved_any = False
    for _ in range(max_sweeps):
        moved = 0
        for u in rng.permutation(n):
            a = labels[u]
            k_u = state.strength[u]
            comms, weights = _neighbor_community_weights(state, u, labels)
            # weight from u into its own community (u excluded)
            idx_a = np.flatnonzero(comms == a)
            w_ua = float(weights[idx_a[0]]) if len(idx_a) else 0.0
            vol_a = volumes[a] - k_u
            best_gain, best_comm = 0.0, a
            for c, w_uc in zip(comms, weights):
                if c == a:
                    continue
                gain = (w_uc - w_ua) / m - gamma * k_u * (volumes[c] - vol_a) / (
                    2.0 * m * m
                )
                if gain > best_gain + 1e-12:
                    best_gain, best_comm = gain, int(c)
            if best_comm != a:
                volumes[a] -= k_u
                volumes[best_comm] += k_u
                labels[u] = best_comm
                moved += 1
        if moved:
            moved_any = True
        else:
            break
    return labels, moved_any


def coarsen(
    adj: sparse.csr_matrix, labels: np.ndarray
) -> tuple[sparse.csr_matrix, np.ndarray]:
    """Contract communities into super-nodes.

    Returns the coarse adjacency (with self-loops carrying intra-community
    weight) and the dense relabelling applied to ``labels``.
    """
    uniq, dense = np.unique(labels, return_inverse=True)
    k = len(uniq)
    n = adj.shape[0]
    assign = sparse.csr_matrix(
        (np.ones(n), (np.arange(n), dense)), shape=(n, k)
    )
    coarse = (assign.T @ adj @ assign).tocsr()
    coarse.sum_duplicates()
    return coarse, dense.astype(np.int64)
