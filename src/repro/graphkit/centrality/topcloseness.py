"""Top-k closeness with BFS cut-off pruning (Bergamini et al. style).

NetworKit's claim to fame (§II: "numerous unique algorithms") includes
exact top-k closeness without computing all n BFS trees. This simplified
variant keeps the key idea: process nodes in decreasing degree order and
abort a node's BFS as soon as an upper bound on its closeness falls below
the current k-th best — on RIN-like graphs most BFS trees stop early.
"""

from __future__ import annotations

import heapq

import numpy as np

from ..csr import CSRGraph
from ..graph import Graph

__all__ = ["TopCloseness"]


class TopCloseness:
    """Exact top-k closeness (generalized/harmonic-free variant).

    Parameters
    ----------
    g:
        Undirected graph.
    k:
        How many top nodes to return.

    Notes
    -----
    Uses the level-based upper bound *within the node's connected
    component* (size ``n_c``): after expanding BFS to depth ``d`` with
    ``r`` nodes reached and distance sum ``S_d``, the remaining
    ``n_c − r`` component members each contribute at least ``d + 1``, so
    with the generalized-closeness correction

        closeness(u) ≤ (n_c − 1)² / ((n − 1) · (S_d + (n_c − r)(d + 1)))

    If this bound drops below the running k-th best, the BFS aborts.
    Component sizes are computed once up front, which keeps the bound
    sound on the fragmented RINs low cut-offs produce.
    """

    def __init__(self, g: Graph | CSRGraph, k: int = 10):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self._g = g
        self._k = k
        self._top: list[tuple[int, float]] | None = None
        self._pruned = 0

    def _closeness_with_cutoff(
        self, csr: CSRGraph, source: int, kth_best: float, n: int, n_c: int
    ) -> float | None:
        """BFS from source; None if provably below ``kth_best``.

        ``n_c`` is the size of the source's connected component.
        """
        dist_sum = 0.0
        reached = 1
        visited = np.zeros(n, dtype=bool)
        visited[source] = True
        frontier = [source]
        depth = 0
        while frontier:
            depth += 1
            nxt = []
            for u in frontier:
                for v in csr.neighbors(u):
                    if not visited[v]:
                        visited[v] = True
                        nxt.append(int(v))
            dist_sum += depth * len(nxt)
            reached += len(nxt)
            frontier = nxt
            if kth_best > 0.0 and reached < n_c:
                optimistic = dist_sum + (n_c - reached) * (depth + 1)
                bound = (
                    (n_c - 1) ** 2 / ((n - 1) * optimistic)
                    if optimistic > 0 and n > 1
                    else 0.0
                )
                if bound < kth_best:
                    self._pruned += 1
                    return None
        if dist_sum == 0.0:
            return 0.0
        r = reached
        return ((r - 1) / dist_sum) * ((r - 1) / (n - 1)) if n > 1 else 0.0

    def run(self) -> "TopCloseness":
        """Compute the top-k list."""
        from ..components import connected_components

        csr = self._g.csr()
        n = csr.n
        self._pruned = 0
        count, labels = connected_components(csr)
        sizes = np.bincount(labels, minlength=max(count, 1)) if n else np.zeros(1)
        # Min-heap of (score, -node): ties keep the smaller node id, the
        # same convention as Centrality.ranking().
        heap: list[tuple[float, int]] = []
        # High-degree nodes first: likely high closeness, tightens the
        # pruning threshold early.
        order = np.argsort(-csr.degrees(), kind="stable")
        for u in order:
            kth_best = heap[0][0] if len(heap) >= self._k else 0.0
            n_c = int(sizes[labels[int(u)]])
            score = self._closeness_with_cutoff(
                csr, int(u), kth_best, n, n_c
            )
            if score is None:
                continue
            entry = (score, -int(u))
            if len(heap) < self._k:
                heapq.heappush(heap, entry)
            elif entry > heap[0]:
                heapq.heapreplace(heap, entry)
        self._top = sorted(
            ((-neg_node, score) for score, neg_node in heap),
            key=lambda t: (-t[1], t[0]),
        )
        return self

    def topkNodesList(self) -> list[int]:  # noqa: N802 - NetworKit naming
        """The top-k node ids, best first."""
        if self._top is None:
            raise RuntimeError("call run() first")
        return [node for node, _ in self._top]

    def topkScoresList(self) -> list[float]:  # noqa: N802 - NetworKit naming
        """The top-k scores, best first."""
        if self._top is None:
            raise RuntimeError("call run() first")
        return [score for _, score in self._top]

    @property
    def pruned_bfs_count(self) -> int:
        """How many BFS trees the bound aborted (the speed-up source)."""
        return self._pruned
