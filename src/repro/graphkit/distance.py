"""Shortest-path algorithms (NetworKit ``distance`` module analog).

Provides vectorized BFS (unweighted), Dijkstra (weighted), all-pairs
shortest paths, eccentricity and diameter (exact and two-sweep estimate).

The BFS kernel is frontier-based: each level expands all frontier nodes at
once via CSR gathers, so per-level work is a handful of NumPy calls rather
than a Python loop over edges — the "vectorize the inner loop" idiom.
Multi-source queries batch entirely: unweighted APSP runs the SpMM BFS
kernel, weighted APSP and distance-to-set queries run the multi-source
delta-stepping kernel (no per-source heap loop; see ``docs/KERNELS.md``).
:func:`dijkstra` remains the scalar single-source API and doubles as the
reference twin the batched weighted kernels are differentially tested
against.
"""

from __future__ import annotations

import heapq

import numpy as np

from .csr import CSRGraph
from .graph import Graph
from .kernels import (
    batched_bfs_distances,
    batched_delta_stepping_distances,
    multi_source_delta_stepping,
)
from .parallel import parallel_for_chunks

__all__ = [
    "bfs_distances",
    "bfs_tree",
    "dijkstra",
    "all_pairs_distances",
    "eccentricity",
    "multi_source_bfs",
    "multi_source_dijkstra",
    "effective_diameter",
    "Diameter",
    "BFS",
    "APSP",
]

UNREACHED = -1


def bfs_distances(g: Graph | CSRGraph, source: int) -> np.ndarray:
    """Hop distances from ``source``; unreachable nodes get ``-1``."""
    csr = g.csr()
    n = csr.n
    if not 0 <= source < n:
        raise IndexError(f"source {source} out of range [0, {n})")
    dist = np.full(n, UNREACHED, dtype=np.int64)
    dist[source] = 0
    frontier = np.asarray([source], dtype=np.int64)
    level = 0
    while len(frontier):
        level += 1
        nbrs = csr.expand_frontier(frontier)
        if len(nbrs) == 0:
            break
        fresh = np.unique(nbrs[dist[nbrs] == UNREACHED])
        if len(fresh) == 0:
            break
        dist[fresh] = level
        frontier = fresh.astype(np.int64)
    return dist


def bfs_tree(g: Graph | CSRGraph, source: int) -> tuple[np.ndarray, np.ndarray]:
    """BFS distances and one predecessor per node (-1 at roots/unreached)."""
    csr = g.csr()
    n = csr.n
    dist = np.full(n, UNREACHED, dtype=np.int64)
    parent = np.full(n, -1, dtype=np.int64)
    dist[source] = 0
    frontier = [source]
    while frontier:
        nxt = []
        for u in frontier:
            for v in csr.neighbors(u):
                if dist[v] == UNREACHED:
                    dist[v] = dist[u] + 1
                    parent[v] = u
                    nxt.append(int(v))
        frontier = nxt
    return dist, parent


def dijkstra(g: Graph | CSRGraph, source: int) -> np.ndarray:
    """Weighted shortest-path distances from ``source`` (inf if unreached).

    Textbook binary-heap Dijkstra — the scalar reference twin of the
    batched delta-stepping kernel; multi-source callers (weighted APSP,
    weighted closeness) use the kernel instead of looping this.
    """
    csr = g.csr()
    n = csr.n
    if not 0 <= source < n:
        raise IndexError(f"source {source} out of range [0, {n})")
    if np.any(csr.weights < 0):
        raise ValueError("Dijkstra requires non-negative edge weights")
    dist = np.full(n, np.inf)
    dist[source] = 0.0
    heap = [(0.0, source)]
    done = np.zeros(n, dtype=bool)
    while heap:
        d, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        nbrs = csr.neighbors(u)
        wts = csr.neighbor_weights(u)
        for v, w in zip(nbrs, wts):
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, int(v)))
    return dist


def all_pairs_distances(
    g: Graph | CSRGraph,
    *,
    weighted: bool = False,
    packed: bool | None = None,
) -> np.ndarray:
    """All-pairs shortest paths as an ``(n, n)`` matrix.

    Unweighted distances run the batched level-synchronous BFS kernel over
    a static block decomposition of the sources (one sparse-dense product
    per level per block; above the bit-packing threshold the frontier is
    carried as uint64 bitsets — ``packed`` forces the choice); weighted
    distances run the batched multi-source delta-stepping kernel over the
    same decomposition (one arc-parallel relaxation per bucket phase per
    block — no per-source heap loop). Unreachable pairs are ``inf`` in
    the returned float matrix.
    """
    csr = g.csr()
    n = csr.n
    out = np.full((n, n), np.inf)

    if weighted:
        def run_chunk(start: int, stop: int) -> None:
            if stop <= start:
                return
            out[start:stop] = batched_delta_stepping_distances(
                csr, np.arange(start, stop)
            )
    else:
        def run_chunk(start: int, stop: int) -> None:
            if stop <= start:
                return
            d = batched_bfs_distances(
                csr, np.arange(start, stop), packed=packed
            )
            block = out[start:stop]
            reached = d >= 0
            block[reached] = d[reached]

    parallel_for_chunks(run_chunk, n)
    return out


def eccentricity(g: Graph | CSRGraph, source: int) -> int:
    """Maximum finite hop distance from ``source``."""
    d = bfs_distances(g, source)
    reached = d[d >= 0]
    return int(reached.max()) if len(reached) else 0


def multi_source_bfs(g: Graph | CSRGraph, sources) -> np.ndarray:
    """Hop distance to the *nearest* of several sources (-1 unreachable).

    One level-synchronous sweep from all seeds at once — the standard
    trick for distance-to-set queries (e.g. distance of every residue to
    an active site in a RIN).
    """
    csr = g.csr()
    n = csr.n
    sources = np.asarray(list(sources), dtype=np.int64)
    if len(sources) == 0:
        raise ValueError("need at least one source")
    for s in sources:
        if not 0 <= s < n:
            raise IndexError(f"source {s} out of range [0, {n})")
    dist = np.full(n, UNREACHED, dtype=np.int64)
    dist[sources] = 0
    frontier = np.unique(sources)
    level = 0
    while len(frontier):
        level += 1
        nbrs = csr.expand_frontier(frontier)
        if len(nbrs) == 0:
            break
        fresh = np.unique(nbrs[dist[nbrs] == UNREACHED])
        if len(fresh) == 0:
            break
        dist[fresh] = level
        frontier = fresh.astype(np.int64)
    return dist


def multi_source_dijkstra(g: Graph | CSRGraph, sources) -> np.ndarray:
    """Weighted distance to the *nearest* of several sources (inf if
    unreachable) — the weighted counterpart of :func:`multi_source_bfs`.

    One delta-stepping sweep seeded at every source simultaneously, not a
    per-source heap loop.
    """
    csr = g.csr()
    return multi_source_delta_stepping(csr, sources)


def effective_diameter(
    g: Graph | CSRGraph, *, percentile: float = 0.9
) -> float:
    """Smallest distance d such that ≥ ``percentile`` of connected pairs
    are within d hops (the classic 90%-effective diameter).

    Exact (all-pairs BFS); intended for the small/medium graphs RIN
    workflows produce. Returns 0 for graphs without connected pairs.
    """
    if not 0.0 < percentile <= 1.0:
        raise ValueError(f"percentile must be in (0, 1], got {percentile}")
    csr = g.csr()
    n = csr.n
    if n < 2:
        return 0.0
    d = batched_bfs_distances(csr, np.arange(n))
    flat = d[d > 0]
    if len(flat) == 0:
        return 0.0
    return float(np.quantile(flat, percentile, method="inverted_cdf"))


class BFS:
    """NetworKit-style runner: ``BFS(G, source).run().distances()``."""

    def __init__(self, g: Graph | CSRGraph, source: int):
        self._g = g
        self._source = source
        self._dist: np.ndarray | None = None

    def run(self) -> "BFS":
        """Execute the traversal."""
        self._dist = bfs_distances(self._g, self._source)
        return self

    def distances(self) -> np.ndarray:
        """Hop distances (-1 when unreachable); requires :meth:`run`."""
        if self._dist is None:
            raise RuntimeError("call run() first")
        return self._dist


class APSP:
    """NetworKit-style all-pairs shortest path runner."""

    def __init__(self, g: Graph | CSRGraph, *, weighted: bool = False):
        self._g = g
        self._weighted = weighted
        self._dist: np.ndarray | None = None

    def run(self) -> "APSP":
        """Execute the all-pairs computation."""
        self._dist = all_pairs_distances(self._g, weighted=self._weighted)
        return self

    def distances(self) -> np.ndarray:
        """The ``(n, n)`` distance matrix; requires :meth:`run`."""
        if self._dist is None:
            raise RuntimeError("call run() first")
        return self._dist


class Diameter:
    """Graph diameter — exact or two-sweep lower-bound estimate.

    ``algo='exact'`` runs BFS from every node; ``algo='estimate'`` runs the
    classic double-sweep heuristic (BFS from an arbitrary node, then BFS
    from the farthest node found) which is exact on trees and a lower bound
    in general.
    """

    def __init__(self, g: Graph | CSRGraph, *, algo: str = "exact"):
        if algo not in ("exact", "estimate"):
            raise ValueError(f"unknown algo {algo!r}; use 'exact' or 'estimate'")
        self._g = g
        self._algo = algo
        self._value: int | None = None

    def run(self) -> "Diameter":
        """Compute the diameter over the largest set of reachable pairs."""
        csr = self._g.csr()
        n = csr.n
        if n == 0:
            self._value = 0
            return self
        if self._algo == "exact":
            best = 0
            for s in range(n):
                best = max(best, eccentricity(csr, s))
            self._value = best
        else:
            d0 = bfs_distances(csr, 0)
            far = int(np.argmax(d0))
            d1 = bfs_distances(csr, far)
            self._value = int(d1.max()) if len(d1) else 0
        return self

    def get_diameter(self) -> int:
        """The computed diameter; requires :meth:`run`."""
        if self._value is None:
            raise RuntimeError("call run() first")
        return self._value
