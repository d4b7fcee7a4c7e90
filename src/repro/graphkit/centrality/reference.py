"""Naive per-node reference implementations of the centralities.

These are the textbook scalar algorithms — Python loops over adjacency
views, no batched kernels — kept as the ``impl="reference"`` path of every
:class:`~repro.graphkit.centrality.base.Centrality`. They exist for
*differential testing*: the vectorized kernels must reproduce these
results bit-for-bit (up to float tolerance) on every fixture, so any
regression in the fast path is caught by comparing against code simple
enough to audit by eye.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ..csr import CSRGraph

__all__ = [
    "bfs_distances",
    "degree_scores",
    "closeness_scores",
    "harmonic_scores",
    "betweenness_scores",
    "pagerank_scores",
    "katz_series_scores",
]


def bfs_distances(csr: CSRGraph, s: int) -> np.ndarray:
    """Textbook queue BFS returning hop distances (-1 unreachable); the
    scalar twin of :func:`~repro.graphkit.kernels.batched_bfs_distances`."""
    dist = np.full(csr.n, -1, dtype=np.int64)
    dist[s] = 0
    queue: deque[int] = deque([s])
    while queue:
        u = queue.popleft()
        for v in csr.neighbors(u):
            v = int(v)
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def degree_scores(csr: CSRGraph, *, weighted: bool = False) -> np.ndarray:
    """Per-node (weighted) degree by explicit iteration."""
    out = np.zeros(csr.n, dtype=np.float64)
    for u in range(csr.n):
        if weighted:
            out[u] = float(csr.neighbor_weights(u).sum())
        else:
            out[u] = float(len(csr.neighbors(u)))
    return out


def closeness_scores(csr: CSRGraph) -> tuple[np.ndarray, np.ndarray]:
    """Generalized closeness: ``(raw, reach)`` with one queue BFS per node."""
    n = csr.n
    raw = np.zeros(n, dtype=np.float64)
    reach = np.zeros(n, dtype=np.int64)
    for s in range(n):
        d = bfs_distances(csr, s)
        reached = d > 0
        total = float(d[reached].sum())
        r = int(reached.sum()) + 1
        reach[s] = r
        raw[s] = (r - 1) / total if total > 0 else 0.0
    return raw, reach


def harmonic_scores(csr: CSRGraph) -> np.ndarray:
    """Harmonic centrality with one queue BFS per node."""
    n = csr.n
    raw = np.zeros(n, dtype=np.float64)
    for s in range(n):
        d = bfs_distances(csr, s)
        for x in d:
            if x > 0:
                raw[s] += 1.0 / float(x)
    return raw


def betweenness_scores(csr: CSRGraph) -> np.ndarray:
    """Textbook Brandes (2001) with explicit stacks and predecessor lists.

    Returns the undirected convention (each unordered pair counted once).
    """
    n = csr.n
    dependency = np.zeros(n, dtype=np.float64)
    for s in range(n):
        stack: list[int] = []
        preds: list[list[int]] = [[] for _ in range(n)]
        sigma = np.zeros(n, dtype=np.float64)
        dist = np.full(n, -1, dtype=np.int64)
        sigma[s] = 1.0
        dist[s] = 0
        queue: deque[int] = deque([s])
        while queue:
            u = queue.popleft()
            stack.append(u)
            for v in csr.neighbors(u):
                v = int(v)
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    queue.append(v)
                if dist[v] == dist[u] + 1:
                    sigma[v] += sigma[u]
                    preds[v].append(u)
        delta = np.zeros(n, dtype=np.float64)
        while stack:
            w = stack.pop()
            for v in preds[w]:
                delta[v] += (sigma[v] / sigma[w]) * (1.0 + delta[w])
            if w != s:
                dependency[w] += delta[w]
    return dependency / 2.0


def pagerank_scores(
    csr: CSRGraph, damp: float, *, tol: float = 1e-10, max_iterations: int = 500
) -> tuple[np.ndarray, int]:
    """Scalar power iteration (pull along in-arcs); returns (scores, iters)."""
    n = csr.n
    if n == 0:
        return np.zeros(0), 0
    out_strength = np.zeros(n, dtype=np.float64)
    for u in range(n):
        out_strength[u] = float(csr.neighbor_weights(u).sum())
    x = np.full(n, 1.0 / n)
    iterations = 0
    for _ in range(max_iterations):
        iterations += 1
        y = np.zeros(n, dtype=np.float64)
        dangling_mass = 0.0
        for u in range(n):
            if out_strength[u] == 0.0:
                dangling_mass += x[u]
                continue
            share = x[u] / out_strength[u]
            for v, w in zip(csr.neighbors(u), csr.neighbor_weights(u)):
                y[int(v)] += w * share
        y = damp * y + (damp * dangling_mass + (1.0 - damp)) / n
        if float(np.abs(y - x).sum()) < tol:
            x = y
            break
        x = y
    return x, iterations


def katz_series_scores(
    csr: CSRGraph,
    alpha: float,
    beta: float,
    *,
    max_terms: int = 1000,
    tol: float = 1e-10,
) -> np.ndarray:
    """Truncated Katz power series with a scalar in-arc accumulation."""
    n = csr.n
    x = np.zeros(n, dtype=np.float64)
    term = np.full(n, beta, dtype=np.float64)
    for _ in range(max_terms):
        nxt = np.zeros(n, dtype=np.float64)
        for u in range(n):
            for v, w in zip(csr.neighbors(u), csr.neighbor_weights(u)):
                nxt[int(v)] += w * term[u]
        term = alpha * nxt
        x += term
        if float(np.abs(term).sum()) < tol:
            break
    return x
