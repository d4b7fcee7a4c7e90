"""Core dynamic graph data structure.

The :class:`Graph` mirrors the feature set of NetworKit's ``Graph``: a
node-indexed, optionally weighted, optionally directed graph with dynamic
edge insertion/removal and fast conversion to CSR (compressed sparse row)
arrays for vectorized kernels.

Design notes (HPC guide idioms):

* Mutation happens on adjacency *sets* (cheap O(1) updates, exactly what
  the RIN widget needs when the cut-off slider moves), while all analytics
  run on an immutable CSR snapshot produced by :meth:`Graph.csr`.
* The CSR snapshot is cached and invalidated on mutation, so repeated
  analytics on an unchanged graph pay the conversion cost once.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Sequence

import numpy as np

from .csr import CSRGraph

__all__ = ["Graph"]


def _finite_weight(u: int, v: int, weight: float) -> float:
    w = float(weight)
    if not math.isfinite(w):
        raise ValueError(f"edge ({u},{v}) weight {weight!r} is not finite")
    return w


class Graph:
    """An undirected or directed graph with contiguous integer node ids.

    Parameters
    ----------
    n:
        Initial number of nodes (ids ``0..n-1``).
    weighted:
        Store a float weight per edge (defaults to 1.0 per edge).
    directed:
        Interpret edges as ordered pairs.

    Examples
    --------
    >>> g = Graph(3)
    >>> g.add_edge(0, 1)
    >>> g.add_edge(1, 2)
    >>> g.number_of_edges()
    2
    >>> sorted(g.neighbors(1))
    [0, 2]
    """

    __slots__ = ("_adj", "_in_adj", "_weighted", "_directed", "_m", "_csr_cache")

    def __init__(self, n: int = 0, *, weighted: bool = False, directed: bool = False):
        if n < 0:
            raise ValueError(f"node count must be non-negative, got {n}")
        self._adj: list[dict[int, float]] = [dict() for _ in range(n)]
        # For directed graphs we also maintain in-neighbours so that
        # reverse traversals (e.g. PageRank pulls) stay O(deg).
        self._in_adj: list[dict[int, float]] | None = (
            [dict() for _ in range(n)] if directed else None
        )
        self._weighted = bool(weighted)
        self._directed = bool(directed)
        self._m = 0
        self._csr_cache: CSRGraph | None = None

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def weighted(self) -> bool:
        """Whether edges carry explicit weights."""
        return self._weighted

    @property
    def directed(self) -> bool:
        """Whether edges are ordered pairs."""
        return self._directed

    def number_of_nodes(self) -> int:
        """Return the number of nodes."""
        return len(self._adj)

    def number_of_edges(self) -> int:
        """Return the number of edges (each undirected edge counted once)."""
        return self._m

    # NetworKit-style aliases -------------------------------------------------
    def numberOfNodes(self) -> int:  # noqa: N802 - NetworKit API compatibility
        """Alias of :meth:`number_of_nodes` (NetworKit naming)."""
        return self.number_of_nodes()

    def numberOfEdges(self) -> int:  # noqa: N802 - NetworKit API compatibility
        """Alias of :meth:`number_of_edges` (NetworKit naming)."""
        return self.number_of_edges()

    def __len__(self) -> int:
        return len(self._adj)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "directed" if self._directed else "undirected"
        w = "weighted" if self._weighted else "unweighted"
        return f"Graph(n={len(self._adj)}, m={self._m}, {kind}, {w})"

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add_node(self) -> int:
        """Append one node and return its id."""
        self._adj.append(dict())
        if self._in_adj is not None:
            self._in_adj.append(dict())
        self._invalidate()
        return len(self._adj) - 1

    def add_nodes(self, count: int) -> None:
        """Append ``count`` nodes."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        self._adj.extend(dict() for _ in range(count))
        if self._in_adj is not None:
            self._in_adj.extend(dict() for _ in range(count))
        self._invalidate()

    def _check_node(self, u: int) -> None:
        if not 0 <= u < len(self._adj):
            raise IndexError(f"node {u} out of range [0, {len(self._adj)})")

    def add_edge(self, u: int, v: int, weight: float = 1.0) -> None:
        """Insert edge ``(u, v)``; updating the weight if it already exists.

        Self-loops are rejected: RINs (and all algorithms in this package)
        operate on simple graphs. A weight that is not finite raises
        ``ValueError`` naming the edge; a negative one is stored, and the
        algorithms that need positive weights refuse it.
        """
        self._check_node(u)
        self._check_node(v)
        if u == v:
            raise ValueError(f"self-loop ({u},{u}) not supported")
        w = _finite_weight(u, v, weight) if self._weighted else 1.0
        fresh = v not in self._adj[u]
        self._adj[u][v] = w
        if self._directed:
            assert self._in_adj is not None
            self._in_adj[v][u] = w
        else:
            self._adj[v][u] = w
        if fresh:
            self._m += 1
        self._invalidate()

    def add_edges(self, edges: Iterable[tuple[int, int]] | np.ndarray) -> None:
        """Bulk-insert unweighted edges."""
        for u, v in edges:
            self.add_edge(int(u), int(v))

    def remove_edge(self, u: int, v: int) -> None:
        """Remove edge ``(u, v)``; raises ``KeyError`` if absent."""
        self._check_node(u)
        self._check_node(v)
        if v not in self._adj[u]:
            raise KeyError(f"edge ({u},{v}) not in graph")
        del self._adj[u][v]
        if self._directed:
            assert self._in_adj is not None
            del self._in_adj[v][u]
        else:
            del self._adj[v][u]
        self._m -= 1
        self._invalidate()

    def update_edges(
        self,
        add: Iterable[tuple[int, int]] = (),
        remove: Iterable[tuple[int, int]] = (),
    ) -> tuple[int, int]:
        """Apply a batched edge diff; returns ``(n_added, n_removed)``.

        This is the primitive behind the RIN widget's cut-off/frame switch:
        the new edge set is expressed as a diff against the current one so
        only the changed entries are touched.
        """
        added = removed = 0
        for u, v in remove:
            u, v = int(u), int(v)
            if 0 <= u < len(self._adj) and v in self._adj[u]:
                self.remove_edge(u, v)
                removed += 1
        for u, v in add:
            u, v = int(u), int(v)
            if not self.has_edge(u, v):
                self.add_edge(u, v)
                added += 1
        return added, removed

    def set_weight(self, u: int, v: int, weight: float) -> None:
        """Set the weight of an existing edge (finite, as in :meth:`add_edge`)."""
        if not self._weighted:
            raise ValueError("graph is unweighted; construct with weighted=True")
        if not self.has_edge(u, v):
            raise KeyError(f"edge ({u},{v}) not in graph")
        w = _finite_weight(u, v, weight)
        self._adj[u][v] = w
        if self._directed:
            assert self._in_adj is not None
            self._in_adj[v][u] = w
        else:
            self._adj[v][u] = w
        self._invalidate()

    def _invalidate(self) -> None:
        self._csr_cache = None

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def has_edge(self, u: int, v: int) -> bool:
        """Return True if the edge ``(u, v)`` exists."""
        if not (0 <= u < len(self._adj)):
            return False
        return v in self._adj[u]

    def weight(self, u: int, v: int) -> float:
        """Return the weight of edge ``(u, v)``."""
        self._check_node(u)
        if v not in self._adj[u]:
            raise KeyError(f"edge ({u},{v}) not in graph")
        return self._adj[u][v]

    def degree(self, u: int) -> int:
        """Out-degree of ``u`` (plain degree for undirected graphs)."""
        self._check_node(u)
        return len(self._adj[u])

    def in_degree(self, u: int) -> int:
        """In-degree of ``u`` (equals :meth:`degree` when undirected)."""
        self._check_node(u)
        if not self._directed:
            return len(self._adj[u])
        assert self._in_adj is not None
        return len(self._in_adj[u])

    def weighted_degree(self, u: int) -> float:
        """Sum of incident edge weights at ``u``."""
        self._check_node(u)
        return float(sum(self._adj[u].values()))

    def neighbors(self, u: int) -> Iterator[int]:
        """Iterate over (out-)neighbours of ``u``."""
        self._check_node(u)
        return iter(self._adj[u])

    def in_neighbors(self, u: int) -> Iterator[int]:
        """Iterate over in-neighbours of ``u``."""
        self._check_node(u)
        if not self._directed:
            return iter(self._adj[u])
        assert self._in_adj is not None
        return iter(self._in_adj[u])

    def iter_nodes(self) -> Iterator[int]:
        """Iterate over node ids."""
        return iter(range(len(self._adj)))

    def iter_edges(self) -> Iterator[tuple[int, int]]:
        """Iterate over edges; undirected edges are yielded once as (u<v)."""
        if self._directed:
            for u, nbrs in enumerate(self._adj):
                for v in nbrs:
                    yield u, v
        else:
            for u, nbrs in enumerate(self._adj):
                for v in nbrs:
                    if u < v:
                        yield u, v

    def iter_weighted_edges(self) -> Iterator[tuple[int, int, float]]:
        """Like :meth:`iter_edges` but includes weights."""
        if self._directed:
            for u, nbrs in enumerate(self._adj):
                for v, w in nbrs.items():
                    yield u, v, w
        else:
            for u, nbrs in enumerate(self._adj):
                for v, w in nbrs.items():
                    if u < v:
                        yield u, v, w

    def edge_set(self) -> set[tuple[int, int]]:
        """Materialize the edge set (canonicalized (u<v) when undirected)."""
        return set(self.iter_edges())

    def degrees(self) -> np.ndarray:
        """Vector of (out-)degrees."""
        return np.fromiter(
            (len(nbrs) for nbrs in self._adj), dtype=np.int64, count=len(self._adj)
        )

    def total_edge_weight(self) -> float:
        """Sum of all edge weights (undirected edges counted once)."""
        total = sum(sum(nbrs.values()) for nbrs in self._adj)
        return float(total if self._directed else total / 2.0)

    # ------------------------------------------------------------------
    # conversion
    # ------------------------------------------------------------------
    def csr(self) -> CSRGraph:
        """Return (and cache) a CSR snapshot of the current adjacency."""
        if self._csr_cache is None:
            self._csr_cache = CSRGraph.from_adjacency(
                self._adj, directed=self._directed
            )
        return self._csr_cache

    def edge_array(self) -> np.ndarray:
        """Return an ``(m, 2)`` int array of edges (canonical order)."""
        edges = list(self.iter_edges())
        if not edges:
            return np.empty((0, 2), dtype=np.int64)
        return np.asarray(edges, dtype=np.int64)

    def copy(self) -> "Graph":
        """Deep copy of the graph."""
        g = Graph(len(self._adj), weighted=self._weighted, directed=self._directed)
        g._adj = [dict(nbrs) for nbrs in self._adj]
        if self._in_adj is not None:
            g._in_adj = [dict(nbrs) for nbrs in self._in_adj]
        g._m = self._m
        return g

    def subgraph(self, nodes: Sequence[int]) -> tuple["Graph", np.ndarray]:
        """Induced subgraph on ``nodes``.

        Returns the subgraph (with nodes relabelled ``0..k-1`` following the
        order of ``nodes``) and the array mapping new ids to original ids.
        """
        nodes = list(dict.fromkeys(int(u) for u in nodes))  # dedupe, keep order
        for u in nodes:
            self._check_node(u)
        remap = {u: i for i, u in enumerate(nodes)}
        sub = Graph(len(nodes), weighted=self._weighted, directed=self._directed)
        for u in nodes:
            for v, w in self._adj[u].items():
                if v in remap and (self._directed or remap[u] < remap[v]):
                    sub.add_edge(remap[u], remap[v], w)
        return sub, np.asarray(nodes, dtype=np.int64)

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: Iterable[tuple[int, int]] | np.ndarray,
        *,
        weighted: bool = False,
        directed: bool = False,
    ) -> "Graph":
        """Build a graph from an iterable of (u, v) pairs."""
        g = cls(n, weighted=weighted, directed=directed)
        g.add_edges(edges)
        return g

    @classmethod
    def from_weighted_edges(
        cls,
        n: int,
        edges: Iterable[tuple[int, int, float]],
        *,
        directed: bool = False,
    ) -> "Graph":
        """Build a weighted graph from (u, v, w) triples."""
        g = cls(n, weighted=True, directed=directed)
        for u, v, w in edges:
            g.add_edge(int(u), int(v), float(w))
        return g
