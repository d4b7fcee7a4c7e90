"""Connected components (NetworKit ``components`` module analog)."""

from __future__ import annotations

import numpy as np
from scipy.sparse.csgraph import connected_components as _scipy_cc

from .csr import CSRGraph
from .graph import Graph

__all__ = [
    "ConnectedComponents",
    "connected_components",
    "largest_component",
    "IncrementalUnionFind",
]


def connected_components(g: Graph | CSRGraph) -> tuple[int, np.ndarray]:
    """Number of components and per-node component labels.

    Uses scipy's compiled union-find over the CSR snapshot — the
    "use compiled code for the hot spot" guideline.
    """
    csr = g.csr()
    if csr.n == 0:
        return 0, np.empty(0, dtype=np.int64)
    # Connectivity is structural: the cached 0/1 pattern matrix avoids
    # materializing the weighted scipy adjacency on scan hot paths.
    count, labels = _scipy_cc(
        csr.to_scipy_pattern(), directed=csr.directed, connection="weak"
    )
    return int(count), labels.astype(np.int64)


def largest_component(g: Graph | CSRGraph) -> np.ndarray:
    """Node ids of the largest connected component (sorted)."""
    count, labels = connected_components(g)
    if count == 0:
        return np.empty(0, dtype=np.int64)
    sizes = np.bincount(labels, minlength=count)
    return np.flatnonzero(labels == int(np.argmax(sizes))).astype(np.int64)


class IncrementalUnionFind:
    """Connectivity over a *growing* edge set, merged in vectorized batches.

    The cut-off scan walks sorted-contact prefixes: the edge set at each
    cut-off extends the previous one, so running a full
    :func:`connected_components` pass per cut-off repeats O(m) work k
    times. This structure instead carries component labels forward and
    folds in only the delta edges: a vectorized lookup discards edges
    whose endpoints already share a component (the common case mid-scan
    exits right there), the surviving Δ crossing edges run a classic
    find/union walk, and vectorized pointer jumping re-canonicalizes the
    label array — O(n + Δ·α) per cut-off instead of O(n + m).

    Labels are canonical — every component is labelled by its smallest
    member node id — so they are a pure function of the edge set,
    independent of batch boundaries. That is the property the sharded
    scan's bit-identity guarantee rests on: any prefix split produces the
    same labels.

    Examples
    --------
    >>> uf = IncrementalUnionFind(4)
    >>> uf.count
    4
    >>> uf.union_edges([(0, 1)])
    1
    >>> uf.union_edges([(2, 3), (1, 0)])
    1
    >>> uf.count, uf.labels.tolist()
    (2, [0, 0, 2, 2])
    """

    __slots__ = ("_n", "_labels", "_count")

    def __init__(self, n: int):
        if n < 0:
            raise ValueError(f"n must be non-negative, got {n}")
        self._n = int(n)
        self._labels = np.arange(self._n, dtype=np.int64)
        self._count = self._n

    @property
    def n(self) -> int:
        """Number of nodes."""
        return self._n

    @property
    def count(self) -> int:
        """Current number of components (isolated nodes included)."""
        return self._count

    @property
    def labels(self) -> np.ndarray:
        """Canonical per-node labels (smallest node id in the component).

        A read-only view — the array is reallocated on merges, so hold a
        copy if you need the labels of a particular prefix.
        """
        view = self._labels.view()
        view.flags.writeable = False
        return view

    def seed(self, labels: np.ndarray, count: int) -> None:
        """Adopt precomputed canonical labels (the bulk-init fast path).

        ``labels`` must already be canonical — every node labelled by the
        smallest member of its component (what
        :func:`~repro.graphkit.incremental.canonical_components`
        produces) — so the union invariants hold immediately.
        """
        labels = np.asarray(labels, dtype=np.int64)
        if labels.shape != (self._n,):
            raise ValueError(f"labels must have shape ({self._n},)")
        self._labels = labels.copy()
        self._count = int(count)

    def union_edges(self, edges: np.ndarray) -> int:
        """Fold a batch of ``(u, v)`` edges in; returns components merged.

        Batch union: a vectorized representative lookup filters the batch
        down to component-crossing edges, a union-by-minimum walk links
        their roots, and vectorized pointer jumping re-canonicalizes the
        label array (every parent link points at a smaller id, so the
        fixpoint of ``labels[labels]`` is exactly the smallest member of
        each component). Typical scan deltas cross nothing — that case
        exits after the lookup.
        """
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if len(edges) == 0:
            return 0
        crossing = self._labels[edges[:, 0]] != self._labels[edges[:, 1]]
        if not crossing.any():
            return 0
        parent = self._labels.copy()
        merges = 0
        for u, v in edges[crossing].tolist():
            # Find with path halving; union by smaller root id.
            while parent[u] != u:
                parent[u] = u = parent[parent[u]]
            while parent[v] != v:
                parent[v] = v = parent[parent[v]]
            if u != v:
                if u > v:
                    u, v = v, u
                parent[v] = u
                merges += 1
        # Pointer jumping to the canonical fixpoint (parents only ever
        # decrease, so this converges in O(log n) sweeps).
        while True:
            hop = parent[parent]
            if np.array_equal(hop, parent):
                break
            parent = hop
        self._labels = parent
        self._count -= merges
        return merges


class ConnectedComponents:
    """NetworKit-style runner around :func:`connected_components`.

    Examples
    --------
    >>> from repro.graphkit import Graph
    >>> g = Graph.from_edges(4, [(0, 1), (2, 3)])
    >>> cc = ConnectedComponents(g).run()
    >>> cc.number_of_components()
    2
    """

    def __init__(self, g: Graph | CSRGraph):
        self._g = g
        self._count: int | None = None
        self._labels: np.ndarray | None = None

    def run(self) -> "ConnectedComponents":
        """Compute the components."""
        self._count, self._labels = connected_components(self._g)
        return self

    def _require(self) -> None:
        if self._count is None:
            raise RuntimeError("call run() first")

    def number_of_components(self) -> int:
        """Number of (weakly) connected components."""
        self._require()
        assert self._count is not None
        return self._count

    def component_of(self, u: int) -> int:
        """Component label of node ``u``."""
        self._require()
        assert self._labels is not None
        return int(self._labels[u])

    def labels(self) -> np.ndarray:
        """Per-node component labels."""
        self._require()
        assert self._labels is not None
        return self._labels

    def component_sizes(self) -> dict[int, int]:
        """Mapping component label -> size."""
        self._require()
        assert self._labels is not None and self._count is not None
        sizes = np.bincount(self._labels, minlength=self._count)
        return {int(i): int(s) for i, s in enumerate(sizes)}

    def get_components(self) -> list[list[int]]:
        """Components as lists of node ids (NetworKit naming)."""
        self._require()
        assert self._labels is not None and self._count is not None
        comps: list[list[int]] = [[] for _ in range(self._count)]
        for u, label in enumerate(self._labels):
            comps[label].append(u)
        return comps
