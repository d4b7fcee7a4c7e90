"""Immutable CSR (compressed sparse row) graph snapshot.

All vectorized kernels in :mod:`repro.graphkit` operate on this structure:
``indptr``/``indices``/``weights`` arrays exactly like ``scipy.sparse.csr_matrix``,
plus cheap conversions to scipy sparse for the linear-algebra-backed
algorithms (eigenvector/Katz centrality, Maxent-Stress solves).

Keeping analytics on an immutable snapshot while mutation happens
elsewhere gives us the "views, not copies" and cache-locality idioms from
the HPC guides: a snapshot is built once per widget update and then
shared by every measure.

Incremental updates never mutate a snapshot: an edge diff is expressed as
a :class:`CSRDelta` over packed sorted edge keys (:func:`pack_edge_keys`)
and applied through a :class:`CSRSnapshotBuffer`, which builds the *next*
snapshot with compiled array merges and keeps the old one alive (double
buffering) for in-flight readers such as a worker-thread layout solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np
from scipy import sparse

__all__ = ["CSRGraph", "CSRDelta", "CSRSnapshotBuffer", "pack_edge_keys"]


def pack_edge_keys(n: int, edges: np.ndarray) -> np.ndarray:
    """Sorted int64 keys ``u * n + v`` of canonical ``(u < v)`` edge pairs.

    The shared currency of the incremental-update machinery: sorted key
    arrays make edge-set diffs and merges single compiled passes
    (:func:`numpy.setdiff1d` / :func:`numpy.insert`) instead of
    Python-level set algebra over tuple pairs.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if len(edges) == 0:
        return np.empty(0, dtype=np.int64)
    keys = edges[:, 0] * np.int64(n) + edges[:, 1]
    keys.sort()
    return keys


class CSRGraph:
    """Read-only CSR adjacency.

    Attributes
    ----------
    indptr:
        ``(n+1,)`` int64 row pointers.
    indices:
        ``(nnz,)`` int32 column indices (out-neighbours per row).
    weights:
        ``(nnz,)`` float64 edge weights aligned with ``indices``.
    directed:
        Whether the adjacency is asymmetric.
    """

    __slots__ = (
        "indptr",
        "indices",
        "weights",
        "directed",
        "_scipy",
        "_pattern",
        "_tails",
    )

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: np.ndarray,
        *,
        directed: bool = False,
    ):
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int32)
        self.weights = np.ascontiguousarray(weights, dtype=np.float64)
        if self.indptr.ndim != 1 or self.indptr[0] != 0:
            raise ValueError("indptr must be 1-D and start at 0")
        if self.indptr[-1] != len(self.indices):
            raise ValueError("indptr[-1] must equal len(indices)")
        if len(self.indices) != len(self.weights):
            raise ValueError("indices and weights must be aligned")
        self.directed = bool(directed)
        self._scipy: sparse.csr_matrix | None = None
        self._pattern: sparse.csr_matrix | None = None
        self._tails: np.ndarray | None = None

    # ------------------------------------------------------------------
    @classmethod
    def from_adjacency(
        cls, adj: Sequence[dict[int, float]], *, directed: bool = False
    ) -> "CSRGraph":
        """Build from a dict-of-dicts adjacency list."""
        n = len(adj)
        degrees = np.fromiter((len(a) for a in adj), dtype=np.int64, count=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        nnz = int(indptr[-1])
        indices = np.empty(nnz, dtype=np.int32)
        weights = np.empty(nnz, dtype=np.float64)
        pos = 0
        for a in adj:
            k = len(a)
            if k:
                # Sorted neighbours give deterministic traversal order and
                # better cache behaviour for the frontier kernels.
                items = sorted(a.items())
                indices[pos : pos + k] = [v for v, _ in items]
                weights[pos : pos + k] = [w for _, w in items]
                pos += k
        return cls(indptr, indices, weights, directed=directed)

    @classmethod
    def from_edge_array(
        cls,
        n: int,
        edges: np.ndarray,
        weights: np.ndarray | None = None,
        *,
        directed: bool = False,
    ) -> "CSRGraph":
        """Build from an ``(m, 2)`` edge array (symmetrized if undirected)."""
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        m = len(edges)
        w = (
            np.ones(m, dtype=np.float64)
            if weights is None
            else np.asarray(weights, dtype=np.float64)
        )
        if not directed and m:
            edges = np.vstack([edges, edges[:, ::-1]])
            w = np.concatenate([w, w])
        mat = sparse.csr_matrix(
            (w, (edges[:, 0], edges[:, 1])), shape=(n, n), dtype=np.float64
        )
        mat.sum_duplicates()
        mat.sort_indices()
        return cls(mat.indptr, mat.indices, mat.data, directed=directed)

    @classmethod
    def from_unique_edge_array(cls, n: int, edges: np.ndarray) -> "CSRGraph":
        """Build an undirected unweighted CSR from *unique* (u < v) pairs.

        The fast path for contact-pair prefixes: one ``lexsort`` over the
        symmetrized arc list plus a ``bincount`` builds the arrays
        directly, skipping scipy's COO validation/dedup machinery (the
        caller guarantees no duplicates and no self-loops).
        """
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        m = len(edges)
        if m == 0:
            return cls(
                np.zeros(n + 1, dtype=np.int64),
                np.empty(0, dtype=np.int32),
                np.empty(0, dtype=np.float64),
            )
        rows = np.concatenate([edges[:, 0], edges[:, 1]])
        cols = np.concatenate([edges[:, 1], edges[:, 0]])
        order = np.lexsort((cols, rows))
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        return cls(indptr, cols[order], np.ones(2 * m, dtype=np.float64))

    @staticmethod
    def symmetrize_sorted_keys(n: int, keys: np.ndarray) -> np.ndarray:
        """Sorted symmetric arc keys (``tail * n + head``, both directions).

        ``keys`` are the :func:`pack_edge_keys` canonical ``u * n + v``
        values (``u < v``, sorted, duplicate-free). Forward keys have
        ``u < v``, reversed have ``u > v``: disjoint sorted sets, so one
        :func:`numpy.insert` merge yields the fully sorted arc list.
        """
        keys = np.asarray(keys, dtype=np.int64)
        if len(keys) == 0:
            return np.empty(0, dtype=np.int64)
        u, v = np.divmod(keys, np.int64(n))
        rev = v * np.int64(n) + u
        rev.sort()
        return np.insert(keys, np.searchsorted(keys, rev), rev)

    @classmethod
    def from_sorted_arc_keys(cls, n: int, arc_keys: np.ndarray) -> "CSRGraph":
        """Build an unweighted CSR from sorted symmetric arc keys.

        The delta-apply fast path: :class:`CSRSnapshotBuffer` maintains
        the arc-key array incrementally, so building the next snapshot is
        one ``divmod`` + one ``bincount`` — no sort at all.
        """
        arc_keys = np.asarray(arc_keys, dtype=np.int64)
        if len(arc_keys) == 0:
            return cls(
                np.zeros(n + 1, dtype=np.int64),
                np.empty(0, dtype=np.int32),
                np.empty(0, dtype=np.float64),
            )
        tails, heads = np.divmod(arc_keys, np.int64(n))
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(tails, minlength=n), out=indptr[1:])
        return cls(indptr, heads, np.ones(len(arc_keys), dtype=np.float64))

    @classmethod
    def from_sorted_edge_keys(cls, n: int, keys: np.ndarray) -> "CSRGraph":
        """Build an undirected unweighted CSR from sorted packed edge keys
        (:func:`pack_edge_keys` representation)."""
        return cls.from_sorted_arc_keys(n, cls.symmetrize_sorted_keys(n, keys))

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of nodes."""
        return len(self.indptr) - 1

    @property
    def nnz(self) -> int:
        """Number of stored directed arcs (2m for undirected graphs)."""
        return len(self.indices)

    @property
    def m(self) -> int:
        """Number of edges (undirected edges counted once)."""
        return self.nnz if self.directed else self.nnz // 2

    # Duck-type compatibility with the mutable Graph: consumers that only
    # read (measures, trace builders, analyses) accept either structure.
    def number_of_nodes(self) -> int:
        """Alias of :attr:`n` (mutable-``Graph`` API shape)."""
        return self.n

    def number_of_edges(self) -> int:
        """Alias of :attr:`m` (mutable-``Graph`` API shape)."""
        return self.m

    def csr(self) -> "CSRGraph":
        """This snapshot itself: ``g.csr()`` reads any graph as CSR."""
        return self

    def edge_array(self) -> np.ndarray:
        """``(m, 2)`` int64 edge array (canonical ``u < v`` when undirected)."""
        tails = self.arc_tails()
        if self.directed:
            return np.column_stack([tails, self.indices.astype(np.int64)])
        mask = tails < self.indices
        return np.column_stack([tails[mask], self.indices[mask].astype(np.int64)])

    def iter_edges(self) -> Iterator[tuple[int, int]]:
        """Iterate over edges; undirected edges are yielded once as (u<v)."""
        for u, v in self.edge_array():
            yield int(u), int(v)

    def edge_set(self) -> set[tuple[int, int]]:
        """Materialize the edge set (canonicalized (u<v) when undirected)."""
        return set(self.iter_edges())

    def degrees(self) -> np.ndarray:
        """Out-degree vector."""
        return np.diff(self.indptr)

    def weighted_degrees(self) -> np.ndarray:
        """Sum of incident weights per node (strength).

        Implemented as a segmented sum over the CSR value array; empty rows
        (isolated nodes) correctly yield 0.
        """
        if self.nnz == 0:
            return np.zeros(self.n, dtype=np.float64)
        cumulative = np.concatenate([[0.0], np.cumsum(self.weights)])
        return cumulative[self.indptr[1:]] - cumulative[self.indptr[:-1]]

    def neighbors(self, u: int) -> np.ndarray:
        """View of the out-neighbour ids of ``u``."""
        return self.indices[self.indptr[u] : self.indptr[u + 1]]

    def neighbor_weights(self, u: int) -> np.ndarray:
        """View of weights aligned with :meth:`neighbors`."""
        return self.weights[self.indptr[u] : self.indptr[u + 1]]

    def to_scipy(self) -> sparse.csr_matrix:
        """Zero-copy scipy CSR matrix view of the adjacency (cached)."""
        if self._scipy is None:
            n = self.n
            self._scipy = sparse.csr_matrix(
                (self.weights, self.indices, self.indptr), shape=(n, n)
            )
        return self._scipy

    def to_scipy_pattern(self) -> sparse.csr_matrix:
        """0/1 structure matrix of the adjacency (cached).

        The batched BFS kernels advance dense frontiers with products
        against this matrix; sharing it across calls means a BFS-heavy
        measure (closeness, APSP) allocates the pattern once per snapshot.
        """
        if self._pattern is None:
            self._pattern = sparse.csr_matrix(
                (np.ones(self.nnz, dtype=np.float64), self.indices, self.indptr),
                shape=(self.n, self.n),
            )
        return self._pattern

    def arc_tails(self) -> np.ndarray:
        """Row id of every stored arc (cached; aligned with ``indices``).

        The transpose-SpMV scatter uses this every power iteration, so it
        is computed once per snapshot rather than per call.
        """
        if self._tails is None:
            self._tails = np.repeat(
                np.arange(self.n, dtype=np.int64), np.diff(self.indptr)
            )
        return self._tails

    def arc_gather(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Flat storage positions of every arc leaving ``rows``.

        Returns ``(gather, counts)``: ``indices[gather]`` / ``weights[gather]``
        enumerate the rows' arcs contiguously and ``counts`` holds per-row
        out-degrees. Built as one shifted ``arange`` (``starts[i] + 0..k_i``
        per segment) — a single ``repeat`` instead of per-node slicing.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if len(rows) == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        starts = self.indptr[rows]
        counts = self.indptr[rows + 1] - starts
        total = int(counts.sum())
        if total == 0:
            return np.empty(0, dtype=np.int64), counts
        offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
        gather = np.arange(total, dtype=np.int64) + np.repeat(starts - offsets, counts)
        return gather, counts

    def expand_frontier(self, frontier: np.ndarray) -> np.ndarray:
        """All out-neighbours of the nodes in ``frontier`` (with repeats)."""
        frontier = np.asarray(frontier, dtype=np.int64)
        gather, _ = self.arc_gather(frontier)
        if len(gather) == 0:
            return np.empty(0, dtype=np.int32)
        return self.indices[gather]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CSRGraph(n={self.n}, m={self.m}, directed={self.directed})"


@dataclass(frozen=True)
class CSRDelta:
    """An edge diff between two RIN states, in packed sorted-key form.

    ``add_keys`` / ``remove_keys`` are disjoint sorted int64 arrays of
    canonical ``u * n + v`` keys (``u < v``) — the exact representation
    :func:`pack_edge_keys` produces. Applying a delta is two compiled
    array passes (a ``searchsorted`` keep-mask and an ``insert`` merge);
    no per-edge Python mutation anywhere.
    """

    n: int
    add_keys: np.ndarray
    remove_keys: np.ndarray

    @classmethod
    def between(
        cls, n: int, current_keys: np.ndarray, target_keys: np.ndarray
    ) -> "CSRDelta":
        """Delta turning ``current_keys`` into ``target_keys`` (both sorted)."""
        return cls(
            n=int(n),
            add_keys=np.setdiff1d(target_keys, current_keys, assume_unique=True),
            remove_keys=np.setdiff1d(current_keys, target_keys, assume_unique=True),
        )

    @property
    def added(self) -> int:
        """Number of inserted edges."""
        return len(self.add_keys)

    @property
    def removed(self) -> int:
        """Number of deleted edges."""
        return len(self.remove_keys)

    @property
    def total(self) -> int:
        """Number of touched edges."""
        return self.added + self.removed

    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Unpack to ``(added, removed)`` ``(k, 2)`` edge arrays."""
        return (
            np.column_stack(np.divmod(self.add_keys, np.int64(self.n))),
            np.column_stack(np.divmod(self.remove_keys, np.int64(self.n))),
        )

    def apply(self, keys: np.ndarray) -> np.ndarray:
        """New sorted key array after removing/adding this delta's edges."""
        keys = np.asarray(keys, dtype=np.int64)
        if len(self.remove_keys) and len(keys):
            pos = np.searchsorted(self.remove_keys, keys)
            pos = np.minimum(pos, len(self.remove_keys) - 1)
            keys = keys[self.remove_keys[pos] != keys]
        if len(self.add_keys):
            keys = np.insert(keys, np.searchsorted(keys, self.add_keys), self.add_keys)
        return keys


class CSRSnapshotBuffer:
    """Double-buffered immutable CSR snapshots for incremental updates.

    The interactive pipeline reads analytics off an immutable
    :class:`CSRGraph` while slider events mutate the edge set. Applying a
    :class:`CSRDelta` builds the *next* snapshot from the merged key array
    and swaps buffers: :attr:`current` becomes the new front, the old
    front survives as :attr:`previous` so in-flight readers (a layout
    solve running on a worker thread) keep a consistent view until they
    finish. Snapshots are never mutated in place.
    """

    __slots__ = ("_n", "_keys", "_arc_keys", "_front", "_back")

    def __init__(self, n: int, keys: np.ndarray | None = None):
        self._n = int(n)
        self._keys = (
            np.empty(0, dtype=np.int64)
            if keys is None
            else np.asarray(keys, dtype=np.int64)
        )
        # The symmetrized arc-key array is maintained *incrementally*
        # across applies: a delta of k edges costs O(k log k + m) compiled
        # merge work, and snapshot construction needs no sort at all.
        self._arc_keys = CSRGraph.symmetrize_sorted_keys(self._n, self._keys)
        self._front = CSRGraph.from_sorted_arc_keys(self._n, self._arc_keys)
        self._back: CSRGraph | None = None

    @classmethod
    def from_edges(cls, n: int, edges: np.ndarray) -> "CSRSnapshotBuffer":
        """Build from an ``(m, 2)`` canonical (u < v) edge array."""
        return cls(n, pack_edge_keys(n, edges))

    @property
    def n(self) -> int:
        """Number of nodes (fixed for the buffer's lifetime)."""
        return self._n

    @property
    def keys(self) -> np.ndarray:
        """Sorted packed edge keys of the current snapshot."""
        return self._keys

    @property
    def current(self) -> CSRGraph:
        """The front buffer: the published snapshot."""
        return self._front

    @property
    def previous(self) -> CSRGraph | None:
        """The back buffer: the snapshot before the last delta (if any)."""
        return self._back

    def delta_to(self, target_keys: np.ndarray) -> CSRDelta:
        """Delta from the current snapshot to ``target_keys``."""
        return CSRDelta.between(self._n, self._keys, target_keys)

    def _both_directions(self, keys: np.ndarray) -> np.ndarray:
        """Sorted forward+reverse arc keys of a (small) delta key set."""
        if len(keys) == 0:
            return keys
        u, v = np.divmod(keys, np.int64(self._n))
        arcs = np.concatenate([keys, v * np.int64(self._n) + u])
        arcs.sort()
        return arcs

    def apply(self, delta: CSRDelta) -> CSRGraph:
        """Apply a delta; swaps buffers and returns the new front snapshot.

        Both the canonical edge keys and the symmetric arc keys advance by
        compiled sorted merges sized by the *delta*, so applying k changed
        edges to an m-edge snapshot never re-sorts the m edges.
        """
        arc_delta = CSRDelta(
            self._n,
            add_keys=self._both_directions(delta.add_keys),
            remove_keys=self._both_directions(delta.remove_keys),
        )
        new_keys = delta.apply(self._keys)
        new_arc_keys = arc_delta.apply(self._arc_keys)
        self._back = self._front
        self._front = CSRGraph.from_sorted_arc_keys(self._n, new_arc_keys)
        self._keys = new_keys
        self._arc_keys = new_arc_keys
        return self._front

    def reset(self, keys: np.ndarray) -> CSRGraph:
        """Replace the front snapshot wholesale (full rebuild path)."""
        self._back = self._front
        self._keys = np.asarray(keys, dtype=np.int64)
        self._arc_keys = CSRGraph.symmetrize_sorted_keys(self._n, self._keys)
        self._front = CSRGraph.from_sorted_arc_keys(self._n, self._arc_keys)
        return self._front

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CSRSnapshotBuffer(n={self._n}, m={len(self._keys)})"
