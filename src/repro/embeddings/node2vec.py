"""Node2vec embeddings via PMI matrix factorization.

Without gensim offline, we use the established equivalence (Levy &
Goldberg 2014; Qiu et al. 2018): skip-gram with negative sampling
implicitly factorizes the shifted PPMI matrix of the walk co-occurrence
statistics. We build the window co-occurrence counts from the biased
walks, form the PPMI matrix and take a truncated SVD — a deterministic,
dependency-free embedding with the same geometry skip-gram converges to.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as splinalg

from ..graphkit.csr import CSRGraph
from ..graphkit.graph import Graph
from .walks import random_walks

__all__ = ["Node2Vec", "cosine_similarity"]


def _cooccurrence(walks: np.ndarray, n: int, window: int) -> sparse.csr_matrix:
    """Symmetric within-window co-occurrence counts over all walks."""
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    length = walks.shape[1]
    for offset in range(1, window + 1):
        left = walks[:, : length - offset].ravel()
        right = walks[:, offset:].ravel()
        rows.extend((left, right))
        cols.extend((right, left))
    data = np.ones(sum(len(r) for r in rows), dtype=np.float64)
    mat = sparse.csr_matrix(
        (data, (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
    )
    mat.sum_duplicates()
    return mat


class Node2Vec:
    """node2vec embedding with the NetworKit-style run pattern.

    Parameters
    ----------
    g:
        The graph.
    dimensions:
        Embedding dimensionality.
    walks_per_node / walk_length / window:
        Corpus parameters (defaults follow the node2vec paper).
    p / q:
        Return / in-out bias.
    negative:
        Negative-sampling shift (``log k`` subtracted from PMI).
    seed:
        Walk RNG seed (deterministic embeddings).
    """

    def __init__(
        self,
        g: Graph | CSRGraph,
        *,
        dimensions: int = 32,
        walks_per_node: int = 10,
        walk_length: int = 40,
        window: int = 5,
        p: float = 1.0,
        q: float = 1.0,
        negative: int = 1,
        seed: int | None = 42,
    ):
        if dimensions < 1:
            raise ValueError("dimensions must be >= 1")
        if window < 1:
            raise ValueError("window must be >= 1")
        self._g = g
        self._dim = dimensions
        self._walks_per_node = walks_per_node
        self._walk_length = walk_length
        self._window = window
        self._p = p
        self._q = q
        self._negative = max(1, int(negative))
        self._seed = seed
        self._features: np.ndarray | None = None

    def run(self) -> "Node2Vec":
        """Generate walks, build PPMI, factorize."""
        csr = self._g.csr()
        n = csr.n
        if n == 0:
            self._features = np.zeros((0, self._dim))
            return self
        walks = random_walks(
            csr,
            walks_per_node=self._walks_per_node,
            walk_length=self._walk_length,
            p=self._p,
            q=self._q,
            seed=self._seed,
        )
        counts = _cooccurrence(walks, n, self._window)
        total = counts.sum()
        row_sums = np.asarray(counts.sum(axis=1)).ravel()
        row_sums = np.maximum(row_sums, 1e-12)
        # PPMI: log( #(w,c) * total / (#w * #c) ) - log(negative), clipped.
        coo = counts.tocoo()
        pmi = np.log(
            coo.data * total / (row_sums[coo.row] * row_sums[coo.col])
        ) - np.log(self._negative)
        keep = pmi > 0
        ppmi = sparse.csr_matrix(
            (pmi[keep], (coo.row[keep], coo.col[keep])), shape=(n, n)
        )
        k = min(self._dim, max(n - 1, 1))
        if ppmi.nnz == 0 or n <= 2:
            self._features = np.zeros((n, self._dim))
            return self
        # Fixed Lanczos start vector + a sign convention make the SVD
        # fully deterministic (ARPACK otherwise randomizes v0).
        u, s, _ = splinalg.svds(ppmi, k=k, v0=np.ones(n) / np.sqrt(n))
        order = np.argsort(-s)
        u = u[:, order]
        for col in range(u.shape[1]):
            pivot = np.argmax(np.abs(u[:, col]))
            if u[pivot, col] < 0:
                u[:, col] = -u[:, col]
        emb = u * np.sqrt(np.maximum(s[order], 0.0))
        if emb.shape[1] < self._dim:  # pad when n-1 < dimensions
            emb = np.pad(emb, ((0, 0), (0, self._dim - emb.shape[1])))
        self._features = emb
        return self

    def get_features(self) -> np.ndarray:
        """The ``(n, dimensions)`` embedding; requires :meth:`run`."""
        if self._features is None:
            raise RuntimeError("call run() first")
        return self._features


def cosine_similarity(features: np.ndarray) -> np.ndarray:
    """Pairwise cosine similarity of embedding rows."""
    norms = np.linalg.norm(features, axis=1, keepdims=True)
    safe = features / np.maximum(norms, 1e-12)
    return safe @ safe.T
