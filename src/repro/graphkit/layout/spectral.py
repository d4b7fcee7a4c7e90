"""Spectral layout from the graph Laplacian's low eigenvectors."""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as splinalg

from ..csr import CSRGraph
from ..graph import Graph

__all__ = ["spectral_layout"]


def spectral_layout(g: Graph | CSRGraph, dim: int = 2) -> np.ndarray:
    """Coordinates from Laplacian eigenvectors 2..dim+1 (Fiedler space).

    Deterministic and fast; a good warm start for the iterative layouts.
    Falls back to dense ``eigh`` for graphs too small for Lanczos.
    """
    csr = g.csr()
    n = csr.n
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if n == 0:
        return np.zeros((0, dim))
    if n <= dim + 1:
        # Not enough spectrum; spread nodes deterministically.
        coords = np.zeros((n, dim))
        coords[:, 0] = np.arange(n)
        return coords
    adj = csr.to_scipy()
    degrees = np.asarray(adj.sum(axis=1)).ravel()
    lap = sparse.diags(degrees) - adj
    k = dim + 1
    if n < 5 * k:
        vals, vecs = np.linalg.eigh(lap.toarray())
    else:
        try:
            vals, vecs = splinalg.eigsh(lap.tocsc(), k=k, sigma=0.0, which="LM")
        except Exception:
            vals, vecs = np.linalg.eigh(lap.toarray())
    order = np.argsort(vals)
    return np.ascontiguousarray(vecs[:, order[1 : dim + 1]], dtype=np.float64)
