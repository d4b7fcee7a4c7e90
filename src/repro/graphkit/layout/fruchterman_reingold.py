"""Fruchterman-Reingold force-directed layout (2D/3D).

Referenced by the paper as one of Gephi's drawing algorithms; provided here
as the classic baseline against Maxent-Stress. Exact all-pairs repulsion is
vectorized for small graphs and switches to sampled repulsion above
``exact_threshold`` nodes to keep memory O(n·q).
"""

from __future__ import annotations

import numpy as np

from ..csr import CSRGraph
from ..graph import Graph

__all__ = ["FruchtermanReingold", "fruchterman_reingold_layout"]

_EPS = 1e-9


def fruchterman_reingold_layout(
    g: Graph | CSRGraph,
    dim: int = 2,
    *,
    iterations: int = 50,
    seed: int | None = 42,
    initial: np.ndarray | None = None,
    exact_threshold: int = 2000,
    repulsion_samples: int = 16,
) -> np.ndarray:
    """Compute an ``(n, dim)`` force-directed embedding.

    Temperature follows the classic linear cooling schedule; the optimal
    pairwise distance is ``k = (volume / n)^(1/dim)`` in the unit box.
    """
    csr = g.csr()
    n = csr.n
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if n == 0:
        return np.zeros((0, dim))
    rng = np.random.default_rng(seed)
    if initial is not None:
        x = np.array(initial, dtype=np.float64, copy=True)
        if x.shape != (n, dim):
            raise ValueError(f"initial layout must be ({n}, {dim})")
    else:
        x = rng.random((n, dim))
    if n == 1:
        return x
    k_opt = (1.0 / n) ** (1.0 / dim)
    temp = 0.1
    cooling = temp / (iterations + 1)
    tails = np.repeat(np.arange(n, dtype=np.int64), np.diff(csr.indptr))
    heads = csr.indices.astype(np.int64)

    for _ in range(iterations):
        if n <= exact_threshold:
            delta = x[:, None, :] - x[None, :, :]  # (n, n, dim)
            dist2 = np.einsum("ijk,ijk->ij", delta, delta)
            np.maximum(dist2, _EPS, out=dist2)
            rep = (delta * (k_opt**2 / dist2)[:, :, None]).sum(axis=1)
        else:
            q = min(repulsion_samples, n - 1)
            far = rng.integers(0, n, size=(n, q))
            delta = x[:, None, :] - x[far]
            dist2 = np.einsum("ijk,ijk->ij", delta, delta)
            np.maximum(dist2, _EPS, out=dist2)
            rep = (delta * (k_opt**2 / dist2)[:, :, None]).sum(axis=1)
            rep *= (n - 1) / q

        disp = rep
        if len(tails):
            ediff = x[tails] - x[heads]
            edist = np.linalg.norm(ediff, axis=1)
            np.maximum(edist, _EPS, out=edist)
            attract = ediff * (edist / k_opt)[:, None]
            np.subtract.at(disp, tails, attract)

        length = np.linalg.norm(disp, axis=1)
        np.maximum(length, _EPS, out=length)
        x += disp / length[:, None] * np.minimum(length, temp)[:, None]
        temp = max(temp - cooling, 1e-4)
    return x


class FruchtermanReingold:
    """Runner wrapper: ``FruchtermanReingold(G, dim=3).run().getCoordinates()``."""

    def __init__(self, g: Graph | CSRGraph, dim: int = 2, **kwargs):
        self._g = g
        self._dim = dim
        self._kwargs = kwargs
        self._coords: np.ndarray | None = None

    def run(self) -> "FruchtermanReingold":
        """Compute the embedding."""
        self._coords = fruchterman_reingold_layout(
            self._g, self._dim, **self._kwargs
        )
        return self

    def getCoordinates(self) -> np.ndarray:  # noqa: N802 - NetworKit naming
        """The coordinates; requires :meth:`run`."""
        if self._coords is None:
            raise RuntimeError("call run() first")
        return self._coords
