"""Katz centrality.

``x = Σ_{k≥1} α^k A^k 1`` — solved either by the direct sparse linear
system ``(I - αA)x = α A 1`` (default, exact) or by truncated power series
for very large graphs. α must satisfy ``α < 1/λ_max``; the default picks
``0.9 / λ_max_upper_bound`` with the max-degree bound.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as splinalg

__all__ = ["KatzCentrality"]

from ..csr import CSRGraph
from ..kernels import spmv_transpose
from . import reference
from .base import Centrality


class KatzCentrality(Centrality):
    """Katz centrality with automatic safe damping.

    Parameters
    ----------
    g:
        The graph.
    alpha:
        Damping factor; ``None`` selects ``0.9 / Δ`` (Δ = max degree), which
        is always below the spectral radius bound.
    beta:
        Constant per-node base weight.
    method:
        ``'direct'`` (sparse solve) or ``'series'`` (truncated power sum).
    """

    name = "katz"

    def __init__(
        self,
        g,
        alpha: float | None = None,
        beta: float = 1.0,
        *,
        method: str = "direct",
        normalized: bool = False,
        max_terms: int = 1000,
        tol: float = 1e-10,
        impl: str = "vectorized",
    ):
        if method not in ("direct", "series"):
            raise ValueError(f"unknown method {method!r}")
        super().__init__(g, normalized=normalized, impl=impl)
        self._alpha = alpha
        self._beta = float(beta)
        self._method = method
        self._max_terms = max_terms
        self._tol = tol

    def effective_alpha(self) -> float:
        """The α actually used (resolved against the degree bound)."""
        csr = self._graph.csr()
        if self._alpha is not None:
            return float(self._alpha)
        max_deg = int(csr.degrees().max()) if csr.n else 0
        return 0.9 / max_deg if max_deg > 0 else 0.1

    def _compute(self, csr: CSRGraph) -> np.ndarray:
        n = csr.n
        if n == 0:
            return np.zeros(0)
        alpha = self.effective_alpha()
        adj = csr.to_scipy()
        ones = np.full(n, self._beta)
        if self._method == "direct":
            system = sparse.identity(n, format="csr") - alpha * adj.T
            rhs = alpha * (adj.T @ ones)
            x = splinalg.spsolve(system.tocsc(), rhs)
        else:
            x = np.zeros(n)
            term = ones.copy()
            for _ in range(self._max_terms):
                term = alpha * spmv_transpose(csr, term)
                x += term
                if np.abs(term).sum() < self._tol:
                    break
        return np.asarray(x, dtype=np.float64)

    def _compute_reference(self, csr: CSRGraph) -> np.ndarray:
        if csr.n == 0:
            return np.zeros(0)
        return reference.katz_series_scores(
            csr,
            self.effective_alpha(),
            self._beta,
            max_terms=self._max_terms,
            tol=min(self._tol, 1e-12),
        )

    def _normalize(self, scores: np.ndarray, csr: CSRGraph) -> np.ndarray:
        norm = np.linalg.norm(scores)
        return scores / norm if norm > 0 else scores
