"""Common base class for centrality algorithms (NetworKit API shape).

Every centrality follows the NetworKit run-pattern::

    alg = Betweenness(G)
    alg.run()
    alg.scores()      # list/array of per-node scores
    alg.score(u)      # single node
    alg.ranking()     # [(node, score)] sorted descending

Subclasses implement :meth:`_compute` returning the raw score vector.
"""

from __future__ import annotations

import numpy as np

from ..csr import CSRGraph
from ..graph import Graph

__all__ = ["Centrality"]


#: Valid values for the ``impl`` selector shared by every centrality.
IMPLEMENTATIONS = ("vectorized", "reference")


class Centrality:
    """Abstract base: run-once centrality with cached scores.

    Every subclass carries two interchangeable engines selected by the
    ``impl`` keyword: ``"vectorized"`` (default) runs on the CSR kernel
    layer (:mod:`repro.graphkit.kernels`), ``"reference"`` runs the naive
    scalar algorithm (:mod:`repro.graphkit.centrality.reference`). The two
    must agree within float tolerance — the differential test suite
    enforces it — so the reference path doubles as executable
    documentation of each measure's semantics.
    """

    name: str = "centrality"

    def __init__(
        self,
        g: Graph | CSRGraph,
        *,
        normalized: bool = False,
        impl: str = "vectorized",
    ):
        if impl not in IMPLEMENTATIONS:
            raise ValueError(
                f"impl must be one of {IMPLEMENTATIONS}, got {impl!r}"
            )
        self._graph = g
        self._normalized = bool(normalized)
        self._impl = impl
        self._scores: np.ndarray | None = None

    # ------------------------------------------------------------------
    @property
    def graph(self) -> Graph | CSRGraph:
        """The input graph."""
        return self._graph

    @property
    def impl(self) -> str:
        """The selected engine ('vectorized' or 'reference')."""
        return self._impl

    def _compute(self, csr: CSRGraph) -> np.ndarray:
        raise NotImplementedError

    def _compute_reference(self, csr: CSRGraph) -> np.ndarray:
        """Naive scalar engine; fails loudly when a measure has none.

        A silent fallback to the vectorized engine would make differential
        tests pass vacuously.
        """
        raise NotImplementedError(
            f"{type(self).__name__} has no reference engine; use the default "
            "impl='vectorized'"
        )

    def _normalize(self, scores: np.ndarray, csr: CSRGraph) -> np.ndarray:
        """Default normalization: scale max score to 1."""
        peak = scores.max() if len(scores) else 0.0
        return scores / peak if peak > 0 else scores

    # ------------------------------------------------------------------
    def run(self) -> "Centrality":
        """Compute (and cache) the score vector."""
        csr = self._graph.csr()
        compute = (
            self._compute_reference if self._impl == "reference" else self._compute
        )
        scores = np.asarray(compute(csr), dtype=np.float64)
        if scores.shape != (csr.n,):
            raise AssertionError(
                f"{type(self).__name__} produced shape {scores.shape}, "
                f"expected ({csr.n},)"
            )
        if self._normalized:
            scores = self._normalize(scores, csr)
        self._scores = scores
        return self

    def _require(self) -> np.ndarray:
        if self._scores is None:
            raise RuntimeError(f"call {type(self).__name__}.run() first")
        return self._scores

    def scores(self) -> list[float]:
        """Per-node scores as a list (NetworKit returns a list)."""
        return self._require().tolist()

    def scores_array(self) -> np.ndarray:
        """Per-node scores as the underlying NumPy array (no copy)."""
        return self._require()

    def score(self, u: int) -> float:
        """Score of node ``u``."""
        return float(self._require()[u])

    def ranking(self) -> list[tuple[int, float]]:
        """Nodes with scores, best first (ties by node id)."""
        scores = self._require()
        order = np.lexsort((np.arange(len(scores)), -scores))
        return [(int(u), float(scores[u])) for u in order]

    def maximum(self) -> float:
        """Largest score."""
        scores = self._require()
        return float(scores.max()) if len(scores) else 0.0

    def _centralization_denominator(self, n: int, peak: float) -> float:
        """Maximum possible Σ(max − c_u); generic bound is (n−1)·max.

        Measure-specific subclasses override this with the Freeman
        denominator (the star graph's sum), so the star scores exactly 1.
        """
        return (n - 1) * peak

    def centralization(self) -> float:
        """Freeman centralization: Σ(max − c_u) / theoretical maximum."""
        scores = self._require()
        n = len(scores)
        if n <= 1:
            return 0.0
        peak = scores.max()
        denom = self._centralization_denominator(n, peak)
        if denom <= 0:
            return 0.0
        return float((peak * n - scores.sum()) / denom)
