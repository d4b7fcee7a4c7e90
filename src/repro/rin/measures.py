"""The widget's graph-measure registry (paper Fig. 6 measure switch).

The seven measures of Figure 6, selectable by name from the GUI's
"Graph Measure" slider:

* Betweenness Centrality, Closeness Centrality, Degree Centrality,
  Eigenvector Centrality, Katz Centrality (node scores in [0, ∞));
* PLM Community Detection, PLP Community Detection (block labels).

The RINs are unweighted and undirected, so the shortest-path measures
read hop distances; they route through the batched kernel layer
(``docs/KERNELS.md``), so a measure event from the interactive pipeline
costs block-level matrix sweeps, never per-source Python loops.

Every measure maps a graph — the mutable :class:`~repro.graphkit.graph.Graph`
or an immutable :class:`~repro.graphkit.csr.CSRGraph` snapshot (what the
interactive pipeline passes) — to an ``(n,)`` float array; community
labels are returned as floats so the widget's color mapping code is
measure-agnostic. Custom measures register via :func:`register_measure` —
the paper's "easily be customized through simple modifications of Python
code".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..graphkit import Graph
from ..graphkit.centrality import (
    Betweenness,
    Closeness,
    DegreeCentrality,
    EigenvectorCentrality,
    KatzCentrality,
)
from ..graphkit.community import PLM, PLP

__all__ = [
    "GraphMeasure",
    "MEASURES",
    "PAPER_MEASURES",
    "get_measure",
    "register_measure",
    "measure_names",
]


@dataclass(frozen=True)
class GraphMeasure:
    """A named node-score function over RIN graphs.

    Attributes
    ----------
    name:
        Display name (matches the paper's figure legends).
    compute:
        ``Graph | CSRGraph -> (n,) float`` score function.
    kind:
        ``'centrality'`` (continuous) or ``'community'`` (categorical).
    """

    name: str
    compute: Callable[[Graph], np.ndarray]
    kind: str = "centrality"

    def __call__(self, g: Graph) -> np.ndarray:
        scores = np.asarray(self.compute(g), dtype=np.float64)
        if scores.shape != (g.number_of_nodes(),):
            raise AssertionError(
                f"measure {self.name!r} returned shape {scores.shape} for a "
                f"{g.number_of_nodes()}-node graph"
            )
        return scores


def _betweenness(g: Graph) -> np.ndarray:
    return Betweenness(g, normalized=True).run().scores_array()


def _closeness(g: Graph) -> np.ndarray:
    return Closeness(g, normalized=True).run().scores_array()


def _degree(g: Graph) -> np.ndarray:
    return DegreeCentrality(g, normalized=True).run().scores_array()


def _eigenvector(g: Graph) -> np.ndarray:
    return EigenvectorCentrality(g).run().scores_array()


def _katz(g: Graph) -> np.ndarray:
    return KatzCentrality(g).run().scores_array()


def _plm(g: Graph) -> np.ndarray:
    return PLM(g, seed=42).run().get_partition().labels().astype(np.float64)


def _plp(g: Graph) -> np.ndarray:
    return PLP(g, seed=42).run().get_partition().labels().astype(np.float64)


#: The measure set of Figure 6 (a/b), in the paper's legend order.
PAPER_MEASURES: tuple[str, ...] = (
    "Betweenness Centrality",
    "Closeness Centrality",
    "Degree Centrality",
    "Eigenvector Centrality",
    "Katz Centrality",
    "PLM Community Detection",
    "PLP Community Detection",
)

MEASURES: dict[str, GraphMeasure] = {
    "Betweenness Centrality": GraphMeasure("Betweenness Centrality", _betweenness),
    "Closeness Centrality": GraphMeasure("Closeness Centrality", _closeness),
    "Degree Centrality": GraphMeasure("Degree Centrality", _degree),
    "Eigenvector Centrality": GraphMeasure("Eigenvector Centrality", _eigenvector),
    "Katz Centrality": GraphMeasure("Katz Centrality", _katz),
    "PLM Community Detection": GraphMeasure(
        "PLM Community Detection", _plm, kind="community"
    ),
    "PLP Community Detection": GraphMeasure(
        "PLP Community Detection", _plp, kind="community"
    ),
}


def measure_names() -> list[str]:
    """All registered measure names: the paper's seven in legend order,
    then any added through :func:`register_measure`."""
    paper = [n for n in PAPER_MEASURES if n in MEASURES]
    extra = [n for n in MEASURES if n not in PAPER_MEASURES]
    return paper + extra


def get_measure(name: str) -> GraphMeasure:
    """Look up a measure by display name."""
    try:
        return MEASURES[name]
    except KeyError:
        raise KeyError(
            f"unknown measure {name!r}; registered: {measure_names()}"
        ) from None


def register_measure(
    name: str,
    compute: Callable[[Graph], np.ndarray],
    *,
    kind: str = "centrality",
    overwrite: bool = False,
) -> GraphMeasure:
    """Register a user-defined measure for the widget.

    Raises ``ValueError`` if the name exists and ``overwrite`` is False.
    """
    if kind not in ("centrality", "community"):
        raise ValueError(f"kind must be 'centrality' or 'community', got {kind!r}")
    if name in MEASURES and not overwrite:
        raise ValueError(f"measure {name!r} already registered")
    measure = GraphMeasure(name, compute, kind=kind)
    MEASURES[name] = measure
    return measure
