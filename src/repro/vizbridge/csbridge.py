"""csbridge — the 2-D Cytoscape.js adapter (paper §V-A).

"NetworKit implements two modules csbridge (2D graphs) and plotlybridge
(2D and 3D graphs) ... These widgets use external Python packages
ipycytoscape and plotly." The csbridge path renders through Cytoscape.js,
whose wire format is an *elements* list of node/edge objects with a
``data`` dict and optional ``position``.

This headless implementation produces exactly that JSON shape (feedable
to ipycytoscape unchanged) from a graph + scores, placing nodes with the
2-D Maxent-Stress layout that the 3-D widget uses in three dimensions.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from ..graphkit.graph import Graph
from ..graphkit.layout import maxent_stress_layout
from .palettes import SPECTRAL, labels_to_colors, scores_to_colors

__all__ = ["CytoscapeWidget", "cytoscape_widget"]


class CytoscapeWidget:
    """ipycytoscape-compatible element model."""

    def __init__(self, elements: list[dict[str, Any]], layout_name: str):
        self._elements = elements
        self.layout_name = layout_name

    @property
    def nodes(self) -> list[dict[str, Any]]:
        """Node elements."""
        return [e for e in self._elements if e["group"] == "nodes"]

    @property
    def edges(self) -> list[dict[str, Any]]:
        """Edge elements."""
        return [e for e in self._elements if e["group"] == "edges"]

    def to_json(self) -> dict[str, Any]:
        """The Cytoscape.js payload."""
        return {
            "elements": self._elements,
            "layout": {"name": self.layout_name},
            "style": [
                {
                    "selector": "node",
                    "style": {"background-color": "data(color)"},
                },
                {"selector": "edge", "style": {"width": 1}},
            ],
        }

    def set_scores(self, scores: Sequence[float], *, categorical: bool = False) -> None:
        """Recolor nodes from new scores (the measure-switch path)."""
        nodes = self.nodes
        if len(scores) != len(nodes):
            raise ValueError(
                f"scores length {len(scores)} != node count {len(nodes)}"
            )
        colors = (
            labels_to_colors(np.asarray(scores))
            if categorical
            else scores_to_colors(np.asarray(scores), palette=SPECTRAL)
        )
        for node, score, color in zip(nodes, scores, colors):
            node["data"]["score"] = float(score)
            node["data"]["color"] = color


def cytoscape_widget(
    g: Graph,
    scores: np.ndarray | Sequence[float] | None = None,
    *,
    coords: np.ndarray | None = None,
    categorical: bool = False,
    seed: int | None = 42,
) -> CytoscapeWidget:
    """Build the csbridge 2-D widget for a graph.

    When ``coords`` is None a 2-D Maxent-Stress layout is computed
    (csbridge's preset layout mode); otherwise positions are taken as-is.
    """
    n = g.number_of_nodes()
    if coords is None:
        coords = maxent_stress_layout(g, dim=2, seed=seed)
    else:
        coords = np.asarray(coords, dtype=float)
        if coords.shape != (n, 2):
            raise ValueError(f"coords must be ({n}, 2), got {coords.shape}")
    if scores is not None:
        scores = np.asarray(scores, dtype=float)
        if scores.shape != (n,):
            raise ValueError(f"scores must have shape ({n},)")
        colors = (
            labels_to_colors(scores)
            if categorical
            else scores_to_colors(scores)
        )
    else:
        colors = ["#3288bd"] * n

    elements: list[dict[str, Any]] = []
    for u in range(n):
        data: dict[str, Any] = {"id": str(u), "label": str(u), "color": colors[u]}
        if scores is not None:
            data["score"] = float(scores[u])
        elements.append(
            {
                "group": "nodes",
                "data": data,
                "position": {
                    "x": float(coords[u, 0]) * 500,
                    "y": float(coords[u, 1]) * 500,
                },
            }
        )
    for u, v in g.iter_edges():
        elements.append(
            {
                "group": "edges",
                "data": {"id": f"{u}-{v}", "source": str(u), "target": str(v)},
            }
        )
    return CytoscapeWidget(elements, "preset")
