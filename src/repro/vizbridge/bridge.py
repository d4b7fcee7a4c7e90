"""plotlybridge — NetworKit's graph→Plotly adapter (paper §V-A, Listing 1).

``plotly_widget(G, scores)`` reproduces the paper's ``plotlyWidget``
function verbatim in structure: compute a Maxent-Stress 3-D layout, build
one ``Scatter3d`` for nodes (2-D circle shapes) and one for edges (2-D
lines with None separators), stack them into a ``FigureWidget``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..graphkit.csr import CSRGraph
from ..graphkit.graph import Graph
from ..graphkit.layout import maxent_stress_layout
from .figure import FigureWidget, Layout
from .palettes import SPECTRAL, labels_to_colors, scores_to_colors
from .traces import Line, Marker, Scatter3d

__all__ = ["edge_coordinates", "graph_traces", "plotly_widget", "plotlyWidget"]


def edge_coordinates(
    g: Graph | CSRGraph, coords: np.ndarray
) -> tuple[list, list, list]:
    """Edge line coordinates with None separators (plotly convention).

    One ``[a, b, None]`` triple per edge of ``g.edge_array()``, per axis.
    """
    edges = g.edge_array()
    lines = np.empty((len(edges), 3), dtype=object)  # column 2 stays None
    out = []
    for axis in range(3):
        lines[:, :2] = coords[edges, axis]
        out.append(lines.ravel().tolist())
    return out[0], out[1], out[2]


def graph_traces(
    g: Graph | CSRGraph,
    coords: np.ndarray,
    *,
    scores: np.ndarray | None = None,
    colors: Sequence[str] | None = None,
    categorical: bool = False,
    node_text: Sequence[str] | None = None,
    node_size: float = 6.0,
    palette: Sequence[str] = SPECTRAL,
) -> tuple[Scatter3d, Scatter3d]:
    """Build the (node, edge) Scatter3d pair for a graph embedding.

    ``colors`` are per-node marker colours already mapped from
    ``scores`` (the pipeline maps once per event for both figures);
    when omitted they are mapped here. ``coords`` must be a finite
    ``(n, 3)`` array and ``scores`` an ``(n,)`` vector, else
    ``ValueError``.
    """
    n = g.number_of_nodes()
    coords = np.asarray(coords, dtype=float)
    if coords.shape != (n, 3):
        raise ValueError(f"coords must be ({n}, 3), got {coords.shape}")
    if not np.isfinite(coords).all():
        raise ValueError("coords must be finite")
    if scores is not None:
        scores = np.asarray(scores, dtype=float)
        if scores.shape != (n,):
            raise ValueError(
                f"scores must have shape ({n},), got {scores.shape}"
            )
    if colors is not None:
        if len(colors) != n:
            raise ValueError(f"colors must have {n} entries, got {len(colors)}")
        colors = list(colors)
    elif scores is None:
        colors = "#3288bd"
    elif categorical:
        colors = labels_to_colors(scores)
    else:
        colors = scores_to_colors(scores, palette=palette)
    if node_text is None:
        if scores is not None:
            node_text = [
                f"node {u}: {s:.4g}" for u, s in enumerate(scores.tolist())
            ]
        else:
            node_text = [f"node {u}" for u in range(n)]
    node_trace = Scatter3d(
        x=coords[:, 0],
        y=coords[:, 1],
        z=coords[:, 2],
        mode="markers",
        name="nodes",
        text=list(node_text),
        marker=Marker(size=node_size, color=colors),
    )
    ex, ey, ez = edge_coordinates(g, coords)
    edge_trace = Scatter3d(
        x=ex,
        y=ey,
        z=ez,
        mode="lines",
        name="edges",
        hoverinfo="text",
        line=Line(width=1.2, color="#999999"),
    )
    return node_trace, edge_trace


def plotly_widget(
    g: Graph,
    scores: np.ndarray | Sequence[float] | None = None,
    *,
    dim: int = 3,
    k: int = 3,
    coords: np.ndarray | None = None,
    categorical: bool = False,
    title: str = "",
    seed: int | None = 42,
) -> FigureWidget:
    """Paper Listing 1: graph + node scores → interactive 3-D figure.

    When ``coords`` is None the Maxent-Stress layout is computed exactly
    like the paper's line 6-8 (``nk.viz.MaxentStress(G, 3, 3)``).
    """
    if coords is None:
        coords = maxent_stress_layout(g, dim=dim, k=k, seed=seed)
    fig = FigureWidget(Layout(title=title))
    node_trace, edge_trace = graph_traces(
        g, coords, scores=scores, categorical=categorical
    )
    fig.add_traces(node_trace, edge_trace)
    return fig


def plotlyWidget(g: Graph, scores=None, **kwargs) -> FigureWidget:  # noqa: N802
    """Paper-spelled alias of :func:`plotly_widget`."""
    return plotly_widget(g, scores, **kwargs)
