"""repro.vizbridge — headless plotly-compatible visualization layer.

Replaces the Plotly/ipywidgets browser stack with a dependency-free object
model that serializes to the plotly JSON schema: figures, traces and
in-place updates keep plotly's names and data layout, while the
browser's rendering cost is modeled (``core.client``), not measured.
Includes the paper's two widgets (§V-A): the ``plotlybridge`` adapter of
Listing 1 and the 2-D ``csbridge`` (Cytoscape.js) adapter, both placed
by Maxent-Stress, plus a Gephi streaming-protocol client.
"""

from .bridge import graph_traces, plotly_widget, plotlyWidget
from .csbridge import CytoscapeWidget, cytoscape_widget
from .figure import FigureWidget, Layout, UpdateStats
from .gephi import GephiStreamingClient, GephiWorkspace
from .palettes import (
    CATEGORICAL,
    SPECTRAL,
    VIRIDIS,
    interpolate_palette,
    labels_to_colors,
    scores_to_colors,
)
from .serialize import estimate_payload_bytes, figure_from_dict_roundtrip, figure_to_json
from .traces import Line, Marker, Scatter, Scatter3d

__all__ = [
    "FigureWidget",
    "Layout",
    "UpdateStats",
    "CytoscapeWidget",
    "cytoscape_widget",
    "Scatter3d",
    "Scatter",
    "Marker",
    "Line",
    "plotly_widget",
    "plotlyWidget",
    "graph_traces",
    "GephiStreamingClient",
    "GephiWorkspace",
    "SPECTRAL",
    "VIRIDIS",
    "CATEGORICAL",
    "interpolate_palette",
    "scores_to_colors",
    "labels_to_colors",
    "figure_to_json",
    "figure_from_dict_roundtrip",
    "estimate_payload_bytes",
]
