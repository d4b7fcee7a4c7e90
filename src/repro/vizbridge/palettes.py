"""Color palettes and score→color mapping.

The paper's widget colors nodes "with a spectral color palette (blue -
red), whereas each color is defined by the Closeness-value of the node"
(Fig. 5 caption); community measures use a categorical palette.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "SPECTRAL",
    "VIRIDIS",
    "CATEGORICAL",
    "interpolate_palette",
    "scores_to_colors",
    "labels_to_colors",
]

#: Blue→red spectral ramp (matplotlib 'Spectral' reversed, 7 anchors).
SPECTRAL: tuple[str, ...] = (
    "#3288bd",
    "#66c2a5",
    "#abdda4",
    "#e6f598",
    "#fdae61",
    "#f46d43",
    "#d53e4f",
)

VIRIDIS: tuple[str, ...] = (
    "#440154",
    "#414487",
    "#2a788e",
    "#22a884",
    "#7ad151",
    "#fde725",
)

#: Distinct colors for categorical data (communities).
CATEGORICAL: tuple[str, ...] = (
    "#1f77b4",
    "#ff7f0e",
    "#2ca02c",
    "#d62728",
    "#9467bd",
    "#8c564b",
    "#e377c2",
    "#7f7f7f",
    "#bcbd22",
    "#17becf",
)


def _hex_to_rgb(color: str) -> np.ndarray:
    color = color.lstrip("#")
    if len(color) != 6:
        raise ValueError(f"expected #rrggbb, got {color!r}")
    return np.array([int(color[i : i + 2], 16) for i in (0, 2, 4)], dtype=float)


def interpolate_palette(palette: Sequence[str], t: np.ndarray) -> list[str]:
    """Sample a palette at positions ``t ∈ [0, 1]`` with linear blending.

    Out-of-range positions clamp to the end colours; NaN positions raise
    ``ValueError``.
    """
    t = np.asarray(t, dtype=float)
    if np.isnan(t).any():
        raise ValueError("palette positions must not be NaN")
    t = np.clip(t, 0.0, 1.0)
    anchors = np.array([_hex_to_rgb(c) for c in palette])
    k = len(anchors) - 1
    if k < 1:
        raise ValueError("palette needs at least two colors")
    pos = t * k
    low = np.floor(pos).astype(int)
    low = np.minimum(low, k - 1)
    frac = (pos - low)[:, None]
    blended = anchors[low] * (1 - frac) + anchors[low + 1] * frac
    rgb = np.clip(np.round(blended), 0, 255).astype(np.int64)
    packed = (rgb[:, 0] << 16) | (rgb[:, 1] << 8) | rgb[:, 2]
    return ["#%06x" % c for c in packed.tolist()]


def scores_to_colors(
    scores: np.ndarray,
    *,
    palette: Sequence[str] = SPECTRAL,
    vmin: float | None = None,
    vmax: float | None = None,
) -> list[str]:
    """Map continuous scores to palette colors (min→first, max→last).

    Constant score vectors map to the palette midpoint — this is what the
    widget shows when a measure is uniform (e.g. degree on a clique).
    NaN or infinite scores raise ``ValueError``.
    """
    scores = np.asarray(scores, dtype=float)
    bad = np.flatnonzero(~np.isfinite(scores))
    if len(bad):
        raise ValueError(
            f"scores must be finite; {len(bad)} non-finite value(s), "
            f"first at index {bad[0]}: {scores[bad[0]]}"
        )
    lo = float(scores.min()) if vmin is None else float(vmin)
    hi = float(scores.max()) if vmax is None else float(vmax)
    if hi - lo < 1e-15:
        t = np.full(len(scores), 0.5)
    else:
        t = (scores - lo) / (hi - lo)
    return interpolate_palette(palette, t)


def labels_to_colors(
    labels: np.ndarray, *, palette: Sequence[str] = CATEGORICAL
) -> list[str]:
    """Map categorical labels (community ids) to distinct colors.

    Labels beyond the palette cycle (communities > 10 wrap around).
    """
    labels = np.asarray(labels)
    if len(labels) and np.issubdtype(labels.dtype, np.floating):
        if not np.allclose(labels, np.round(labels)):
            raise ValueError("community labels must be integral")
        labels = np.round(labels).astype(int)
    return [palette[int(l) % len(palette)] for l in labels]
