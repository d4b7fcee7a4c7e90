"""The vectorized figure-building path against its per-node/per-edge loops.

``interpolate_palette`` packs each blended colour into one integer and
formats it with ``"#%06x"``; ``edge_coordinates`` gathers
``coords[g.edge_array()]`` once. The loops they replaced are kept here,
verbatim, as oracles: every output must equal theirs exactly.
"""

import numpy as np
import pytest

from repro.graphkit import Graph
from repro.graphkit.generators import erdos_renyi
from repro.vizbridge import (
    CATEGORICAL,
    SPECTRAL,
    VIRIDIS,
    graph_traces,
    interpolate_palette,
    scores_to_colors,
)
from repro.vizbridge.bridge import edge_coordinates
from repro.vizbridge.palettes import _hex_to_rgb

PALETTES = {"spectral": SPECTRAL, "viridis": VIRIDIS, "categorical": CATEGORICAL}


# ----------------------------------------------------------------------
# oracles: the per-node and per-edge loops of the original implementation
# ----------------------------------------------------------------------
def _oracle_rgb_to_hex(rgb):
    clipped = np.clip(np.round(rgb), 0, 255).astype(int)
    return "#{:02x}{:02x}{:02x}".format(*clipped)


def _oracle_interpolate_palette(palette, t):
    t = np.clip(np.asarray(t, dtype=float), 0.0, 1.0)
    anchors = np.array([_hex_to_rgb(c) for c in palette])
    k = len(anchors) - 1
    pos = t * k
    low = np.floor(pos).astype(int)
    low = np.minimum(low, k - 1)
    frac = (pos - low)[:, None]
    blended = anchors[low] * (1 - frac) + anchors[low + 1] * frac
    return [_oracle_rgb_to_hex(c) for c in blended]


def _oracle_scores_to_colors(scores, *, palette=SPECTRAL, vmin=None, vmax=None):
    scores = np.asarray(scores, dtype=float)
    lo = float(scores.min()) if vmin is None else float(vmin)
    hi = float(scores.max()) if vmax is None else float(vmax)
    if hi - lo < 1e-15:
        t = np.full(len(scores), 0.5)
    else:
        t = (scores - lo) / (hi - lo)
    return _oracle_interpolate_palette(palette, t)


def _oracle_edge_coordinates(g, coords):
    xs, ys, zs = [], [], []
    for u, v in g.iter_edges():
        xs.extend((coords[u, 0], coords[v, 0], None))
        ys.extend((coords[u, 1], coords[v, 1], None))
        zs.extend((coords[u, 2], coords[v, 2], None))
    return xs, ys, zs


# ----------------------------------------------------------------------
class TestColoursMatchOracle:
    @pytest.mark.parametrize("name", sorted(PALETTES))
    def test_random_scores(self, name):
        palette = PALETTES[name]
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(1, 120))
            scores = rng.normal(scale=10.0 ** rng.integers(-3, 4), size=n)
            assert scores_to_colors(scores, palette=palette) == (
                _oracle_scores_to_colors(scores, palette=palette)
            )

    @pytest.mark.parametrize("name", sorted(PALETTES))
    def test_constant_scores(self, name):
        palette = PALETTES[name]
        for value in (0.0, 1.0, -3.5, 1e9):
            scores = np.full(9, value)
            assert scores_to_colors(scores, palette=palette) == (
                _oracle_scores_to_colors(scores, palette=palette)
            )

    @pytest.mark.parametrize("name", sorted(PALETTES))
    def test_out_of_range_scores_clamp_like_the_oracle(self, name):
        palette = PALETTES[name]
        scores = np.random.default_rng(5).uniform(-10.0, 20.0, size=300)
        kwargs = dict(palette=palette, vmin=0.0, vmax=10.0)
        assert scores_to_colors(scores, **kwargs) == (
            _oracle_scores_to_colors(scores, **kwargs)
        )
        t = np.array([-np.inf, -2.0, -1e-12, 1.0 + 1e-12, 7.0, np.inf])
        assert interpolate_palette(palette, t) == (
            _oracle_interpolate_palette(palette, t)
        )

    def test_half_rounding_ties(self):
        # Anchors 0 and 128 at dyadic positions (2k+1)/256 blend to exactly
        # k + 0.5 in every channel: numpy rounds those half to even.
        palette = ("#000000", "#808080")
        t = (2 * np.arange(128) + 1) / 256
        blended = 128 * t
        assert np.array_equal(blended % 1.0, np.full(128, 0.5))
        colors = interpolate_palette(palette, t)
        assert colors == _oracle_interpolate_palette(palette, t)
        assert colors[:3] == ["#000000", "#020202", "#020202"]

    @pytest.mark.parametrize("name", sorted(PALETTES))
    def test_anchor_positions_hit_the_anchors(self, name):
        palette = PALETTES[name]
        t = np.linspace(0.0, 1.0, len(palette))
        assert interpolate_palette(palette, t) == list(palette)
        assert interpolate_palette(palette, t) == (
            _oracle_interpolate_palette(palette, t)
        )

    def test_empty_positions(self):
        assert interpolate_palette(SPECTRAL, np.empty(0)) == []


class TestNonFiniteScores:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_scores_to_colors_rejects(self, bad):
        scores = np.array([0.0, 1.0, bad, 2.0])
        with pytest.raises(ValueError, match="finite.*index 2"):
            scores_to_colors(scores)
        with pytest.raises(ValueError, match="finite"):
            scores_to_colors(scores, vmin=0.0, vmax=1.0)

    def test_interpolate_palette_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            interpolate_palette(SPECTRAL, np.array([0.2, np.nan]))

    def test_graph_traces_rejects_non_finite_scores(self, path4):
        with pytest.raises(ValueError, match="finite"):
            graph_traces(
                path4, np.zeros((4, 3)), scores=np.array([0.0, np.nan, 1, 2])
            )


# ----------------------------------------------------------------------
def _random_graphs():
    rng = np.random.default_rng(23)
    for _ in range(60):
        n = int(rng.integers(2, 60))
        p = float(rng.uniform(0.0, 0.4))
        yield erdos_renyi(n, p, seed=int(rng.integers(1 << 30)))


class TestEdgeCoordinatesMatchOracle:
    def test_random_graph_and_csr(self):
        rng = np.random.default_rng(3)
        for g in _random_graphs():
            coords = rng.normal(size=(g.number_of_nodes(), 3))
            want = _oracle_edge_coordinates(g, coords)
            assert edge_coordinates(g, coords) == want
            assert edge_coordinates(g.csr(), coords) == want

    def test_directed_graph(self):
        g = Graph.from_edges(5, [(0, 1), (1, 0), (3, 2), (4, 0)], directed=True)
        coords = np.arange(15.0).reshape(5, 3)
        want = _oracle_edge_coordinates(g, coords)
        assert edge_coordinates(g, coords) == want
        assert edge_coordinates(g.csr(), coords) == want

    @pytest.mark.parametrize("n", [0, 1, 6])
    def test_edgeless_graphs(self, n):
        g = Graph(n)
        coords = np.ones((n, 3))
        assert edge_coordinates(g, coords) == ([], [], [])
        assert edge_coordinates(g.csr(), coords) == ([], [], [])

    def test_separators_are_none(self, triangle):
        xs, _, _ = edge_coordinates(triangle, np.eye(3))
        assert xs[2::3] == [None] * 3
        assert all(isinstance(v, float) for i, v in enumerate(xs) if i % 3 != 2)


class TestGraphTraces:
    def test_traces_match_oracle_build(self, karate):
        rng = np.random.default_rng(8)
        coords = rng.normal(size=(karate.number_of_nodes(), 3))
        scores = rng.uniform(size=karate.number_of_nodes())
        nodes, edges = graph_traces(karate.csr(), coords, scores=scores)
        assert nodes.marker.color == _oracle_scores_to_colors(scores)
        assert nodes.text == [f"node {u}: {scores[u]:.4g}" for u in range(34)]
        assert (edges.x, edges.y, edges.z) == _oracle_edge_coordinates(
            karate, coords
        )

    def test_given_colors_equal_mapped_colors(self, karate):
        coords = np.random.default_rng(1).normal(size=(34, 3))
        scores = np.arange(34.0)
        mapped = graph_traces(karate, coords, scores=scores)
        colors = scores_to_colors(scores)
        given = graph_traces(karate, coords, scores=scores, colors=colors)
        assert [t.to_dict() for t in given] == [t.to_dict() for t in mapped]
        # The trace owns its colour list: restyling it leaves the input.
        given[0].marker.color[0] = "#000000"
        assert colors == scores_to_colors(scores)

    def test_colors_length_checked(self, path4):
        with pytest.raises(ValueError, match="colors must have 4"):
            graph_traces(path4, np.zeros((4, 3)), colors=["#000000"] * 3)

    @pytest.mark.parametrize("n_scores", [3, 7])
    def test_scores_shape_checked(self, path4, n_scores):
        with pytest.raises(ValueError, match=r"scores must have shape \(4,\)"):
            graph_traces(path4, np.zeros((4, 3)), scores=np.zeros(n_scores))

    def test_scores_shape_checked_categorical(self, path4):
        with pytest.raises(ValueError, match="scores must have shape"):
            graph_traces(
                path4, np.zeros((4, 3)), scores=np.zeros(7), categorical=True
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_coords_must_be_finite(self, path4, bad):
        coords = np.zeros((4, 3))
        coords[2, 1] = bad
        with pytest.raises(ValueError, match="coords must be finite"):
            graph_traces(path4, coords)
