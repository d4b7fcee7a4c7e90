"""Unit tests for the csbridge (Cytoscape.js 2-D) adapter."""

import json

import numpy as np
import pytest

from repro.graphkit import Graph
from repro.graphkit.layout import maxent_stress_layout
from repro.vizbridge import cytoscape_widget


@pytest.fixture(params=["karate", "two_triangles", "single", "empty"])
def graph(request):
    """The default-layout inputs, down to the degenerate graphs."""
    if request.param == "single":
        return Graph(1)
    if request.param == "empty":
        return Graph(0)
    return request.getfixturevalue(request.param)


def _positions(w):
    return np.array([[n["position"]["x"], n["position"]["y"]] for n in w.nodes])


class TestCytoscapeWidget:
    def test_element_counts(self, karate):
        w = cytoscape_widget(karate)
        assert len(w.nodes) == karate.number_of_nodes()
        assert len(w.edges) == karate.number_of_edges()

    @pytest.mark.parametrize("seed", [42, 7])
    def test_default_positions_are_maxent_2d(self, graph, seed):
        # csbridge shares the 3-D widget's layout family: its preset
        # positions are the 2-D Maxent-Stress layout, scaled by 500.
        n = graph.number_of_nodes()
        w = cytoscape_widget(graph, seed=seed)
        assert (len(w.nodes), len(w.edges)) == (n, graph.number_of_edges())
        positions = _positions(w).reshape(n, 2)
        expected = maxent_stress_layout(graph, dim=2, seed=seed) * 500
        assert np.array_equal(positions, expected)
        assert np.isfinite(positions).all()

    def test_json_schema(self, karate):
        payload = cytoscape_widget(karate).to_json()
        json.dumps(payload)  # serializable
        assert payload["layout"]["name"] == "preset"
        node = payload["elements"][0]
        assert node["group"] == "nodes"
        assert "position" in node
        assert "id" in node["data"]

    def test_edges_reference_nodes(self, two_triangles):
        w = cytoscape_widget(two_triangles)
        node_ids = {n["data"]["id"] for n in w.nodes}
        for e in w.edges:
            assert e["data"]["source"] in node_ids
            assert e["data"]["target"] in node_ids

    def test_scores_color_nodes(self, karate):
        scores = np.arange(float(karate.number_of_nodes()))
        w = cytoscape_widget(karate, scores)
        colors = {n["data"]["color"] for n in w.nodes}
        assert len(colors) > 5
        assert w.nodes[0]["data"]["score"] == 0.0

    def test_categorical_scores(self, karate):
        labels = np.zeros(karate.number_of_nodes())
        labels[:10] = 1
        w = cytoscape_widget(karate, labels, categorical=True)
        colors = {n["data"]["color"] for n in w.nodes}
        assert len(colors) == 2

    def test_explicit_coords(self, triangle):
        coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        w = cytoscape_widget(triangle, coords=coords)
        assert w.nodes[1]["position"]["x"] == 500.0

    def test_shape_validation(self, triangle):
        with pytest.raises(ValueError):
            cytoscape_widget(triangle, coords=np.zeros((2, 2)))
        with pytest.raises(ValueError):
            cytoscape_widget(triangle, np.zeros(5))

    def test_set_scores_recolors(self, karate):
        n = karate.number_of_nodes()
        w = cytoscape_widget(karate, np.zeros(n))
        before = [node["data"]["color"] for node in w.nodes]
        w.set_scores(np.arange(float(n)))
        after = [node["data"]["color"] for node in w.nodes]
        assert before != after

    def test_set_scores_length_checked(self, karate):
        w = cytoscape_widget(karate)
        with pytest.raises(ValueError):
            w.set_scores([1.0, 2.0])
