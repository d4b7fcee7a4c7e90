"""Unit/integration tests for the RINWidget and RINExplorer."""

import numpy as np
import pytest

from repro.core import EventKind, RINExplorer, RINWidget, SessionScript
from repro.rin import PAPER_MEASURES, build_rin


@pytest.fixture
def widget(a3d_traj):
    return RINWidget(a3d_traj, cutoff=4.5, measure="Degree Centrality")


class TestWidgetConstruction:
    def test_figure5_components_present(self, widget):
        # Everything visible in the paper's Figure 5.
        assert widget.protein_figure.n_traces == 2
        assert widget.maxent_figure.n_traces == 2
        assert widget.frame_slider.description == "Trajectory"
        assert "cut-off" in widget.cutoff_slider.description
        assert widget.measure_slider.options[: len(PAPER_MEASURES)] == list(
            PAPER_MEASURES
        )
        assert widget.recompute_button.description == "Recompute"
        assert widget.auto_recompute.value is True
        assert widget.id_coloring.value is False

    def test_measure_slider_offers_the_paper_seven(self, widget):
        # The "Graph Measure" slider lists exactly Figure 6's measures,
        # in legend order.
        assert widget.measure_slider.description == "Graph Measure"
        assert list(widget.measure_slider.options) == list(PAPER_MEASURES)

    def test_initial_render_colors_by_closeness(self, a3d_traj):
        # Fig. 5: a spectral palette, each color set by the Closeness value.
        widget = RINWidget(a3d_traj, cutoff=4.5, measure="Closeness Centrality")
        colors = widget.protein_figure.trace(0).marker.color
        assert len(set(colors)) > 5  # a real gradient, not uniform

    def test_status_line(self, widget):
        line = widget.status_line()
        assert "Nodes: 73" in line
        assert "A3D" in line
        assert f"Edges: {widget.graph.number_of_edges()}" in line

    def test_slider_bounds_match_trajectory(self, widget, a3d_traj):
        assert widget.frame_slider.max == a3d_traj.n_frames - 1


class TestInteractions:
    def test_cutoff_slider_updates_graph(self, widget, a3d_traj):
        before = widget.graph.number_of_edges()
        widget.cutoff_slider.value = 8.0
        assert widget.graph.number_of_edges() > before
        ref = build_rin(a3d_traj.topology, a3d_traj.frame(0), 8.0)
        assert widget.graph.edge_set() == ref.edge_set()

    def test_frame_slider_updates_positions(self, widget, a3d_traj):
        widget.frame_slider.value = 6
        ca = a3d_traj.ca_coordinates(6)
        assert np.allclose(widget.protein_figure.trace(0).x, ca[:, 0])

    def test_measure_slider_recolors(self, widget):
        before = list(widget.protein_figure.trace(0).marker.color)
        widget.measure_slider.value = "Betweenness Centrality"
        after = widget.protein_figure.trace(0).marker.color
        assert before != after

    def test_events_logged(self, widget):
        widget.cutoff_slider.value = 6.0
        widget.frame_slider.value = 2
        widget.measure_slider.value = "Closeness Centrality"
        kinds = [t.kind for t in widget.log.entries]
        assert kinds == [
            EventKind.CUTOFF_SWITCH,
            EventKind.FRAME_SWITCH,
            EventKind.MEASURE_SWITCH,
        ]

    def test_last_timing(self, widget):
        with pytest.raises(RuntimeError):
            widget.last_timing()
        widget.cutoff_slider.value = 5.0
        assert widget.last_timing().kind is EventKind.CUTOFF_SWITCH


class TestManualRecompute:
    def test_deferred_until_button(self, widget, a3d_traj):
        widget.auto_recompute.value = False
        edges_before = widget.graph.number_of_edges()
        widget.cutoff_slider.value = 9.0
        widget.frame_slider.value = 3
        # Nothing applied yet.
        assert widget.graph.number_of_edges() == edges_before
        assert widget.pending_events == ["cutoff", "frame"]
        widget.recompute_button.click()
        ref = build_rin(a3d_traj.topology, a3d_traj.frame(3), 9.0)
        assert widget.graph.edge_set() == ref.edge_set()
        assert widget.pending_events == []

    def test_measure_also_deferred(self, widget):
        widget.auto_recompute.value = False
        widget.measure_slider.value = "Katz Centrality"
        assert widget.pipeline.measure.name == "Degree Centrality"
        widget.recompute_button.click()
        assert widget.pipeline.measure.name == "Katz Centrality"


class TestScoreBuffer:
    def test_delta_requires_interaction(self, widget):
        with pytest.raises(RuntimeError):
            widget.score_delta()

    def test_delta_after_cutoff_change(self, widget):
        scores_before = widget.scores.copy()
        widget.cutoff_slider.value = 9.0
        delta = widget.score_delta()
        assert np.allclose(delta, widget.scores - scores_before)
        assert np.abs(delta).max() > 0

    def test_delta_after_frame_change(self, widget):
        widget.frame_slider.value = 4
        assert widget.score_delta().shape == (73,)


class TestPerceivedPerformance:
    def test_measure_switch_supports_playback(self, widget):
        # Paper §V-B: measure switches are "suitable for fluent animation
        # or video playback (24 fps to 60 fps)" for cheap measures.
        for _ in range(2):
            widget.measure_slider.value = "Eigenvector Centrality"
            widget.measure_slider.value = "Degree Centrality"
        fps = widget.perceived_fps(EventKind.MEASURE_SWITCH)
        assert fps > 10  # Python server; paper's C++ reaches 24-60

    def test_total_exceeds_server(self, widget):
        widget.cutoff_slider.value = 7.0
        t = widget.last_timing()
        assert t.total_ms > t.server_ms > 0
        assert t.client_ms > 0


class TestRINExplorer:
    def test_replay_script(self):
        app = RINExplorer("2JOF", n_frames=6, seed=2)
        timings = app.replay(SessionScript.sweep_cutoffs([4.0, 6.0, 8.0]))
        assert len(timings) == 3
        assert all(t.kind is EventKind.CUTOFF_SWITCH for t in timings)

    def test_replay_measures(self):
        app = RINExplorer("2JOF", n_frames=4, seed=2)
        timings = app.replay(SessionScript.sweep_measures(PAPER_MEASURES[:3]))
        # First measure may equal the current one (no event); allow 2-3.
        assert len(timings) >= 2

    def test_summary(self):
        app = RINExplorer("2JOF", n_frames=4, seed=2)
        app.replay(SessionScript.sweep_frames([1, 2]))
        summary = app.summary()
        assert "frame" in summary
        assert summary["frame"] > 0

    def test_unknown_action(self):
        app = RINExplorer("2JOF", n_frames=4, seed=2)
        with pytest.raises(ValueError):
            app.replay(SessionScript((("explode", 1),)))

    def test_unknown_protein(self):
        with pytest.raises(KeyError):
            RINExplorer("NOPE", n_frames=4)
