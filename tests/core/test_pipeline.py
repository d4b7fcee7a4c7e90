"""Unit tests for the update pipeline and client cost model."""

import numpy as np
import pytest

from repro.core import (
    ClientCostModel,
    ClientSimulator,
    EventKind,
    UpdatePipeline,
)
from repro.rin import DynamicRIN, build_rin
from repro.rin.measures import MEASURES, register_measure
from repro.vizbridge.figure import UpdateStats


@pytest.fixture
def pipeline(a3d_traj):
    rin = DynamicRIN(a3d_traj, frame=0, cutoff=4.5)
    return UpdatePipeline(rin, measure="Degree Centrality")


class TestClientCostModel:
    def test_price_linear(self):
        model = ClientCostModel(
            base_ms=1.0,
            node_restyle_ms=0.1,
            node_move_ms=0.2,
            edge_move_ms=0.3,
            trace_rebuild_ms=10.0,
            element_rebuild_ms=0.5,
        )
        stats = UpdateStats(
            nodes_restyled=10,
            nodes_moved=5,
            edges_moved=2,
            trace_rebuilds=1,
            elements_rebuilt=4,
        )
        assert model.price(stats) == pytest.approx(1 + 1 + 1 + 0.6 + 10 + 2)

    def test_payload_cost(self):
        model = ClientCostModel(bytes_per_ms=1000.0)
        assert model.price(UpdateStats(), payload_bytes=2000) == pytest.approx(
            model.base_ms + 2.0
        )

    def test_simulator_merges_figures(self):
        from repro.vizbridge import FigureWidget, Scatter3d

        sim = ClientSimulator()
        a, b = FigureWidget(), FigureWidget()
        a.add_traces(Scatter3d(x=[0], y=[0], z=[0]))
        b.add_traces(Scatter3d(x=[0, 1], y=[0, 1], z=[0, 1]))
        sim.attach(a, b)
        sim.reset()
        a.restyle_colors(0, ["#fff111"])
        b.restyle_colors(0, ["#fff111", "#000999"])
        assert sim.collected_stats().nodes_restyled == 3
        assert sim.simulated_ms() > 0


class TestPipelineState:
    def test_initial_figures_populated(self, pipeline):
        g = pipeline.rin.csr
        assert pipeline.protein_figure.trace(0).n_points == 73
        assert pipeline.maxent_figure.trace(1).n_elements() == g.number_of_edges()

    def test_scores_available(self, pipeline):
        assert pipeline.scores.shape == (73,)

    def test_protein_positions_are_ca(self, pipeline, a3d_traj):
        ca = a3d_traj.ca_coordinates(0)
        nodes = pipeline.protein_figure.trace(0)
        assert np.allclose(nodes.x, ca[:, 0])


class TestMeasureSwitch:
    def test_recolors_only(self, pipeline):
        timing = pipeline.switch_measure("Closeness Centrality")
        assert timing.kind is EventKind.MEASURE_SWITCH
        stats = pipeline.client.collected_stats()
        assert stats.nodes_restyled == 2 * 73  # both plots
        assert stats.nodes_moved == 0
        assert stats.trace_rebuilds == 0

    def test_layout_not_recomputed(self, pipeline):
        before = pipeline.maxent_coordinates.copy()
        timing = pipeline.switch_measure("Katz Centrality")
        assert np.array_equal(pipeline.maxent_coordinates, before)
        assert timing.layout_ms == 0.0
        assert timing.edge_update_ms == 0.0

    def test_scores_change(self, pipeline):
        degree_scores = pipeline.scores.copy()
        pipeline.switch_measure("Betweenness Centrality")
        assert not np.allclose(pipeline.scores, degree_scores)

    def test_weighted_measure_event(self, pipeline):
        # The registry's delta-stepping-backed weighted extras are
        # reachable from the interaction path like any Figure 6 measure.
        timing = pipeline.switch_measure("Weighted Closeness Centrality")
        assert timing.kind is EventKind.MEASURE_SWITCH
        assert np.isfinite(pipeline.scores).all()

    def test_community_measure_colors_categorical(self, pipeline):
        pipeline.switch_measure("PLM Community Detection")
        colors = pipeline.protein_figure.trace(0).marker.color
        from repro.vizbridge import CATEGORICAL

        assert set(colors) <= set(CATEGORICAL)


class TestCutoffSwitch:
    def test_edge_diff_applied(self, pipeline):
        timing = pipeline.switch_cutoff(7.0)
        assert timing.kind is EventKind.CUTOFF_SWITCH
        assert timing.edges_changed > 0
        assert timing.edges_after == pipeline.rin.csr.number_of_edges()

    def test_protein_plot_edges_only(self, pipeline):
        pipeline.client.reset()
        pipeline.switch_cutoff(8.0)
        stats = pipeline.client.collected_stats()
        # Maxent plot rebuilds (2 traces); protein plot moves edges+recolor.
        assert stats.trace_rebuilds == 2
        assert stats.edges_moved > 0
        assert stats.nodes_moved == 0

    def test_graph_matches_reference(self, pipeline, a3d_traj):
        pipeline.switch_cutoff(6.5)
        ref = build_rin(a3d_traj.topology, a3d_traj.frame(0), 6.5)
        assert pipeline.rin.csr.edge_set() == ref.edge_set()

    def test_timing_components_nonnegative(self, pipeline):
        t = pipeline.switch_cutoff(9.0)
        assert t.edge_update_ms >= 0
        assert t.layout_ms > 0
        assert t.measure_ms >= 0
        assert t.total_ms >= t.server_ms

    def test_layout_recomputed(self, pipeline):
        before = pipeline.maxent_coordinates.copy()
        pipeline.switch_cutoff(9.5)
        assert pipeline.maxent_coordinates.shape == before.shape
        assert not np.array_equal(pipeline.maxent_coordinates, before)


class TestBadSliderInput:
    def test_nan_cutoff_raises(self, pipeline):
        edges = pipeline.rin.csr.edge_set()
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="positive"):
                pipeline.switch_cutoff(bad)
        assert pipeline.rin.cutoff == 4.5
        assert pipeline.rin.csr.edge_set() == edges

    @pytest.mark.parametrize(
        "event",
        [
            {"cutoff": float("nan")},
            {"cutoff": float("inf")},
            {"frame": 12},
            {"measure": "Betweenness Centrality", "cutoff": float("nan")},
        ],
    )
    def test_rejected_event_leaves_no_layout_debt(self, pipeline, event):
        with pytest.raises((ValueError, IndexError)):
            pipeline.apply_event(**event)
        assert pipeline.measure.name == "Degree Centrality"  # nothing moved
        pipeline.client.reset()
        timing = pipeline.switch_measure("Closeness Centrality")
        assert timing.layout_ms == 0
        # A recolour only: no figure was rebuilt.
        assert pipeline.client.collected_stats().trace_rebuilds == 0

    def test_negative_frame_raises(self, pipeline):
        with pytest.raises(IndexError, match=r"out of range \[0, 12\)"):
            pipeline.switch_frame(-1)
        assert pipeline.rin.frame == 0

    def test_session_continues_after_rejected_input(self, pipeline):
        with pytest.raises(ValueError):
            pipeline.switch_cutoff(float("nan"))
        timing = pipeline.switch_frame(3)
        assert timing.kind is EventKind.FRAME_SWITCH
        assert pipeline.rin.frame == 3


    def test_failed_measure_switch_keeps_previous_measure(self, trp_traj):
        def broken(g):
            raise ValueError("broken measure")

        register_measure("Broken Sync Measure", broken, overwrite=True)
        try:
            pipe = UpdatePipeline(
                DynamicRIN(trp_traj, frame=0, cutoff=4.5),
                measure="Degree Centrality",
            )
            scores = pipe.scores.copy()
            with pytest.raises(ValueError, match="broken measure"):
                pipe.switch_measure("Broken Sync Measure")
        finally:
            MEASURES.pop("Broken Sync Measure", None)
        assert pipe.measure.name == "Degree Centrality"
        assert np.array_equal(pipe.scores, scores)
        timing = pipe.switch_frame(2)
        assert timing.kind is EventKind.FRAME_SWITCH
        assert pipe.rin.frame == 2
        assert pipe.measure.name == "Degree Centrality"


class TestFrameSwitch:
    def test_both_plots_rebuild(self, pipeline):
        pipeline.client.reset()
        timing = pipeline.switch_frame(3)
        stats = pipeline.client.collected_stats()
        assert stats.trace_rebuilds == 4  # 2 plots × (nodes + edges)
        assert timing.kind is EventKind.FRAME_SWITCH

    def test_protein_positions_follow(self, pipeline, a3d_traj):
        pipeline.switch_frame(5)
        ca = a3d_traj.ca_coordinates(5)
        assert np.allclose(pipeline.protein_figure.trace(0).x, ca[:, 0])

    def test_frame_switch_costs_more_client_than_cutoff(self, pipeline):
        t_cut = pipeline.switch_cutoff(10.0)
        t_frame = pipeline.switch_frame(4)
        # Paper: frame switch updates all DOM elements (≈+200 ms) vs the
        # edge-only cutoff update (≈+100 ms).
        assert t_frame.client_ms > t_cut.client_ms


class TestFullRender:
    def test_full_render_counts(self, pipeline):
        t = pipeline.full_render()
        assert t.kind is EventKind.FULL_RENDER
        stats = pipeline.client.collected_stats()
        assert stats.trace_rebuilds == 4
