"""Unit tests for the benchmark harness (quick configurations)."""

import pytest

from repro.bench import (
    FIG4_GRAPH_SIZE,
    PAPER_HIGH_CUTOFF,
    PAPER_LOW_CUTOFF,
    PAPER_PROTEINS,
    fig4_graph,
    format_paper_comparison,
    format_table,
    layout_scale_graph,
    make_pipeline,
    protein_trajectory,
    run_cloud_stability,
    run_fig3,
    run_fig4,
    run_fig5,
    run_fig6,
    run_fig7,
    run_fig8,
)


class TestWorkloads:
    def test_trajectory_cached(self):
        a = protein_trajectory("2JOF", 8)
        b = protein_trajectory("2JOF", 8)
        assert a is b

    def test_fig4_graph_size(self):
        g = fig4_graph()
        assert g.number_of_nodes() == FIG4_GRAPH_SIZE
        assert abs(g.number_of_edges() - 6594) <= 66

    def test_layout_scale_graph_sparse(self):
        g = layout_scale_graph(2000)
        mean_degree = 2 * g.number_of_edges() / 2000
        assert mean_degree < 6

    def test_make_pipeline(self):
        pipeline = make_pipeline("2JOF", 4.5)
        assert pipeline.rin.csr.number_of_nodes() == 20


class TestReporting:
    def test_format_table(self):
        text = format_table(["a", "bb"], [[1, 2], [30, 4]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_format_table_empty(self):
        text = format_table(["x"], [])
        assert "x" in text

    def test_paper_comparison(self):
        line = format_paper_comparison("edge update", 2.0, 1.0)
        assert "2.00" in line and "ratio 2.00x" in line
        assert "no paper reference" in format_paper_comparison("x", 1.0, None)


class TestFigureRunners:
    def test_fig3(self):
        result = run_fig3()
        assert result.nodes == 73
        assert result.n_helices == 3
        # A handful of communities for three helices (+ termini).
        assert 3 <= result.n_communities <= 8
        assert 0 <= result.nmi <= 1
        # The figure the widget ships to the browser serializes.
        assert result.figure_payload_bytes > 1000
        assert "Figure 3" in result.table()

    def test_fig4_quick(self):
        result = run_fig4(sizes=(500,))
        assert len(result.rows) == 1
        assert result.rows[0].total_seconds > 0
        assert "Figure 4" in result.table()

    def test_fig5(self):
        info = run_fig5()
        assert info["nodes"] == 73
        assert info["plots"] == [
            "Layout: Protein-based",
            "Layout: Maxent-Stress",
        ]
        for control in ("Trajectory", "Edge Distance cut-off (Å)",
                        "Graph Measure", "Recompute"):
            assert control in info["controls"]
        # Fig. 5 caption: 73 nodes / 389 edges at 4.5 Å; the synthetic
        # A3D lands in the same band.
        assert 389 / 2 <= info["edges"] <= 389 * 2

    def test_fig6_quick(self):
        result = run_fig6(proteins=("2JOF",), cutoffs=(3.0,), repeats=1)
        assert len(result.rows) == 7  # the seven paper measures
        # Every measure switch carries a modeled client share.
        for row in result.rows:
            assert row.total_ms > row.networkit_ms
        assert result.cell("2JOF", "Degree Centrality", 3.0) in result.rows
        with pytest.raises(KeyError):
            result.cell("2JOF", "Nope", 3.0)

    def test_fig7_quick(self):
        result = run_fig7(proteins=("2JOF",), cutoffs=(3.0, 6.0, 10.0))
        assert len(result.rows) == 3
        edges = [r.edges for r in result.rows]
        # Strictly monotone in the cut-off: every row changed edges.
        assert edges == sorted(set(edges))

    def test_fig8_quick(self):
        result = run_fig8(proteins=("2JOF",), cutoffs=(3.0,), frames=3)
        assert len(result.rows) == 1
        assert result.rows[0].total_ms > 0

    def test_cloud_quick(self):
        result = run_cloud_stability((1, 2), workers=2)
        assert [r.pods_running for r in result.rows] == [1, 2]


class TestShapeProperties:
    """The paper's Fig. 6-8 shape claims, verified at test speed."""

    def test_degree_cheaper_than_betweenness(self):
        result = run_fig6(proteins=("NTL9",), cutoffs=(10.0,), repeats=2)
        deg = result.cell("NTL9", "Degree Centrality", 10.0).networkit_ms
        bet = result.cell("NTL9", "Betweenness Centrality", 10.0).networkit_ms
        assert deg < bet

    def test_layout_dominates_cutoff_switch(self):
        result = run_fig7(proteins=("2JOF",), cutoffs=(4.0, 8.0))
        for row in result.rows:
            assert row.layout_ms > row.edge_update_ms

    def test_fig8_totals_exceed_networkit(self):
        result = run_fig8(proteins=("2JOF",), cutoffs=(3.0,), frames=3)
        for row in result.rows:
            assert row.total_ms > row.networkit_ms


class TestModeledClientShare:
    """Figs. 7-8 client-side claims on the modeled DOM cost, which counts
    updated elements and so does not depend on the host."""

    @pytest.mark.parametrize("protein", PAPER_PROTEINS)
    def test_frame_switch_updates_more_than_cutoff_switch(self, protein):
        pipeline = make_pipeline(protein, PAPER_HIGH_CUTOFF)
        t_cut = pipeline.switch_cutoff(9.0)
        assert t_cut.client_ms > 10.0  # Fig. 7f: non-trivial DOM work
        pipeline.switch_cutoff(PAPER_HIGH_CUTOFF)
        t_frame = pipeline.switch_frame(1)
        # Fig. 8 vs 7: a frame switch moves every element, not just edges.
        assert t_frame.client_ms > t_cut.client_ms
        # Fig. 8g vs 8h: more edges, more DOM work per frame switch.
        low = make_pipeline(protein, PAPER_LOW_CUTOFF)
        assert t_frame.client_ms > low.switch_frame(1).client_ms

    def test_worst_case_is_frame_switch_with_measure(self):
        # The paper's maximum: a frame change with a measure selected
        # runs every update function, the measure included.
        pipeline = make_pipeline(
            "A3D", PAPER_HIGH_CUTOFF, measure="Betweenness Centrality"
        )
        t_measure = pipeline.switch_measure("Betweenness Centrality")
        t_frame = pipeline.switch_frame(1)
        assert t_frame.client_ms > t_measure.client_ms
        assert t_frame.measure_ms > 0
