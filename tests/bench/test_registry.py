"""Figure-registry tests: error paths, artifacts, CLI, legacy parity."""

from __future__ import annotations

import json

import pytest

from repro.bench import (
    PAPER_LOW_CUTOFF,
    QUICK_CUTOFFS,
    QUICK_FIG4_SIZES,
    QUICK_PROTEINS,
    REGISTRY,
    DuplicateFigureError,
    FigureBundle,
    FigureRegistry,
    Frame,
    MissingInputError,
    UnknownFigureError,
    bench_aggregates_frame,
    cloud_curve_frame,
    format_table,
    kernel_speedup_markdown,
    load_run_json,
    publication_layout,
    run_fig3,
    run_fig4,
    run_fig5,
    run_fig6,
    run_fig7,
    run_fig8,
    series_figure,
)
from repro.bench.figures import main as figures_main
from repro.bench.registry import BENCH_ARTIFACT, REPO_ROOT


def _scratch_registry(tmp_path) -> FigureRegistry:
    reg = FigureRegistry(artifacts_root=tmp_path)

    @reg.register("demo", title="Demo", section="BENCH demo")
    def _build_demo(ctx):
        frame = Frame({"n": [1, 2], "ms": [0.5, 0.9]})
        table = format_table(
            ["n", "ms"],
            [[r["n"], r["ms"]] for r in frame.rows()],
            title="Demo",
        )
        return FigureBundle(frame=frame, table=table)

    return reg


class TestRegistryContents:
    def test_at_least_ten_figures(self):
        assert len(REGISTRY) >= 10

    def test_paper_and_bench_sections_covered(self):
        sections = {spec.section for spec in REGISTRY.specs()}
        for fig in ("Fig. 3", "Fig. 4", "Fig. 5", "Fig. 6", "Fig. 7",
                    "Fig. 8"):
            assert fig in sections
        assert any(s.startswith("BENCH") for s in sections)

    def test_specs_fully_described(self):
        for spec in REGISTRY.specs():
            assert spec.title and spec.section and spec.description

    def test_bench_figures_declare_committed_artifact(self):
        for name in ("kernel_speedups", "layout_scale_50k",
                     "multi_session", "interactive_burst", "cloud_scale"):
            assert REGISTRY.get(name).inputs == (BENCH_ARTIFACT,)
        assert (REPO_ROOT / BENCH_ARTIFACT).is_file()

    def test_paper_figures_have_no_inputs(self):
        for name in ("fig3", "fig4", "fig5", "fig6", "fig7", "fig8"):
            assert REGISTRY.get(name).inputs == ()


class TestErrorPaths:
    def test_unknown_figure(self):
        with pytest.raises(UnknownFigureError, match="nope.*fig3"):
            REGISTRY.get("nope")
        with pytest.raises(UnknownFigureError):
            REGISTRY.bundle("nope")

    def test_duplicate_registration(self, tmp_path):
        reg = _scratch_registry(tmp_path)
        with pytest.raises(DuplicateFigureError, match="demo"):
            reg.register("demo", title="Again", section="x")(lambda ctx: None)

    def test_missing_input_artifact(self, tmp_path):
        with pytest.raises(MissingInputError, match=BENCH_ARTIFACT):
            REGISTRY.bundle("kernel_speedups", root=tmp_path)

    def test_missing_input_names_figure_and_path(self, tmp_path):
        with pytest.raises(MissingInputError, match="cloud_scale"):
            REGISTRY.build("cloud_scale", tmp_path, root=tmp_path)
        assert not (tmp_path / "cloud_scale.csv").exists()

    def test_out_directory_created_on_demand(self, tmp_path):
        out = tmp_path / "deep" / "nested" / "dir"
        assert not out.exists()
        paths = REGISTRY.build("kernel_speedups", out)
        assert out.is_dir()
        assert all(p.parent == out for p in paths)


class TestArtifacts:
    def test_build_writes_csv_txt_json(self, tmp_path):
        paths = REGISTRY.build("cloud_scale", tmp_path)
        names = [p.name for p in paths]
        assert names == ["cloud_scale.csv", "cloud_scale.txt",
                         "cloud_scale.json"]
        chart = json.loads((tmp_path / "cloud_scale.json").read_text())
        assert {"data", "layout"} <= set(chart)
        assert "sessions" in (tmp_path / "cloud_scale.csv").read_text()

    def test_fig5_is_table_only(self, tmp_path):
        paths = REGISTRY.build("fig5", tmp_path, quick=True)
        assert [p.name for p in paths] == ["fig5.csv", "fig5.txt"]

    def test_build_all_subset(self, tmp_path):
        written = REGISTRY.build_all(
            tmp_path, names=["kernel_speedups", "multi_session"]
        )
        assert set(written) == {"kernel_speedups", "multi_session"}

    def test_check_reports_no_failures(self):
        assert REGISTRY.check() == []

    def test_check_collects_failures_per_figure(self, tmp_path):
        reg = _scratch_registry(tmp_path)

        @reg.register("broken", title="B", section="x",
                      inputs=("MISSING.json",))
        def _build_broken(ctx):  # pragma: no cover - never reached
            raise AssertionError

        failures = reg.check()
        assert [name for name, _ in failures] == ["broken"]
        assert "MissingInputError" in failures[0][1]


#: figure → (its runner on the quick config, the frame columns the
#: registry must copy from the runner's rows, the chart's trace count).
RUNNER_PINS = {
    "fig4": (lambda: run_fig4(QUICK_FIG4_SIZES), ("nodes", "edges"), 3),
    "fig6": (
        lambda: run_fig6(
            proteins=QUICK_PROTEINS, cutoffs=(PAPER_LOW_CUTOFF,), repeats=1
        ),
        ("protein", "cutoff", "measure", "edges"),
        len(QUICK_PROTEINS),
    ),
    "fig7": (
        lambda: run_fig7(proteins=QUICK_PROTEINS, cutoffs=QUICK_CUTOFFS),
        ("protein", "cutoff", "edges"),
        len(QUICK_PROTEINS),
    ),
    "fig8": (
        lambda: run_fig8(
            proteins=QUICK_PROTEINS, cutoffs=(PAPER_LOW_CUTOFF,), frames=3
        ),
        ("protein", "cutoff", "mean_edges"),
        len(QUICK_PROTEINS),
    ),
}


class TestLegacyParity:
    """Registry output pinned against the legacy run_figN runners."""

    def test_fig3_matches_runner(self):
        bundle = REGISTRY.bundle("fig3", quick=True)
        legacy = run_fig3()
        row = bundle.frame.rows()[0]
        assert row["nodes"] == legacy.nodes
        assert row["edges"] == legacy.edges
        assert row["n_communities"] == legacy.n_communities
        assert row["nmi"] == pytest.approx(legacy.nmi)
        assert row["purity"] == pytest.approx(legacy.purity)
        assert bundle.table == legacy.table()
        assert bundle.figure is not None and bundle.figure.n_traces >= 1

    @pytest.mark.parametrize("name", sorted(RUNNER_PINS))
    def test_matches_runner_structure(self, name):
        run, columns, n_traces = RUNNER_PINS[name]
        bundle = REGISTRY.bundle(name, quick=True)
        rows = run().rows
        for column in columns:
            assert bundle.frame.column(column) == [
                getattr(r, column) for r in rows
            ]
        assert bundle.figure is not None
        assert bundle.figure.n_traces == n_traces

    def test_fig5_matches_runner(self):
        bundle = REGISTRY.bundle("fig5", quick=True)
        legacy = run_fig5(protein=QUICK_PROTEINS[0])
        row = bundle.frame.rows()[0]
        assert (row["nodes"], row["edges"]) == (legacy["nodes"], legacy["edges"])
        assert row["controls"] == len(legacy["controls"])
        assert row["plots"] == len(legacy["plots"])
        assert bundle.figure is None  # table-only by design

    def test_kernel_speedups_matches_artifact(self):
        payload = load_run_json(REPO_ROOT / BENCH_ARTIFACT)
        bundle = REGISTRY.bundle("kernel_speedups")
        expected = bench_aggregates_frame(payload)
        assert bundle.frame.rows() == expected.rows()

    def test_cloud_scale_matches_artifact(self):
        payload = load_run_json(REPO_ROOT / BENCH_ARTIFACT)
        bundle = REGISTRY.bundle("cloud_scale")
        assert bundle.frame.rows() == cloud_curve_frame(payload).rows()


class TestFrames:
    def test_frame_validation(self):
        with pytest.raises(ValueError, match="share length"):
            Frame({"a": [1, 2], "b": [1]})
        with pytest.raises(ValueError, match="at least one"):
            Frame({})

    def test_frame_ops(self):
        frame = Frame({"k": ["x", "y", "z"], "v": [3, 1, 2]})
        assert len(frame) == 3
        assert frame.sort_by("v").column("k") == ["y", "z", "x"]
        assert len(frame.filter(lambda r: r["v"] > 1)) == 2
        assert frame.with_column("w", [0, 0, 0]).columns == ["k", "v", "w"]
        with pytest.raises(KeyError):
            frame.column("missing")

    def test_csv_roundtrip(self, tmp_path):
        frame = Frame({"a": [1], "b": ["x,y"]})
        frame.to_csv(tmp_path / "f.csv")
        text = (tmp_path / "f.csv").read_text()
        assert text.splitlines() == ["a,b", '1,"x,y"']

    def test_markdown_table_marks_simulated_scenarios(self):
        payload = load_run_json(REPO_ROOT / BENCH_ARTIFACT)
        table = kernel_speedup_markdown(payload)
        assert "| `cloud_scale`* |" in table
        assert table.count("\n") == len(payload["aggregates"]) + 1


class TestTheme:
    def test_publication_layout_shared_frame(self):
        layout = publication_layout("t")
        assert (layout.width, layout.height) == (640, 480)
        assert layout.showlegend

    def test_series_figure_one_trace_per_series(self):
        fig = series_figure("t", [1, 2], {"a": [1, 2], "b": [2, 1]})
        assert fig.n_traces == 2
        assert [t.name for t in fig.data] == ["a", "b"]
        colors = {t.marker.color for t in fig.data}
        assert len(colors) == 2  # distinct palette colors


class TestCLI:
    def test_list_names_all_figures(self, capsys):
        assert figures_main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in REGISTRY.names():
            assert name in out
        assert f"{len(REGISTRY)} figures registered" in out

    def test_only_builds_named_figures(self, tmp_path, capsys):
        rc = figures_main(
            ["--only", "kernel_speedups", "--out", str(tmp_path / "o")]
        )
        assert rc == 0
        assert (tmp_path / "o" / "kernel_speedups.csv").is_file()

    def test_unknown_name_exits_with_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            figures_main(["--only", "bogus", "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_no_action_exits_with_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            figures_main([])
        assert exc.value.code == 2

    def test_check_passes(self, capsys):
        assert figures_main(["--check"]) == 0
        n = len(REGISTRY)
        assert f"{n}/{n} figures build" in capsys.readouterr().out

    def test_umbrella_cli_delegates(self, capsys):
        from repro.bench.__main__ import main as bench_main

        assert bench_main(["figures", "--list"]) == 0
        assert "kernel_speedups" in capsys.readouterr().out
