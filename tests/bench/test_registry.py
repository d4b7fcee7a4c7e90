"""Figure-registry tests: error paths, artifacts, CLI, runner parity."""

from __future__ import annotations

import csv
import json

import pytest

from repro.bench import (
    FIGURES,
    PAPER_LOW_CUTOFF,
    QUICK_CUTOFFS,
    QUICK_FIG4_SIZES,
    QUICK_PROTEINS,
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
from repro.bench import registry
from repro.bench.figures import main as figures_main
from repro.bench.registry import BENCH_JSON, build, check
from repro.bench.reporting import write_csv

BENCH_FIGURES = ("kernel_speedups", "layout_scale_50k", "multi_session",
                 "interactive_burst", "cloud_scale")


def _csv_rows(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture
def no_bench_json(tmp_path, monkeypatch):
    """Point the bench figures at a run JSON that does not exist."""
    missing = tmp_path / "BENCH_vectorized.json"
    monkeypatch.setattr(registry, "BENCH_JSON", missing)
    return missing


class TestRegistryContents:
    def test_at_least_ten_figures(self):
        assert len(FIGURES) >= 10

    def test_paper_and_bench_sections_covered(self):
        sections = {section for _, section, _ in FIGURES.values()}
        for fig in ("Fig. 3", "Fig. 4", "Fig. 5", "Fig. 6", "Fig. 7",
                    "Fig. 8"):
            assert fig in sections
        assert any(s.startswith("BENCH") for s in sections)

    def test_specs_fully_described(self):
        for title, section, make in FIGURES.values():
            assert title and section and callable(make)

    def test_bench_figures_declare_committed_artifact(self, no_bench_json):
        assert BENCH_JSON.is_file()
        for name in BENCH_FIGURES:
            with pytest.raises(FileNotFoundError):
                FIGURES[name][2](True)

    def test_paper_figures_have_no_inputs(self, no_bench_json, tmp_path):
        # Paper figures rebuild from seeds: no run JSON needed.
        assert [p.name for p in build("fig3", tmp_path, quick=True)] == [
            "fig3.csv", "fig3.txt", "fig3.json"
        ]


class TestErrorPaths:
    def test_unknown_figure(self, tmp_path):
        with pytest.raises(KeyError, match="nope.*fig3"):
            build("nope", tmp_path)

    def test_missing_input_artifact(self, no_bench_json, tmp_path):
        with pytest.raises(FileNotFoundError, match="BENCH_vectorized.json"):
            build("kernel_speedups", tmp_path / "out")

    def test_missing_input_names_figure_and_path(self, no_bench_json, tmp_path):
        with pytest.raises(FileNotFoundError, match=str(no_bench_json)):
            build("cloud_scale", tmp_path)
        assert not (tmp_path / "cloud_scale.csv").exists()

    def test_out_directory_created_on_demand(self, tmp_path):
        out = tmp_path / "deep" / "nested" / "dir"
        assert not out.exists()
        paths = build("kernel_speedups", out)
        assert out.is_dir()
        assert all(p.parent == out for p in paths)


class TestArtifacts:
    def test_build_writes_csv_txt_json(self, tmp_path):
        paths = build("cloud_scale", tmp_path)
        names = [p.name for p in paths]
        assert names == ["cloud_scale.csv", "cloud_scale.txt",
                         "cloud_scale.json"]
        chart = json.loads((tmp_path / "cloud_scale.json").read_text())
        assert {"data", "layout"} <= set(chart)
        assert chart["layout"]["title"]["text"] == FIGURES["cloud_scale"][0]
        assert "sessions" in (tmp_path / "cloud_scale.csv").read_text()

    def test_fig5_is_table_only(self, tmp_path):
        paths = build("fig5", tmp_path, quick=True)
        assert [p.name for p in paths] == ["fig5.csv", "fig5.txt"]

    def test_build_all_subset(self, tmp_path):
        assert figures_main(["--only", "kernel_speedups", "multi_session",
                             "--out", str(tmp_path)]) == 0
        assert {p.stem for p in tmp_path.iterdir()} == {
            "kernel_speedups", "multi_session"
        }

    def test_check_reports_no_failures(self):
        assert check() == []

    def test_check_collects_failures_per_figure(self, monkeypatch):
        def broken(quick):
            raise FileNotFoundError("MISSING.json")

        monkeypatch.setitem(FIGURES, "broken", ("B", "x", broken))
        failures = check()
        assert [name for name, _ in failures] == ["broken"]
        assert failures[0][1] == "FileNotFoundError: MISSING.json"

    def test_table_lists_the_csv_columns(self, tmp_path):
        csv_path, txt_path, _ = build("kernel_speedups", tmp_path)
        header = csv_path.read_text().splitlines()[0].split(",")
        lines = txt_path.read_text().splitlines()
        assert lines[0] == FIGURES["kernel_speedups"][0]
        assert lines[1].split() == header


#: figure → (its runner on the quick config, the CSV columns that must
#: equal the runner's rows, the chart's trace count).
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
    """Registry artifacts pinned against the run_figN runners."""

    def test_fig3_matches_runner(self, tmp_path):
        build("fig3", tmp_path, quick=True)
        (row,) = _csv_rows(tmp_path / "fig3.csv")
        legacy, fig = run_fig3()
        assert int(row["nodes"]) == legacy["nodes"]
        assert int(row["edges"]) == legacy["edges"]
        assert int(row["n_communities"]) == legacy["n_communities"]
        assert float(row["nmi"]) == pytest.approx(legacy["nmi"])
        assert float(row["purity"]) == pytest.approx(legacy["purity"])
        chart = json.loads((tmp_path / "fig3.json").read_text())
        assert len(chart["data"]) == fig.n_traces >= 1

    @pytest.mark.parametrize("name", sorted(RUNNER_PINS))
    def test_matches_runner_structure(self, name, tmp_path):
        run, columns, n_traces = RUNNER_PINS[name]
        build(name, tmp_path, quick=True)
        written = _csv_rows(tmp_path / f"{name}.csv")
        rows = run()
        for column in columns:
            assert [r[column] for r in written] == [
                str(r[column]) for r in rows
            ]
        chart = json.loads((tmp_path / f"{name}.json").read_text())
        assert len(chart["data"]) == n_traces

    def test_fig5_matches_runner(self, tmp_path):
        build("fig5", tmp_path, quick=True)
        (row,) = _csv_rows(tmp_path / "fig5.csv")
        legacy = run_fig5(protein=QUICK_PROTEINS[0])
        assert (int(row["nodes"]), int(row["edges"])) == (
            legacy["nodes"], legacy["edges"]
        )
        assert int(row["controls"]) == len(legacy["controls"])
        assert int(row["plots"]) == len(legacy["plots"])

    def test_kernel_speedups_matches_artifact(self, tmp_path):
        payload = load_run_json(BENCH_JSON)
        build("kernel_speedups", tmp_path)
        written = _csv_rows(tmp_path / "kernel_speedups.csv")
        assert [r["workload"] for r in written] == list(payload["aggregates"])
        for row in written:
            rec = payload["aggregates"][row["workload"]]
            assert float(row["speedup"]) == rec["speedup"]
            assert float(row["reference_ms"]) == rec["reference_ms"]

    def test_cloud_scale_matches_artifact(self, tmp_path):
        payload = load_run_json(BENCH_JSON)
        build("cloud_scale", tmp_path)
        written = _csv_rows(tmp_path / "cloud_scale.csv")
        assert written == [
            {k: str(v) for k, v in point.items()}
            for point in payload["cloud"]["curve"]
        ]


class TestFrames:
    def test_csv_roundtrip(self, tmp_path):
        write_csv(tmp_path / "f.csv", ["a", "b"],
                  [{"a": 1, "b": "x,y", "not_written": 0}])
        text = (tmp_path / "f.csv").read_text()
        assert text.splitlines() == ["a,b", '1,"x,y"']

    def test_markdown_table_marks_simulated_scenarios(self):
        payload = load_run_json(BENCH_JSON)
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
        for name in FIGURES:
            assert name in out
        assert f"{len(FIGURES)} figures registered" in out

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
        n = len(FIGURES)
        assert f"{n}/{n} figures build" in capsys.readouterr().out

    def test_check_names_the_failing_figure(self, monkeypatch, capsys):
        def broken(quick):
            raise RuntimeError("boom")

        monkeypatch.setitem(FIGURES, "broken", ("B", "x", broken))
        assert figures_main(["--check"]) == 1
        captured = capsys.readouterr()
        assert "FAIL broken: RuntimeError: boom" in captured.err
        n = len(FIGURES)
        assert f"{n - 1}/{n} figures build" in captured.out
