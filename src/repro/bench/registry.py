"""The figure registry: the full evaluation behind one command.

Every figure of the paper's evaluation (Figures 3-8, the §III cloud
stability table) and every bench/scale figure grown since (kernel
speedups, ``layout_scale_50k``, ``multi_session``, ``interactive_burst``,
the ``cloud_scale`` sessions-vs-p99 curve) is one entry of
:data:`FIGURES`: ``name -> (title, section, make)``. ``make(quick)``
returns ``(columns, rows, chart)`` — the rows of one runner (or of the
committed ``BENCH_vectorized.json``), the columns they are written with,
and a chart in the shared publication theme (``None`` for table-only
figures). :func:`build` writes the columns of the rows as
``<name>.csv`` and ``<name>.txt`` and the chart as ``<name>.json``.

``python -m repro.bench.figures --all`` regenerates everything;
``--check`` (:func:`check`) builds each figure into a scratch directory
and is wired into tier-1 CI. The handbook mapping each figure to its
runner is ``docs/FIGURES.md``; a new bench scenario is one more entry.
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from typing import Callable, Mapping, Sequence

from ..vizbridge.figure import FigureWidget, Layout
from ..vizbridge.serialize import figure_to_json
from ..vizbridge.traces import Line, Marker, Scatter
from .figures import (
    run_cloud_stability,
    run_fig3,
    run_fig4,
    run_fig5,
    run_fig6,
    run_fig7,
    run_fig8,
)
from .reporting import format_table, load_run_json, write_csv
from .workloads import (
    FIG4_SIZES,
    PAPER_LOW_CUTOFF,
    QUICK_CUTOFFS,
    QUICK_FIG4_SIZES,
    QUICK_PROTEINS,
)

__all__ = [
    "BENCH_JSON",
    "FIGURES",
    "build",
    "check",
    "publication_layout",
    "series_figure",
]

#: The committed benchmark artifact every bench figure reads (repo root
#: under the ``src/`` layout; tier-1 runs with PYTHONPATH=src).
BENCH_JSON = Path(__file__).resolve().parents[3] / "BENCH_vectorized.json"

#: What one figure's ``make(quick)`` returns: columns, rows, chart.
Made = tuple[list[str], list[dict], "FigureWidget | None"]


# ----------------------------------------------------------------------
# publication theme
# ----------------------------------------------------------------------

#: Categorical series colors (Spectral anchors), cycled in order.
SERIES_COLORS: tuple[str, ...] = (
    "#3288bd", "#d53e4f", "#66c2a5", "#f46d43", "#5e4fa2", "#fdae61",
)

#: One canvas size for every published chart.
PUB_WIDTH, PUB_HEIGHT = 640, 480


def publication_layout(
    title: str, *, width: int = PUB_WIDTH, height: int = PUB_HEIGHT
) -> Layout:
    """The shared figure frame: one size, legend on, flat background."""
    return Layout(title=title, width=width, height=height, showlegend=True)


def series_figure(
    title: str,
    x: Sequence,
    series: Mapping[str, Sequence],
    *,
    mode: str = "lines+markers",
    text: Sequence[str] | None = None,
) -> FigureWidget:
    """A themed chart: one 2-D scatter trace per named series."""
    fig = FigureWidget(publication_layout(title))
    for i, (name, ys) in enumerate(series.items()):
        color = SERIES_COLORS[i % len(SERIES_COLORS)]
        fig.add_traces(
            Scatter(
                x=list(x),
                y=list(ys),
                mode=mode,
                name=name,
                text=list(text) if text is not None else None,
                marker=Marker(size=7.0, color=color),
                line=Line(width=2.0, color=color),
            )
        )
    return fig


def _columns_chart(
    rows: list[dict], x: str | None, ys: Sequence[str], *,
    text: str | None = None, mode: str = "lines+markers",
) -> FigureWidget:
    """One series per column of ``ys`` against column ``x`` (or the row
    number), with column ``text`` as hover labels."""
    return series_figure(
        "",
        [row[x] for row in rows] if x else range(len(rows)),
        {y: [row[y] for row in rows] for y in ys},
        text=[row[text] for row in rows] if text else None,
        mode=mode,
    )


def _grouped_chart(
    rows: list[dict], group: Callable[[dict], str], x: str, y: str, *,
    mode: str = "lines+markers",
) -> FigureWidget:
    """One series of column ``y`` per ``group(row)``, against column ``x``."""
    series: dict[str, list] = {}
    for row in rows:
        series.setdefault(group(row), []).append(row[y])
    first = group(rows[0])
    xs = [row[x] for row in rows if group(row) == first]
    return series_figure("", xs, series, mode=mode)


# ----------------------------------------------------------------------
# paper figures (workloads rebuild from seeds)
# ----------------------------------------------------------------------
def _fig3(quick: bool) -> Made:
    row, fig = run_fig3()
    columns = ["protein", "cutoff", "nodes", "edges", "n_communities",
               "n_helices", "nmi", "purity"]
    return columns, [row], fig


def _fig4(quick: bool) -> Made:
    rows = run_fig4(QUICK_FIG4_SIZES if quick else FIG4_SIZES)
    columns = ["nodes", "edges", "layout_seconds", "figure_seconds",
               "total_seconds"]
    return columns, rows, _columns_chart(rows, "nodes", columns[2:])


def _fig5(quick: bool) -> Made:
    protein = QUICK_PROTEINS[0] if quick else "A3D"
    info = run_fig5(protein=protein)
    row = {**info, "protein": protein, "controls": len(info["controls"]),
           "plots": len(info["plots"])}
    columns = ["protein", "nodes", "edges", "controls", "plots",
               "build_seconds"]
    return columns, [row], None


def _fig6(quick: bool) -> Made:
    if quick:
        rows = run_fig6(
            proteins=QUICK_PROTEINS, cutoffs=(PAPER_LOW_CUTOFF,), repeats=1
        )
    else:
        rows = run_fig6()
    columns = ["protein", "cutoff", "edges", "measure", "networkit_ms",
               "total_ms"]
    chart = _grouped_chart(
        rows, lambda r: f"{r['protein']} @ {r['cutoff']:g} Å", "measure",
        "networkit_ms", mode="markers",
    )
    return columns, rows, chart


def _fig7(quick: bool) -> Made:
    if quick:
        rows = run_fig7(proteins=QUICK_PROTEINS, cutoffs=QUICK_CUTOFFS)
    else:
        rows = run_fig7()
    columns = ["protein", "cutoff", "edges", "edge_update_ms", "layout_ms",
               "total_ms"]
    return columns, rows, _grouped_chart(
        rows, lambda r: r["protein"], "cutoff", "total_ms"
    )


def _fig8(quick: bool) -> Made:
    if quick:
        rows = run_fig8(
            proteins=QUICK_PROTEINS, cutoffs=(PAPER_LOW_CUTOFF,), frames=3
        )
    else:
        rows = run_fig8()
    columns = ["protein", "cutoff", "mean_edges", "networkit_ms", "total_ms"]
    return columns, rows, _grouped_chart(
        rows, lambda r: r["protein"], "cutoff", "total_ms", mode="markers"
    )


def _cloud_stability(quick: bool) -> Made:
    if quick:
        rows = run_cloud_stability((1, 2), workers=2)
    else:
        rows = run_cloud_stability()
    columns = ["users", "mean_total_ms", "mean_slowdown", "pods_running"]
    return columns, rows, _columns_chart(rows, "users", ["mean_total_ms"])


# ----------------------------------------------------------------------
# bench/scale figures (read the committed BENCH_vectorized.json)
# ----------------------------------------------------------------------
def _kernel_speedups(quick: bool) -> Made:
    aggregates = load_run_json(BENCH_JSON)["aggregates"]
    rows = [{"workload": name, **rec} for name, rec in aggregates.items()]
    columns = ["workload", "reference_ms", "vectorized_ms", "speedup"]
    chart = _columns_chart(
        rows, None, ["speedup"], text="workload", mode="markers"
    )
    return columns, rows, chart


def _two_engines(workload: str, reference: str, vectorized: str):
    """``make`` of a reference-vs-accelerated figure on one workload."""

    def make(quick: bool) -> Made:
        rec = load_run_json(BENCH_JSON)["workloads"][workload]
        rows = [
            {"engine": reference, "time_ms": rec["reference_ms"],
             "speedup": "1.0"},
            {"engine": vectorized, "time_ms": rec["vectorized_ms"],
             "speedup": f"{rec['speedup']:.2f}x"},
        ]
        chart = _columns_chart(
            rows, None, ["time_ms"], text="engine", mode="markers"
        )
        return ["engine", "time_ms", "speedup"], rows, chart

    return make


def _cloud_scale(quick: bool) -> Made:
    rows = load_run_json(BENCH_JSON)["cloud"]["curve"]
    columns = ["spike_rate_per_s", "sessions", "static_p99_ms",
               "autoscaled_p99_ms", "static_gave_up", "autoscaled_gave_up"]
    chart = _columns_chart(
        rows, "sessions", ["static_p99_ms", "autoscaled_p99_ms"],
        mode="markers",
    )
    return columns, rows, chart


#: figure name → (title, paper figure or bench scenario, make).
FIGURES: dict[str, tuple[str, str, Callable[[bool], Made]]] = {
    "fig3": ("Figure 3 — A3D RIN at 4.5 Å colored by PLM communities",
             "Fig. 3", _fig3),
    "fig4": ("Figure 4 — Maxent-Stress layout + figure build vs graph size",
             "Fig. 4", _fig4),
    "fig5": ("Figure 5 — full widget construction", "Fig. 5", _fig5),
    "fig6": ("Figure 6 — RIN graph-measure switch times", "Fig. 6", _fig6),
    "fig7": ("Figure 7 — cut-off distance switch times", "Fig. 7", _fig7),
    "fig8": ("Figure 8 — trajectory frame switch times", "Fig. 8", _fig8),
    "cloud_stability": ("§III — cloud service latency vs concurrent users",
                        "§III", _cloud_stability),
    "kernel_speedups": (
        "Kernel speedups — vectorized engines vs reference twins",
        "BENCH aggregates", _kernel_speedups),
    "layout_scale_50k": (
        "Repulsion at 50k nodes — Barnes-Hut vs exact O(n²) sum",
        "BENCH layout_scale_50k",
        _two_engines("layout_scale_50k_rgg", "exact O(n²) sum",
                     "barnes_hut octree")),
    "multi_session": (
        "Multi-session compute — shared service vs per-session pools",
        "BENCH multi_session",
        _two_engines("multi_session_2JOF", "per-session pools",
                     "shared ComputeService")),
    "interactive_burst": (
        "Interactive burst — sync replay vs async pipeline",
        "BENCH interactive_burst",
        _two_engines("interactive_burst_A3D", "sync replay",
                     "async pipeline")),
    "cloud_scale": (
        "Cloud scale — sessions vs p99, static cluster vs autoscaler",
        "BENCH cloud_scale", _cloud_scale),
}


def _text(value) -> str:
    return f"{value:.2f}" if isinstance(value, float) else str(value)


def build(name: str, out_dir: str | Path, *, quick: bool = False) -> list[Path]:
    """Build one figure and write ``<name>.{csv,txt,json}`` under ``out_dir``.

    ``out_dir`` (and parents) are created on demand, after the figure's
    rows exist. The ``.json`` artifact is a plotly-schema figure
    (feedable to real plotly unchanged); table-only figures (Figure 5's
    GUI composition) write no ``.json``. An unknown name raises
    ``KeyError`` listing the registered names.
    """
    try:
        title, _, make = FIGURES[name]
    except KeyError:
        raise KeyError(
            f"unknown figure {name!r}; registered figures: {', '.join(FIGURES)}"
        ) from None
    columns, rows, chart = make(quick)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = [out / f"{name}.csv", out / f"{name}.txt"]
    write_csv(paths[0], columns, rows)
    table = format_table(
        columns, [[_text(row[c]) for c in columns] for row in rows],
        title=title,
    )
    paths[1].write_text(table + "\n")
    if chart is not None:
        chart.layout.title = title
        paths.append(out / f"{name}.json")
        paths[2].write_text(figure_to_json(chart, indent=2) + "\n")
    return paths


def check() -> list[tuple[str, str]]:
    """Quick-build every figure into scratch space; return the failures.

    Each failure is ``(figure_name, "ErrorType: message")``; an empty
    list means the whole evaluation regenerates. This is the CI gate
    behind ``python -m repro.bench.figures --check``.
    """
    failures: list[tuple[str, str]] = []
    with tempfile.TemporaryDirectory() as tmp:
        for name in FIGURES:
            try:
                build(name, Path(tmp) / name, quick=True)
            except Exception as exc:
                failures.append((name, f"{type(exc).__name__}: {exc}"))
    return failures
