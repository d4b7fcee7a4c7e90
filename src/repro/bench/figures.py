"""Runners regenerating every figure of the paper's evaluation.

Each ``run_figN`` produces the same rows/series the paper reports, as
plain dataclasses; ``print(fig.table())`` emits paper-style text. These
runners are the compute layer under the figure registry
(:mod:`repro.bench.registry`): each registered figure wraps one runner
(or a committed run-JSON artifact), converts its rows into a tidy
:class:`~repro.bench.frames.Frame` and writes CSV/table/plotly-JSON
artifacts. ``python -m repro.bench.figures --all`` regenerates the whole
evaluation and :mod:`repro.bench.verdicts` checks the paper's claims on
the same rows; ``tests/bench`` pins the registry output against the
runners. The figure → generator → artifact map lives in
``docs/FIGURES.md``.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..graphkit.layout import maxent_stress_layout
from ..rin.analysis import community_structure_overlap
from ..rin.construction import build_rin
from ..rin.measures import PAPER_MEASURES
from ..vizbridge.bridge import plotly_widget
from ..vizbridge.serialize import estimate_payload_bytes
from .reporting import format_table
from .workloads import (
    FIG4_GRAPH_SIZE,
    FIG4_SIZES,
    PAPER_HIGH_CUTOFF,
    PAPER_LOW_CUTOFF,
    PAPER_PROTEINS,
    fig4_graph,
    layout_scale_graph,
    make_pipeline,
    protein_trajectory,
)

__all__ = [
    "Fig3Result",
    "Fig4Row",
    "Fig4Result",
    "Fig6Row",
    "Fig6Result",
    "Fig7Row",
    "Fig7Result",
    "Fig8Row",
    "Fig8Result",
    "CloudRow",
    "CloudResult",
    "run_fig3",
    "run_fig4",
    "run_fig5",
    "run_fig6",
    "run_fig7",
    "run_fig8",
    "run_cloud_stability",
    "main",
]


# ----------------------------------------------------------------------
# Figure 3 — α3D RIN at 4.5 Å colored by PLM communities
# ----------------------------------------------------------------------
@dataclass
class Fig3Result:
    """Community-vs-helix alignment for the Figure 3 setting."""

    protein: str
    cutoff: float
    nodes: int
    edges: int
    n_communities: int
    n_helices: int
    nmi: float
    purity: float
    figure_payload_bytes: int

    def table(self) -> str:
        return format_table(
            ["protein", "cutoff", "nodes", "edges", "communities",
             "helices", "NMI", "purity"],
            [[self.protein, self.cutoff, self.nodes, self.edges,
              self.n_communities, self.n_helices, f"{self.nmi:.3f}",
              f"{self.purity:.3f}"]],
            title="Figure 3 — PLM communities vs α-helices (A3D, min-dist 4.5 Å)",
        )


def run_fig3(*, protein: str = "A3D", cutoff: float = 4.5) -> Fig3Result:
    """Reproduce Figure 3: communities reflect the secondary structure."""
    from ..graphkit.community import PLM

    traj = protein_trajectory(protein)
    topo = traj.topology
    g = build_rin(topo, traj.frame(0), cutoff)
    part = PLM(g, seed=42).run().get_partition()
    overlap = community_structure_overlap(g, topo, partition=part)
    fig = plotly_widget(g, part.labels().astype(float), categorical=True,
                        coords=traj.ca_coordinates(0))
    return Fig3Result(
        protein=protein,
        cutoff=cutoff,
        nodes=g.number_of_nodes(),
        edges=g.number_of_edges(),
        n_communities=overlap.n_communities,
        n_helices=overlap.n_segments,
        nmi=overlap.nmi,
        purity=overlap.purity,
        figure_payload_bytes=estimate_payload_bytes(fig),
    )


# ----------------------------------------------------------------------
# Figure 4 — plotlybridge 3-D drawing scalability ("50k nodes in seconds")
# ----------------------------------------------------------------------
@dataclass
class Fig4Row:
    """One size point of the layout/figure-build sweep."""

    nodes: int
    edges: int
    layout_seconds: float
    figure_seconds: float

    @property
    def total_seconds(self) -> float:
        return self.layout_seconds + self.figure_seconds


@dataclass
class Fig4Result:
    """The scalability sweep, including the paper's exact 4941-node size."""

    rows: list[Fig4Row] = field(default_factory=list)

    def table(self) -> str:
        return format_table(
            ["nodes", "edges", "layout s", "figure s", "total s"],
            [[r.nodes, r.edges, f"{r.layout_seconds:.2f}",
              f"{r.figure_seconds:.2f}", f"{r.total_seconds:.2f}"]
             for r in self.rows],
            title="Figure 4 — Maxent-Stress + plotlybridge build time",
        )


def run_fig4(sizes: tuple[int, ...] = FIG4_SIZES) -> Fig4Result:
    """Layout + figure build across graph sizes (paper: 'a few seconds').

    Each size point is timed in this process, one after the other, so no
    row shares its cores with another. The layout runs the sampled
    repulsion engine: the figure reproduces the paper-era timing claim,
    which is about that engine.
    """
    result = Fig4Result()
    for n in sizes:
        g = fig4_graph() if n == FIG4_GRAPH_SIZE else layout_scale_graph(n)
        t0 = time.perf_counter()
        coords = maxent_stress_layout(
            g, dim=3, k=1, seed=1, iterations_per_alpha=8,
            repulsion_samples=4, impl="sampled",
        )
        t1 = time.perf_counter()
        plotly_widget(g, coords=coords)
        t2 = time.perf_counter()
        result.rows.append(
            Fig4Row(
                nodes=g.number_of_nodes(),
                edges=g.number_of_edges(),
                layout_seconds=t1 - t0,
                figure_seconds=t2 - t1,
            )
        )
    return result


# ----------------------------------------------------------------------
# Figure 5 — full widget construction
# ----------------------------------------------------------------------
def run_fig5(*, protein: str = "A3D", cutoff: float = 4.5) -> dict:
    """Build the complete Figure 5 GUI; report its composition + time."""
    from ..core.widget import RINWidget

    traj = protein_trajectory(protein)
    t0 = time.perf_counter()
    widget = RINWidget(traj, cutoff=cutoff)
    build_s = time.perf_counter() - t0
    return {
        "status": widget.status_line(),
        "nodes": widget.graph.number_of_nodes(),
        "edges": widget.graph.number_of_edges(),
        "build_seconds": build_s,
        "controls": [
            widget.frame_slider.description,
            widget.cutoff_slider.description,
            widget.measure_slider.description,
            widget.recompute_button.description,
            widget.auto_recompute.description,
            widget.id_coloring.description,
        ],
        "plots": [
            widget.protein_figure.layout.title,
            widget.maxent_figure.layout.title,
        ],
    }


# ----------------------------------------------------------------------
# Figure 6 — measure-switch times
# ----------------------------------------------------------------------
@dataclass
class Fig6Row:
    """One (protein, measure, cutoff) cell of Figure 6."""

    protein: str
    measure: str
    cutoff: float
    edges: int
    networkit_ms: float  # panels (a)/(b)
    total_ms: float  # panel (c)


@dataclass
class Fig6Result:
    rows: list[Fig6Row] = field(default_factory=list)

    def table(self) -> str:
        return format_table(
            ["protein", "cutoff", "edges", "measure", "NetworKit ms",
             "total ms"],
            [[r.protein, r.cutoff, r.edges, r.measure,
              f"{r.networkit_ms:.2f}", f"{r.total_ms:.2f}"]
             for r in self.rows],
            title="Figure 6 — RIN graph-measure switch",
        )

    def cell(self, protein: str, measure: str, cutoff: float) -> Fig6Row:
        for r in self.rows:
            if (r.protein, r.measure, r.cutoff) == (protein, measure, cutoff):
                return r
        raise KeyError((protein, measure, cutoff))


def run_fig6(
    *,
    proteins: tuple[str, ...] = PAPER_PROTEINS,
    cutoffs: tuple[float, ...] = (PAPER_LOW_CUTOFF, PAPER_HIGH_CUTOFF),
    repeats: int = 3,
) -> Fig6Result:
    """Measure-switch benchmark over all proteins × measures × cutoffs."""
    result = Fig6Result()
    for protein in proteins:
        for cutoff in cutoffs:
            pipeline = make_pipeline(protein, cutoff)
            for measure in PAPER_MEASURES:
                # Warm up once (JIT-free but caches settle), then time.
                pipeline.switch_measure(measure)
                nk = []
                total = []
                for _ in range(repeats):
                    timing = pipeline.switch_measure(measure)
                    nk.append(timing.measure_ms)
                    total.append(timing.total_ms)
                result.rows.append(
                    Fig6Row(
                        protein=protein,
                        measure=measure,
                        cutoff=cutoff,
                        edges=pipeline.rin.n_edges,
                        networkit_ms=float(np.median(nk)),
                        total_ms=float(np.median(total)),
                    )
                )
    return result


# ----------------------------------------------------------------------
# Figure 7 — cut-off switch times
# ----------------------------------------------------------------------
@dataclass
class Fig7Row:
    """One (protein, cutoff) point of Figure 7."""

    protein: str
    cutoff: float
    edges: int
    edge_update_ms: float  # panel (d)
    layout_ms: float  # panel (e)
    total_ms: float  # panel (f)


@dataclass
class Fig7Result:
    rows: list[Fig7Row] = field(default_factory=list)

    def table(self) -> str:
        return format_table(
            ["protein", "cutoff", "edges", "edge-update ms", "layout ms",
             "total ms"],
            [[r.protein, r.cutoff, r.edges, f"{r.edge_update_ms:.2f}",
              f"{r.layout_ms:.1f}", f"{r.total_ms:.1f}"] for r in self.rows],
            title="Figure 7 — cut-off distance switch",
        )


def run_fig7(
    *,
    proteins: tuple[str, ...] = PAPER_PROTEINS,
    cutoffs: tuple[float, ...] = (3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0),
) -> Fig7Result:
    """Cut-off switch sweep (the paper's eight cut-off values)."""
    result = Fig7Result()
    for protein in proteins:
        pipeline = make_pipeline(protein, cutoffs[0])
        previous = cutoffs[0]
        for cutoff in cutoffs:
            if cutoff == previous:
                # Leave-and-return so every row is a real switch.
                pipeline.switch_cutoff(cutoff + 0.5)
            timing = pipeline.switch_cutoff(cutoff)
            previous = cutoff
            result.rows.append(
                Fig7Row(
                    protein=protein,
                    cutoff=cutoff,
                    edges=timing.edges_after,
                    edge_update_ms=timing.edge_update_ms,
                    layout_ms=timing.layout_ms,
                    total_ms=timing.total_ms,
                )
            )
    return result


# ----------------------------------------------------------------------
# Figure 8 — trajectory-frame switch times
# ----------------------------------------------------------------------
@dataclass
class Fig8Row:
    """One (protein, cutoff) aggregate of Figure 8 frame sweeps."""

    protein: str
    cutoff: float
    mean_edges: float
    networkit_ms: float  # panels (g)/(h)
    total_ms: float  # panel (i)


@dataclass
class Fig8Result:
    rows: list[Fig8Row] = field(default_factory=list)

    def table(self) -> str:
        return format_table(
            ["protein", "cutoff", "avg edges", "NetworKit ms", "total ms"],
            [[r.protein, r.cutoff, f"{r.mean_edges:.0f}",
              f"{r.networkit_ms:.1f}", f"{r.total_ms:.1f}"]
             for r in self.rows],
            title="Figure 8 — trajectory frame switch",
        )


def run_fig8(
    *,
    proteins: tuple[str, ...] = PAPER_PROTEINS,
    cutoffs: tuple[float, ...] = (PAPER_LOW_CUTOFF, PAPER_HIGH_CUTOFF),
    frames: int = 8,
) -> Fig8Result:
    """Frame-switch sweep with a measure selected (the paper's worst case:
    'the maximum amount of time ... is occurring on changing the
    trajectory, while having selected a network measure')."""
    result = Fig8Result()
    for protein in proteins:
        for cutoff in cutoffs:
            pipeline = make_pipeline(
                protein, cutoff, measure="Closeness Centrality"
            )
            nk, total, edges = [], [], []
            for f in range(1, frames):
                timing = pipeline.switch_frame(f)
                nk.append(timing.networkit_ms)
                total.append(timing.total_ms)
                edges.append(timing.edges_after)
            result.rows.append(
                Fig8Row(
                    protein=protein,
                    cutoff=cutoff,
                    mean_edges=float(np.mean(edges)),
                    networkit_ms=float(np.median(nk)),
                    total_ms=float(np.median(total)),
                )
            )
    return result


# ----------------------------------------------------------------------
# §III — cloud service stability under multi-user load
# ----------------------------------------------------------------------
@dataclass
class CloudRow:
    """Latency stats at one concurrency level."""

    users: int
    mean_total_ms: float
    mean_slowdown: float
    pods_running: int


@dataclass
class CloudResult:
    rows: list[CloudRow] = field(default_factory=list)

    def table(self) -> str:
        return format_table(
            ["users", "mean total ms", "mean slowdown", "pods"],
            [[r.users, f"{r.mean_total_ms:.1f}", f"{r.mean_slowdown:.2f}",
              r.pods_running] for r in self.rows],
            title="§III — cloud service latency vs concurrent users",
        )


def run_cloud_stability(
    user_counts: tuple[int, ...] = (1, 4, 8), *, workers: int = 4
) -> CloudResult:
    """Spawn N users, run one interaction each, report latency stability."""
    from ..cloud import CloudSession, JupyterHub, ServiceProxy, build_paper_cluster

    result = CloudResult()
    for n_users in user_counts:
        cluster = build_paper_cluster(workers=workers)
        hub = JupyterHub(cluster)
        cluster.clock.advance(30)
        proxy = ServiceProxy(cluster)
        sessions = []
        for i in range(n_users):
            hub.register_user(f"user{i}", "pw")
            sessions.append(
                CloudSession(
                    hub, proxy, f"user{i}", "pw", protein="2JOF", n_frames=4
                )
            )
        cluster.clock.advance(30)
        requests = [s.switch_cutoff(7.0) for s in sessions]
        running = sum(1 for s in sessions if s.pod.running)
        result.rows.append(
            CloudRow(
                users=n_users,
                mean_total_ms=float(
                    np.mean([r.total_ms for r in requests])
                ),
                mean_slowdown=float(
                    np.mean([r.slowdown for r in requests])
                ),
                pods_running=running,
            )
        )
    return result


# ----------------------------------------------------------------------
# registry CLI — `python -m repro.bench.figures`
# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    """One-command figure regeneration over the registry.

    ``--all`` rebuilds every registered figure from committed artifacts,
    ``--only fig4 ...`` a subset, ``--list`` names them, ``--check``
    quick-builds everything into scratch space (the CI gate), ``--out``
    picks the output directory (created on demand) and ``--quick``
    switches the paper runners to their small deterministic configs.
    """
    from .registry import REGISTRY, UnknownFigureError

    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.figures",
        description=(
            "Regenerate the paper + bench evaluation figures from the "
            "figure registry (see docs/FIGURES.md)."
        ),
    )
    parser.add_argument(
        "--all", action="store_true", help="build every registered figure"
    )
    parser.add_argument(
        "--only", nargs="+", metavar="FIG", default=None,
        help="build only the named figures",
    )
    parser.add_argument(
        "--list", action="store_true", dest="list_figures",
        help="list registered figures and exit",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="quick-build every figure into scratch space; fail on error",
    )
    parser.add_argument(
        "--out", default="figures_out", metavar="DIR",
        help="output directory (default: figures_out/)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="small deterministic configs for the paper runners",
    )
    args = parser.parse_args(argv)

    if args.list_figures:
        width = max(len(n) for n in REGISTRY.names())
        for spec in REGISTRY.specs():
            inputs = ", ".join(spec.inputs) if spec.inputs else "(generated)"
            print(f"{spec.name.ljust(width)}  {spec.section:<22}  {inputs}")
        print(f"{len(REGISTRY)} figures registered")
        return 0

    if args.check:
        failures = REGISTRY.check()
        for name, error in failures:
            print(f"FAIL {name}: {error}", file=sys.stderr)
        ok = len(REGISTRY) - len(failures)
        print(f"figures --check: {ok}/{len(REGISTRY)} figures build")
        return 1 if failures else 0

    if args.only:
        unknown = [n for n in args.only if n not in REGISTRY]
        if unknown:
            parser.error(
                f"unknown figure(s) {', '.join(unknown)}; "
                f"run --list for the registered names"
            )
        names = args.only
    elif args.all:
        names = REGISTRY.names()
    else:
        parser.error("pass --all, --only FIG ..., --list or --check")

    out_dir = Path(args.out)
    try:
        written = REGISTRY.build_all(out_dir, quick=args.quick, names=names)
    except UnknownFigureError as exc:  # pragma: no cover - guarded above
        parser.error(str(exc))
    for name, paths in written.items():
        print(f"{name}: " + ", ".join(str(p) for p in paths))
    print(f"wrote {sum(len(p) for p in written.values())} artifacts "
          f"for {len(written)} figures under {out_dir}/")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
