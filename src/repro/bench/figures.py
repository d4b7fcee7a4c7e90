"""Runners regenerating every figure of the paper's evaluation.

Each ``run_figN`` returns the rows the paper reports, as plain dicts
(one per table row). The figure registry (:mod:`repro.bench.registry`)
writes them as CSV, text table and plotly-schema chart;
``python -m repro.bench.figures --all`` regenerates the whole evaluation
and :mod:`repro.bench.verdicts` checks the paper's claims on the same
rows. The figure → runner → artifact map lives in ``docs/FIGURES.md``.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from ..graphkit.layout import maxent_stress_layout
from ..rin.analysis import community_structure_overlap
from ..rin.construction import build_rin
from ..rin.measures import PAPER_MEASURES
from ..vizbridge.bridge import plotly_widget
from ..vizbridge.figure import FigureWidget
from ..vizbridge.serialize import estimate_payload_bytes
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
def run_fig3(
    *, protein: str = "A3D", cutoff: float = 4.5
) -> tuple[dict, FigureWidget]:
    """Reproduce Figure 3: communities reflect the secondary structure.

    Returns the community-vs-helix row and the PLM-colored RIN figure.
    """
    from ..graphkit.community import PLM

    traj = protein_trajectory(protein)
    topo = traj.topology
    g = build_rin(topo, traj.frame(0), cutoff)
    part = PLM(g, seed=42).run().get_partition()
    overlap = community_structure_overlap(g, topo, partition=part)
    fig = plotly_widget(g, part.labels().astype(float), categorical=True,
                        coords=traj.ca_coordinates(0))
    row = {
        "protein": protein,
        "cutoff": cutoff,
        "nodes": g.number_of_nodes(),
        "edges": g.number_of_edges(),
        "n_communities": overlap.n_communities,
        "n_helices": overlap.n_segments,
        "nmi": overlap.nmi,
        "purity": overlap.purity,
        "figure_payload_bytes": estimate_payload_bytes(fig),
    }
    return row, fig


# ----------------------------------------------------------------------
# Figure 4 — plotlybridge 3-D drawing scalability ("50k nodes in seconds")
# ----------------------------------------------------------------------
def run_fig4(sizes: tuple[int, ...] = FIG4_SIZES) -> list[dict]:
    """Layout + figure build across graph sizes (paper: 'a few seconds').

    Each size point is timed in this process, one after the other, so no
    row shares its cores with another. The layout runs the sampled
    repulsion engine: the figure reproduces the paper-era timing claim,
    which is about that engine.
    """
    rows = []
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
        rows.append({
            "nodes": g.number_of_nodes(),
            "edges": g.number_of_edges(),
            "layout_seconds": t1 - t0,
            "figure_seconds": t2 - t1,
            "total_seconds": (t1 - t0) + (t2 - t1),
        })
    return rows


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
def run_fig6(
    *,
    proteins: tuple[str, ...] = PAPER_PROTEINS,
    cutoffs: tuple[float, ...] = (PAPER_LOW_CUTOFF, PAPER_HIGH_CUTOFF),
    repeats: int = 3,
) -> list[dict]:
    """Measure-switch benchmark over all proteins × measures × cutoffs.

    ``networkit_ms`` is panels (a)/(b), ``total_ms`` panel (c): the
    measured server time plus the modeled client time.
    """
    rows = []
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
                rows.append({
                    "protein": protein,
                    "measure": measure,
                    "cutoff": cutoff,
                    "edges": pipeline.rin.n_edges,
                    "networkit_ms": float(np.median(nk)),
                    "total_ms": float(np.median(total)),
                })
    return rows


# ----------------------------------------------------------------------
# Figure 7 — cut-off switch times
# ----------------------------------------------------------------------
def run_fig7(
    *,
    proteins: tuple[str, ...] = PAPER_PROTEINS,
    cutoffs: tuple[float, ...] = (3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0),
) -> list[dict]:
    """Cut-off switch sweep (the paper's eight cut-off values).

    ``edge_update_ms`` is panel (d), ``layout_ms`` panel (e) and
    ``total_ms`` panel (f), measured server plus modeled client time.
    """
    rows = []
    for protein in proteins:
        pipeline = make_pipeline(protein, cutoffs[0])
        previous = cutoffs[0]
        for cutoff in cutoffs:
            if cutoff == previous:
                # Leave-and-return so every row is a real switch.
                pipeline.switch_cutoff(cutoff + 0.5)
            timing = pipeline.switch_cutoff(cutoff)
            previous = cutoff
            rows.append({
                "protein": protein,
                "cutoff": cutoff,
                "edges": timing.edges_after,
                "edge_update_ms": timing.edge_update_ms,
                "layout_ms": timing.layout_ms,
                "total_ms": timing.total_ms,
            })
    return rows


# ----------------------------------------------------------------------
# Figure 8 — trajectory-frame switch times
# ----------------------------------------------------------------------
def run_fig8(
    *,
    proteins: tuple[str, ...] = PAPER_PROTEINS,
    cutoffs: tuple[float, ...] = (PAPER_LOW_CUTOFF, PAPER_HIGH_CUTOFF),
    frames: int = 8,
) -> list[dict]:
    """Frame-switch sweep with a measure selected (the paper's worst case:
    'the maximum amount of time ... is occurring on changing the
    trajectory, while having selected a network measure').

    One row per (protein, cutoff): ``networkit_ms`` is panels (g)/(h),
    ``total_ms`` panel (i), measured server plus modeled client time.
    """
    rows = []
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
            rows.append({
                "protein": protein,
                "cutoff": cutoff,
                "mean_edges": float(np.mean(edges)),
                "networkit_ms": float(np.median(nk)),
                "total_ms": float(np.median(total)),
            })
    return rows


# ----------------------------------------------------------------------
# §III — cloud service stability under multi-user load
# ----------------------------------------------------------------------
def run_cloud_stability(
    user_counts: tuple[int, ...] = (1, 4, 8), *, workers: int = 4
) -> list[dict]:
    """Spawn N users, run one interaction each, report latency stability.

    One row per user count; ``mean_total_ms`` is the simulated cloud
    latency (modeled network and client, pressure-scaled server).
    """
    from ..cloud import CloudSession, JupyterHub, ServiceProxy, build_paper_cluster

    rows = []
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
        rows.append({
            "users": n_users,
            "mean_total_ms": float(np.mean([r.total_ms for r in requests])),
            "mean_slowdown": float(np.mean([r.slowdown for r in requests])),
            "pods_running": sum(1 for s in sessions if s.pod.running),
        })
    return rows


# ----------------------------------------------------------------------
# registry CLI — `python -m repro.bench.figures`
# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    """One-command figure regeneration over the registry.

    ``--all`` rebuilds every registered figure, ``--only fig4 ...`` a
    subset, ``--list`` names them, ``--check`` quick-builds everything
    into scratch space (the CI gate), ``--out`` picks the output
    directory (created on demand) and ``--quick`` switches the paper
    runners to their small deterministic configs.
    """
    from .registry import FIGURES, build, check

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
        width = max(len(n) for n in FIGURES)
        for name, (title, section, _) in FIGURES.items():
            print(f"{name.ljust(width)}  {section:<22}  {title}")
        print(f"{len(FIGURES)} figures registered")
        return 0

    if args.check:
        failures = check()
        for name, error in failures:
            print(f"FAIL {name}: {error}", file=sys.stderr)
        ok = len(FIGURES) - len(failures)
        print(f"figures --check: {ok}/{len(FIGURES)} figures build")
        return 1 if failures else 0

    if args.only:
        unknown = [n for n in args.only if n not in FIGURES]
        if unknown:
            parser.error(
                f"unknown figure(s) {', '.join(unknown)}; "
                f"run --list for the registered names"
            )
        names = args.only
    elif args.all:
        names = list(FIGURES)
    else:
        parser.error("pass --all, --only FIG ..., --list or --check")

    out_dir = Path(args.out)
    n_paths = 0
    for name in names:
        paths = build(name, out_dir, quick=args.quick)
        n_paths += len(paths)
        print(f"{name}: " + ", ".join(str(p) for p in paths))
    print(f"wrote {n_paths} artifacts for {len(names)} figures under {out_dir}/")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
