"""Machine-checkable reproduction verdicts.

Each qualitative claim from the paper's evaluation becomes one executable
check; :func:`run_verdicts` executes them all and reports pass/fail with
the measured evidence. This is the EXPERIMENTS.md "shape requirements"
list turned into code — the repository's own referee.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .figures import run_cloud_stability, run_fig3, run_fig4, run_fig6, run_fig7
from .reporting import format_table

__all__ = ["Verdict", "run_verdicts", "VERDICT_CHECKS"]


@dataclass(frozen=True)
class Verdict:
    """Outcome of one paper-claim check."""

    claim: str
    source: str  # figure/section in the paper
    holds: bool
    evidence: str


def _fig3_communities_reflect_helices() -> Verdict:
    result = run_fig3()
    holds = result.nmi > 0.5 and result.purity > 0.6 and result.n_helices == 3
    return Verdict(
        claim="PLM communities reflect the α-helices of A3D at 4.5 Å",
        source="Figure 3",
        holds=holds,
        evidence=(
            f"NMI={result.nmi:.3f}, purity={result.purity:.3f}, "
            f"{result.n_communities} communities / {result.n_helices} helices"
        ),
    )


def _fig4_fifty_k_in_seconds() -> Verdict:
    (row,) = run_fig4((50_000,)).rows
    return Verdict(
        claim="plotlybridge draws 50k-node graphs in a few seconds",
        source="Figure 4 / §V-A",
        holds=row.total_seconds < 10.0,
        evidence=f"50k nodes + figure in {row.total_seconds:.2f} s",
    )


def _fig6_measure_ordering(quick: bool) -> Verdict:
    proteins = ("2JOF",) if quick else ("A3D", "2JOF", "NTL9")
    result = run_fig6(proteins=proteins, cutoffs=(10.0,), repeats=2)
    ok = True
    evidence_parts = []
    for protein in proteins:
        deg = result.cell(protein, "Degree Centrality", 10.0).networkit_ms
        bet = result.cell(protein, "Betweenness Centrality", 10.0).networkit_ms
        ok &= deg < bet
        evidence_parts.append(f"{protein}: deg {deg:.2f} < bet {bet:.2f} ms")
    return Verdict(
        claim="Degree is the cheapest measure, Betweenness the priciest",
        source="Figure 6 a/b",
        holds=ok,
        evidence="; ".join(evidence_parts),
    )


def _fig6_total_client_dominated(quick: bool) -> Verdict:
    result = run_fig6(proteins=("2JOF",), cutoffs=(3.0,), repeats=2)
    cell = result.cell("2JOF", "Degree Centrality", 3.0)
    ratio = cell.total_ms / max(cell.networkit_ms, 1e-9)
    return Verdict(
        claim="the complete widget update takes ~10x the compute time",
        source="Figure 6 c",
        holds=ratio >= 5.0,
        evidence=(
            f"Degree on 2JOF: compute {cell.networkit_ms:.2f} ms, total "
            f"{cell.total_ms:.2f} ms (x{ratio:.0f})"
        ),
    )


def _fig7_layout_dominates(quick: bool) -> Verdict:
    result = run_fig7(proteins=("2JOF",) if quick else ("A3D", "2JOF"),
                      cutoffs=(4.0, 8.0, 10.0))
    edge = sum(r.edge_update_ms for r in result.rows)
    layout = sum(r.layout_ms for r in result.rows)
    return Verdict(
        claim="recomputing the layout takes the majority of a cut-off "
        "switch; edge updates stay ~1 ms",
        source="Figure 7 d/e",
        holds=layout > 5 * edge and max(
            r.edge_update_ms for r in result.rows
        ) < 25.0,
        evidence=(
            f"Σ edge-update {edge:.1f} ms vs Σ layout {layout:.1f} ms "
            f"over {len(result.rows)} switches"
        ),
    )


def _fig8_frame_exceeds_cutoff(quick: bool) -> Verdict:
    from .workloads import make_pipeline

    pipeline = make_pipeline("2JOF" if quick else "A3D", 10.0)
    t_cut = pipeline.switch_cutoff(9.0)
    pipeline.switch_cutoff(10.0)
    t_frame = pipeline.switch_frame(1)
    return Verdict(
        claim="frame switches update all DOM elements and cost more "
        "client-side than edge-only cut-off switches",
        source="Figure 8 vs Figure 7",
        holds=t_frame.client_ms > t_cut.client_ms,
        evidence=(
            f"client: frame {t_frame.client_ms:.1f} ms vs cutoff "
            f"{t_cut.client_ms:.1f} ms"
        ),
    )


def _cloud_stable(quick: bool) -> Verdict:
    counts = (1, 2) if quick else (1, 4, 8)
    result = run_cloud_stability(counts, workers=4)
    latencies = [row.mean_total_ms for row in result.rows]
    spread = max(latencies) / min(latencies) if min(latencies) > 0 else 999
    return Verdict(
        claim="server-side performance is stable while provisioning is "
        "not a bottleneck",
        source="§III / §V-B",
        holds=spread <= 1.25
        and all(r.mean_slowdown <= 1.1 for r in result.rows)
        and all(r.pods_running == r.users for r in result.rows),
        evidence=(
            f"mean latency across {counts} users: "
            + ", ".join(f"{ms:.1f} ms" for ms in latencies)
        ),
    )


#: claim-id → (quick-capable callable) registry.
VERDICT_CHECKS: dict[str, Callable[[bool], Verdict]] = {
    "fig3-communities": lambda quick: _fig3_communities_reflect_helices(),
    "fig4-50k": lambda quick: _fig4_fifty_k_in_seconds(),
    "fig6-ordering": _fig6_measure_ordering,
    "fig6-client-dominated": _fig6_total_client_dominated,
    "fig7-layout-dominates": _fig7_layout_dominates,
    "fig8-frame-vs-cutoff": _fig8_frame_exceeds_cutoff,
    "cloud-stability": _cloud_stable,
}


def run_verdicts(
    *, quick: bool = True, only: list[str] | None = None
) -> list[Verdict]:
    """Execute (a subset of) the claim checks; returns the verdicts."""
    names = list(VERDICT_CHECKS) if only is None else only
    out = []
    for name in names:
        if name not in VERDICT_CHECKS:
            raise KeyError(
                f"unknown verdict {name!r}; available: {list(VERDICT_CHECKS)}"
            )
        out.append(VERDICT_CHECKS[name](quick))
    return out


def verdict_table(verdicts: list[Verdict]) -> str:
    """Render verdicts as a text table."""
    return format_table(
        ["source", "claim", "holds", "evidence"],
        [[v.source, v.claim, "PASS" if v.holds else "FAIL", v.evidence]
         for v in verdicts],
        title="Reproduction verdicts (paper claims, machine-checked)",
    )
