"""Machine-checkable reproduction verdicts.

Each qualitative claim from the paper's evaluation becomes one executable
check; :func:`run_verdicts` executes them all and reports pass/fail with
the measured evidence. This is the EXPERIMENTS.md "shape requirements"
list turned into code — the repository's own referee. A claim this
reproduction is known not to meet is listed in :data:`KNOWN_DEPARTURES`
with the measured reason: it still reads FAIL, but it does not fail the
``--verdicts`` run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from .figures import run_cloud_stability, run_fig3, run_fig4, run_fig6, run_fig7
from .reporting import format_table

__all__ = [
    "Verdict", "cell", "run_verdicts", "VERDICT_CHECKS", "KNOWN_DEPARTURES",
]


@dataclass(frozen=True)
class Verdict:
    """Outcome of one paper-claim check."""

    claim: str
    source: str  # figure/section in the paper
    holds: bool
    evidence: str
    #: Why the reproduction departs from the claim, when it fails and the
    #: claim is listed in :data:`KNOWN_DEPARTURES`; empty otherwise.
    departure: str = ""

    @property
    def blocking(self) -> bool:
        """A failure that is not a known departure."""
        return not self.holds and not self.departure


def cell(rows: list[dict], protein: str, measure: str, cutoff: float) -> dict:
    """The ``run_fig6`` row of one (protein, measure, cutoff) cell."""
    for row in rows:
        if (row["protein"], row["measure"], row["cutoff"]) == (
            protein, measure, cutoff
        ):
            return row
    raise KeyError((protein, measure, cutoff))


def _fig3_communities_reflect_helices() -> Verdict:
    row, _ = run_fig3()
    holds = row["nmi"] > 0.5 and row["purity"] > 0.6 and row["n_helices"] == 3
    return Verdict(
        claim="PLM communities reflect the α-helices of A3D at 4.5 Å",
        source="Figure 3",
        holds=holds,
        evidence=(
            f"NMI={row['nmi']:.3f}, purity={row['purity']:.3f}, "
            f"{row['n_communities']} communities / {row['n_helices']} helices"
        ),
    )


def _fig4_fifty_k_in_seconds() -> Verdict:
    (row,) = run_fig4((50_000,))
    return Verdict(
        claim="plotlybridge draws 50k-node graphs in a few seconds",
        source="Figure 4 / §V-A",
        holds=row["total_seconds"] < 10.0,
        evidence=f"50k nodes + figure in {row['total_seconds']:.2f} s",
    )


def _fig6_measure_ordering(quick: bool) -> Verdict:
    proteins = ("2JOF",) if quick else ("A3D", "2JOF", "NTL9")
    rows = run_fig6(proteins=proteins, cutoffs=(10.0,), repeats=2)
    ok = True
    evidence_parts = []
    for protein in proteins:
        deg = cell(rows, protein, "Degree Centrality", 10.0)["networkit_ms"]
        bet = cell(rows, protein, "Betweenness Centrality", 10.0)["networkit_ms"]
        ok &= deg < bet
        evidence_parts.append(f"{protein}: deg {deg:.2f} < bet {bet:.2f} ms")
    return Verdict(
        claim="Degree is the cheapest measure, Betweenness the priciest",
        source="Figure 6 a/b",
        holds=ok,
        evidence="; ".join(evidence_parts),
    )


def _fig6_total_client_dominated(quick: bool) -> Verdict:
    rows = run_fig6(proteins=("2JOF",), cutoffs=(3.0,), repeats=2)
    degree = cell(rows, "2JOF", "Degree Centrality", 3.0)
    ratio = degree["total_ms"] / max(degree["networkit_ms"], 1e-9)
    return Verdict(
        claim="the complete widget update takes ~10x the compute time",
        source="Figure 6 c",
        holds=ratio >= 5.0,
        evidence=(
            f"Degree on 2JOF: compute {degree['networkit_ms']:.2f} ms "
            f"measured, total {degree['total_ms']:.2f} ms = measured server "
            f"+ modeled client DOM (x{ratio:.0f})"
        ),
    )


def _fig7_layout_dominates(quick: bool) -> Verdict:
    rows = run_fig7(proteins=("2JOF",) if quick else ("A3D", "2JOF"),
                    cutoffs=(4.0, 8.0, 10.0))
    edge = sum(r["edge_update_ms"] for r in rows)
    layout = sum(r["layout_ms"] for r in rows)
    return Verdict(
        claim="recomputing the layout takes the majority of a cut-off "
        "switch; edge updates stay ~1 ms",
        source="Figure 7 d/e",
        holds=layout > 5 * edge
        and max(r["edge_update_ms"] for r in rows) < 25.0,
        evidence=(
            f"Σ edge-update {edge:.1f} ms vs Σ layout {layout:.1f} ms "
            f"over {len(rows)} switches"
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
            f"modeled client DOM: frame {t_frame.client_ms:.1f} ms vs "
            f"cutoff {t_cut.client_ms:.1f} ms"
        ),
    )


def _cloud_stable(quick: bool) -> Verdict:
    counts = (1, 2) if quick else (1, 4, 8)
    rows = run_cloud_stability(counts, workers=4)
    latencies = [row["mean_total_ms"] for row in rows]
    spread = max(latencies) / min(latencies) if min(latencies) > 0 else 999
    return Verdict(
        claim="server-side performance is stable while provisioning is "
        "not a bottleneck",
        source="§III / §V-B",
        holds=spread <= 1.25
        and all(r["mean_slowdown"] <= 1.1 for r in rows)
        and all(r["pods_running"] == r["users"] for r in rows),
        evidence=(
            f"simulated cloud (modeled network + client, pressure-scaled "
            f"server), mean latency across {counts} users: "
            + ", ".join(f"{ms:.1f} ms" for ms in latencies)
        ),
    )


#: claim-id → the measured reason this reproduction does not meet it.
KNOWN_DEPARTURES: dict[str, str] = {
    "fig7-layout-dominates": (
        "the dense Laplacian Maxent-Stress engine made the layout about 3x "
        "cheaper: Σ layout read 3.4-4.9x Σ edge-update in 5 quick runs "
        "(13.1-16.0x with the sampled engine), so the 5x rule fails, "
        "while the layout still exceeds the edge update on every row"
    ),
}

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
    """Execute (a subset of) the claim checks; returns the verdicts.

    A failing verdict listed in :data:`KNOWN_DEPARTURES` carries the
    listed reason as its ``departure``.
    """
    names = list(VERDICT_CHECKS) if only is None else only
    out = []
    for name in names:
        if name not in VERDICT_CHECKS:
            raise KeyError(
                f"unknown verdict {name!r}; available: {list(VERDICT_CHECKS)}"
            )
        verdict = VERDICT_CHECKS[name](quick)
        if not verdict.holds and name in KNOWN_DEPARTURES:
            verdict = replace(verdict, departure=KNOWN_DEPARTURES[name])
        out.append(verdict)
    return out


def verdict_table(verdicts: list[Verdict]) -> str:
    """Render verdicts as a text table; known departures read FAIL*."""
    table = format_table(
        ["source", "claim", "holds", "evidence"],
        [[v.source, v.claim,
          "PASS" if v.holds else "FAIL*" if v.departure else "FAIL",
          v.evidence]
         for v in verdicts],
        title="Reproduction verdicts (paper claims, machine-checked)",
    )
    notes = [f"* {v.source}: known departure: {v.departure}"
             for v in verdicts if v.departure]
    return "\n".join([table, *notes])
