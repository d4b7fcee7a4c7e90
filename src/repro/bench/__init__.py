"""repro.bench — harness regenerating every table/figure of the paper.

One runner per figure (:mod:`~repro.bench.figures`), deterministic
workload construction (:mod:`~repro.bench.workloads`), text, CSV and
run-JSON reporting (:mod:`~repro.bench.reporting`) and the figure
registry (:mod:`~repro.bench.registry`, one dict) tying them together,
plus the machine-checked paper claims (:mod:`~repro.bench.verdicts`)
read off the same runners. ``python -m repro.bench`` prints all tables,
``python -m repro.bench --verdicts`` checks the claims and
``python -m repro.bench.figures --all`` regenerates every figure
artifact (handbook: ``docs/FIGURES.md``).

Exports resolve lazily (PEP 562) so ``python -m repro.bench.figures``
does not double-import the CLI module and importing the package stays
cheap for consumers that only need one layer.
"""

from __future__ import annotations

import importlib

#: export name → submodule providing it (resolved on first access).
_EXPORTS = {
    name: ".figures"
    for name in (
        "run_fig3", "run_fig4", "run_fig5", "run_fig6", "run_fig7",
        "run_fig8", "run_cloud_stability",
    )
}
_EXPORTS.update(
    {
        name: ".registry"
        for name in ("FIGURES", "publication_layout", "series_figure")
    }
)
_EXPORTS.update(
    {
        name: ".reporting"
        for name in (
            "format_table", "run_json_payload", "write_run_json",
            "load_run_json", "kernel_speedup_markdown",
        )
    }
)
_EXPORTS.update(
    {name: ".verdicts" for name in ("Verdict", "run_verdicts", "verdict_table")}
)
_EXPORTS.update(
    {
        name: ".workloads"
        for name in (
            "PAPER_PROTEINS", "PAPER_LOW_CUTOFF", "PAPER_HIGH_CUTOFF",
            "FIG4_GRAPH_SIZE", "FIG4_SIZES", "QUICK_PROTEINS",
            "QUICK_FIG4_SIZES", "QUICK_CUTOFFS", "protein_trajectory",
            "make_pipeline", "fig4_graph", "layout_scale_graph",
        )
    }
)

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    return getattr(importlib.import_module(module, __name__), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
