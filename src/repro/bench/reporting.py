"""Reporting for benchmark results: text tables and canonical run JSON.

The run-JSON helpers define the one on-disk shape every benchmark run
shares (``host`` / ``workloads`` / ``aggregates`` + optional extra
sections such as ``cloud``). ``benchmarks/bench_vectorized.py`` writes it
via :func:`write_run_json`; the figure registry and
:func:`kernel_speedup_markdown` read it back via :func:`load_run_json` —
so the committed ``BENCH_vectorized.json`` artifact is both the benchmark
record and the figure input.
"""

from __future__ import annotations

import csv
import json
import platform
import sys
from pathlib import Path
from typing import Any, Mapping, Sequence

__all__ = [
    "format_table",
    "write_csv",
    "run_json_payload",
    "write_run_json",
    "load_run_json",
    "kernel_speedup_markdown",
]


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence], *, title: str = ""
) -> str:
    """Render a fixed-width text table."""
    cells = [[str(c) for c in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
        for i, h in enumerate(headers)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def write_csv(
    path: str | Path, columns: Sequence[str], rows: Sequence[Mapping]
) -> None:
    """Write ``columns`` of each row dict as CSV (other keys are left out)."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(
            fh, columns, extrasaction="ignore", lineterminator="\n"
        )
        writer.writeheader()
        writer.writerows(rows)


# ----------------------------------------------------------------------
# canonical run JSON
# ----------------------------------------------------------------------
def run_json_payload(
    *,
    quick: bool,
    repeats: int,
    workloads: Mapping[str, Mapping[str, float]],
    aggregates: Mapping[str, Mapping[str, float]],
    extra: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """Assemble the canonical run-JSON dict (``BENCH_*.json`` shape).

    Every per-workload/aggregate record must carry ``reference_ms`` /
    ``vectorized_ms`` / ``speedup`` — the contract the bench figures in
    :mod:`repro.bench.registry` rely on. Violations fail here, at write
    time, instead of at figure-build time.
    """
    required = ("reference_ms", "vectorized_ms", "speedup")
    for section_name, section in (
        ("workloads", workloads), ("aggregates", aggregates)
    ):
        for name, record in section.items():
            missing = [key for key in required if key not in record]
            if missing:
                raise ValueError(
                    f"{section_name}[{name!r}] is missing {missing}"
                )
    payload: dict[str, Any] = {
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "quick": quick,
            "repeats": repeats,
        },
        "workloads": {k: dict(v) for k, v in workloads.items()},
        "aggregates": {k: dict(v) for k, v in aggregates.items()},
    }
    for key, value in (extra or {}).items():
        payload[key] = value
    return payload


def write_run_json(path: str | Path, payload: Mapping[str, Any]) -> Path:
    """Write a run-JSON payload (stable key order, trailing newline)."""
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def load_run_json(path: str | Path) -> dict[str, Any]:
    """Load a run-JSON artifact, with a figure-oriented error message."""
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(
            f"run-JSON artifact {path} does not exist; regenerate it with "
            f"`PYTHONPATH=src {Path(sys.executable).name} "
            f"benchmarks/bench_vectorized.py --quick --out {path.name}`"
        )
    return json.loads(path.read_text())


#: README footnote markers: scenarios whose "ms" figures are simulated
#: clock readings (deterministic from the seed), not wall time.
_DEFAULT_FOOTNOTES = {"cloud_scale": "*"}


def kernel_speedup_markdown(
    payload: Mapping[str, Any],
    *,
    footnotes: Mapping[str, str] | None = None,
) -> str:
    """The README speedup table, generated from the run JSON.

    ``tests/docs`` pins the README against this exact string, so the
    table can only change by re-running the benchmark (never by hand).
    """
    marks = _DEFAULT_FOOTNOTES if footnotes is None else footnotes
    lines = [
        "| workload | reference | vectorized | speedup |",
        "|---|---:|---:|---:|",
    ]
    for name, rec in payload["aggregates"].items():
        label = f"`{name}`{marks.get(name, '')}"
        lines.append(
            f"| {label} | {rec['reference_ms']:.1f} ms "
            f"| {rec['vectorized_ms']:.1f} ms "
            f"| {rec['speedup']:.1f}x |"
        )
    return "\n".join(lines)
