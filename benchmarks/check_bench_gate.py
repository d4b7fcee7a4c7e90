"""Benchmark-regression gate: fail CI when a speedup or a latency regresses.

Compares a fresh ``bench_vectorized.py`` run against the committed
``benchmarks/baselines.json``. Two kinds of row:

* ``aggregate_speedups`` — a scenario regresses when::

      fresh_speedup < baseline_speedup * tolerance

  Speedup *ratios* are far more stable across runners than absolute
  milliseconds, which is why these rows read them.
* ``latency_budgets`` — what a user waits for, in host-calibration
  units: one workload's ``vectorized_ms`` divided by the ``calib_ms``
  the bench timed beside it (a fixed numpy + pure-Python loop). The
  budget is the value measured on the commit that set it; a row
  regresses when::

      fresh_ms / fresh_calib_ms > calib_units / tolerance

  so a slower path fails however fast the reference arm got, and a
  slower host moves both sides of the quotient.

The tolerance factor absorbs runner-to-runner noise for both kinds.
Scenarios missing from the fresh run fail the gate (a deleted workload
must update the baselines deliberately); new scenarios not yet in the
baselines only warn.

Run:  PYTHONPATH=src python benchmarks/check_bench_gate.py \
          --fresh BENCH_fresh.json [--tolerance 0.7]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

DEFAULT_BASELINES = Path(__file__).resolve().parent / "baselines.json"


def check(
    fresh: dict, baselines: dict, tolerance: float, budgets: dict | None = None
) -> tuple[list[str], list[str]]:
    """Returns (failures, warnings): aggregate speedups, then latency budgets."""
    failures: list[str] = []
    warnings: list[str] = []
    budgets = budgets or {}
    aggregates = fresh.get("aggregates", {})
    for scenario, baseline_speedup in sorted(baselines.items()):
        agg = aggregates.get(scenario)
        if agg is None:
            failures.append(
                f"{scenario}: missing from the fresh run "
                f"(baseline {baseline_speedup}x) — update baselines.json "
                "if the workload was deliberately removed"
            )
            continue
        floor = baseline_speedup * tolerance
        speedup = float(agg["speedup"])
        verdict = "ok" if speedup >= floor else "REGRESSED"
        print(
            f"{scenario:32s} baseline {baseline_speedup:7.2f}x  "
            f"floor {floor:7.2f}x  fresh {speedup:7.2f}x  {verdict}"
        )
        if speedup < floor:
            failures.append(
                f"{scenario}: {speedup}x < {floor:.2f}x "
                f"(baseline {baseline_speedup}x * tolerance {tolerance})"
            )
    for scenario in sorted(set(aggregates) - set(baselines) - set(budgets)):
        warnings.append(
            f"{scenario}: not in baselines.json (new scenario? "
            "commit its baseline to gate it)"
        )
    failures.extend(check_latency(fresh, budgets, tolerance))
    return failures, warnings


def check_latency(fresh: dict, budgets: dict, tolerance: float) -> list[str]:
    """Failures of the ``latency_budgets`` rows (calibration units)."""
    failures: list[str] = []
    workloads = fresh.get("workloads", {})
    for scenario, budget in sorted(budgets.items()):
        name = budget["workload"]
        record = workloads.get(name)
        if record is None or "calib_ms" not in record:
            failures.append(
                f"{scenario}: {name} or its calib_ms is missing from the "
                "fresh run — update baselines.json if the workload was "
                "deliberately removed"
            )
            continue
        ceiling = budget["calib_units"] / tolerance
        units = float(record["vectorized_ms"]) / float(record["calib_ms"])
        verdict = "ok" if units <= ceiling else "REGRESSED"
        print(
            f"{scenario:32s} budget {budget['calib_units']:7.3f}u  "
            f"ceiling {ceiling:7.3f}u  fresh {units:7.3f}u  {verdict}  "
            f"({record['vectorized_ms']} ms / calib {record['calib_ms']} ms)"
        )
        if units > ceiling:
            failures.append(
                f"{scenario}: {units:.3f} calib units > {ceiling:.3f} "
                f"(budget {budget['calib_units']} / tolerance {tolerance})"
            )
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fresh", required=True, help="fresh bench JSON path")
    parser.add_argument(
        "--baselines", default=str(DEFAULT_BASELINES), help="committed baselines"
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.7,
        help="fail when a speedup < baseline * tolerance or a latency > "
        "budget / tolerance (default 0.7)",
    )
    args = parser.parse_args()

    fresh = json.loads(Path(args.fresh).read_text())
    committed = json.loads(Path(args.baselines).read_text())
    baselines = committed["aggregate_speedups"]
    budgets = committed.get("latency_budgets", {})
    failures, warnings = check(fresh, baselines, args.tolerance, budgets)
    for warning in warnings:
        print(f"warning: {warning}")
    if failures:
        print(f"\nBENCH GATE FAILED ({len(failures)} regression(s)):")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(
        f"\nbench gate passed: {len(baselines) + len(budgets)} scenarios "
        "within tolerance"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
