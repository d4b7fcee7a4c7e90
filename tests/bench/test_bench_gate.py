"""The bench gate's two row kinds: speedup floors and latency budgets."""

import importlib.util
import json
import statistics
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"


def _load_gate():
    spec = importlib.util.spec_from_file_location(
        "check_bench_gate", BENCHMARKS / "check_bench_gate.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gate = _load_gate()

BUDGETS = {"burst": {"workload": "burst_A3D", "calib_units": 1.4}}


def _fresh(async_ms, calib_ms=10.0, speedup=5.0):
    record = {"reference_ms": 50.0, "vectorized_ms": async_ms, "speedup": speedup}
    if calib_ms is not None:
        record["calib_ms"] = calib_ms
    return {
        "workloads": {"burst_A3D": record},
        "aggregates": {"burst": dict(record), "kernel": {
            "reference_ms": 10.0, "vectorized_ms": 1.0, "speedup": 10.0}},
    }


def test_latency_within_budget_passes():
    # 19 ms / 10 ms = 1.9 units <= 1.4 / 0.7 = 2.0 units.
    failures, warnings = gate.check(_fresh(19.0), {"kernel": 9.0}, 0.7, BUDGETS)
    assert failures == []
    assert warnings == []  # a latency-gated aggregate is not "new"


def test_slower_async_path_fails_however_fast_the_ratio():
    failures, _ = gate.check(
        _fresh(21.0, speedup=100.0), {"kernel": 9.0}, 0.7, BUDGETS
    )
    assert len(failures) == 1 and failures[0].startswith("burst:")


def test_slower_host_scales_the_budget():
    # Twice the milliseconds on a host whose calibration is twice as slow.
    failures, _ = gate.check(
        _fresh(38.0, calib_ms=20.0), {"kernel": 9.0}, 0.7, BUDGETS
    )
    assert failures == []


def test_missing_calibration_fails():
    failures = gate.check_latency(_fresh(5.0, calib_ms=None), BUDGETS, 0.7)
    assert len(failures) == 1 and "calib_ms" in failures[0]


def test_speedup_rows_unchanged():
    failures, _ = gate.check(_fresh(5.0), {"kernel": 20.0}, 0.7, BUDGETS)
    assert len(failures) == 1 and failures[0].startswith("kernel:")


def test_committed_budgets_name_a_bench_workload():
    committed = json.loads((BENCHMARKS / "baselines.json").read_text())
    budgets = committed["latency_budgets"]
    for scenario in (
        "interactive_burst",
        "fig7_dynrin_scan",
        "fig7_cutoff_scan",
        "layout_warm",
        "fig6_measure_switch",
    ):
        assert budgets[scenario]["workload"] == f"{scenario}_A3D"
        # The ratio row it replaced is gone from the speedup floors.
        assert scenario not in committed["aggregate_speedups"]


#: Budget rows that replaced a ratio row whose ratio moved with the
#: reference arm: scenario → the workload whose fast arm they gate.
CONVERTED_ROWS = {
    "fig7_multiframe_scan": "fig7_multiframe_scan_A3D",
    "layout_scale_50k": "layout_scale_50k_rgg",
}


def _slowed(workload, units, calib_ms=25.0):
    """A fresh run whose gated arm reads ``units`` and whose ratio is huge."""
    fast = units * calib_ms
    record = {
        "reference_ms": fast * 1e4,
        "vectorized_ms": fast,
        "speedup": 1e4,
        "calib_ms": calib_ms,
    }
    return {"workloads": {workload: record}, "aggregates": {}}


@pytest.mark.parametrize("scenario", sorted(CONVERTED_ROWS))
def test_converted_row_gates_the_fast_arm(scenario):
    committed = json.loads((BENCHMARKS / "baselines.json").read_text())
    budget = committed["latency_budgets"][scenario]
    workload = CONVERTED_ROWS[scenario]
    assert budget["workload"] == workload
    assert scenario not in committed["aggregate_speedups"]
    # The budget is the median of the recorded --quick runs ...
    runs = budget["runs_calib_units"]
    assert len(runs) >= 5
    median = statistics.median(runs)
    assert budget["calib_units"] == pytest.approx(median, abs=0.005)
    # ... so a run at that median passes, and one 1.5x slower on the
    # gated arm fails however good its speedup ratio.
    rows = {scenario: budget}
    assert gate.check_latency(_slowed(workload, median), rows, 0.7) == []
    failures = gate.check_latency(_slowed(workload, 1.5 * median), rows, 0.7)
    assert len(failures) == 1 and failures[0].startswith(f"{scenario}:")
