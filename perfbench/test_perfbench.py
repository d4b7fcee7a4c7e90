"""The benchmark's own tests: BENCHMARK.json shape, tiny-profile smoke runs of
every workload and a self-test of the output checker.

Run from the repository root: ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_json_shape():
    assert set(BENCH) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert set(BENCH["paths"]) == {"perfbench"}
    assert 1 <= BENCH["run_seconds"] <= 60
    assert {w["name"] for w in BENCH["workloads"]} <= set(harness.WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in BENCH["workloads"])
    metrics = BENCH["end_to_end"] + BENCH["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(set(names)) == len(names)
    assert all(NAME.match(m["name"]) and UNIT.match(m["unit"]) for m in metrics)
    assert all(0 < m["bound"] <= 0.25 for m in BENCH["end_to_end"])
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])
    # 4 + 22 runs per workload; a run adds up to ~11 s of import, set-ups,
    # session closes and the last drag of each session to run_seconds
    runs = 4 + 22 * len(BENCH["workloads"])
    assert runs * (BENCH["run_seconds"] + 12) < 3420


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(harness.WORKLOADS))
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0.5",
                "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    want = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in want
    }
    assert all(np.isfinite(v["value"]) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_best_event_ignores_slow_repeats_but_not_slow_inputs():
    keys = ["a"] * 3 + ["b"] * 3 + ["c"] * 3
    ms = [10.0] * 3 + [20.0] * 3 + [30.0] * 3
    assert harness.best_event_ms(ms, keys) == 20.0
    # the host stalls two repeats of every input: the metric holds
    stalled = [v * 3 if i % 3 else v for i, v in enumerate(ms)]
    assert harness.best_event_ms(stalled, keys) == 20.0
    # the program slows every repeat of two inputs: the metric moves
    slower = [v if k == "a" else v * 2 for k, v in zip(keys, ms)]
    assert harness.best_event_ms(slower, keys) == 40.0
    # inputs that never repeat: the plain median
    assert harness.best_event_ms([5.0, 1.0, 3.0], [0, 1, 2]) == 3.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _run("--workload", "a3d_frame_scrub", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# ----------------------------------------------------------------------
# checker self-test: a corrupted output is a failed operation
# ----------------------------------------------------------------------
@pytest.fixture()
def pipe():
    return harness._widget(7, frame=0)


def test_checks_pass_on_an_intact_widget(pipe):
    pipe.switch_frame(1)
    assert harness.check_widget(pipe) is None


def test_check_catches_an_edge_set_that_differs_from_a_rebuild(pipe):
    from repro.graphkit.csr import pack_edge_keys

    csr = pipe.rin.csr
    pipe.rin.snapshots.reset(pack_edge_keys(csr.n, csr.edge_array())[1:])
    assert "from-scratch" in harness.check_widget(pipe)


def test_check_catches_a_wrong_cached_distance(pipe):
    builder = pipe.rin.builder
    builder.edges(1, pipe.rin.cutoff)  # fills the widget's cache for frame 1
    builder._condensed[1] = builder._condensed[1] * 0.5
    pipe.switch_frame(1)
    assert "from-scratch" in harness.check_widget(pipe)


def test_check_catches_non_finite_scores(pipe):
    pipe.scores[3] = np.nan
    assert "finite" in harness.check_widget(pipe)


def test_check_catches_a_figure_missing_an_edge(pipe):
    edges = pipe.maxent_figure.trace(1)
    edges.set_positions(x=edges.x[:-3], y=edges.y[:-3], z=edges.z[:-3])
    assert "edge trace" in harness.check_widget(pipe)


def test_corrupted_results_and_raising_events_count_as_failed(pipe):
    win = harness.Window()

    def corrupting_check():
        pipe.scores[0] = np.inf
        return harness.check_widget(pipe)

    harness._closed_loop(pipe, [{"frame": 1}, {"frame": 2}], corrupting_check, 0.2, False, win)
    assert win.tally.attempted > harness.WARMUP_EVENTS
    assert win.tally.failed == win.tally.attempted

    win = harness.Window()
    harness._closed_loop(pipe, [{"frame": 999}], lambda: None, 0.05, False, win)
    assert win.tally.failed == win.tally.attempted > 0
    assert "event raised" in win.tally.problems[0]
