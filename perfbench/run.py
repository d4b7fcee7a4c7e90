"""Slider-event benchmark of the RIN widget: one command, every metric.

Usage, from the repository root::

    python3 perfbench/run.py --workload a3d_frame_scrub --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the program unwrapped and reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced cycles of the same
event sequence and reports the per-layer metrics, including the tracing
overhead between the two. The last stdout line is the result::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value", "unit"}}}

The line before it is the run record (host fingerprint, calibration,
hypervisor steal share, set-up reps, failure reasons). The record, with
every event's latency, is also written to ``perfbench/results/``, and a
traced run writes its spans there as a Chrome trace. The benchmark
builds nothing: ``repro`` is imported from ``src/`` of the checkout it
runs in, and it exits with code 2 without a result when that source is
missing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

# One compute thread per process, set before numpy loads: on a small
# shared host, a second BLAS or measure thread waits on a core a
# neighbour holds and turns the host's load into the benchmark's noise.
for _var in ("REPRO_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    import harness

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")
    return args


def run(args: argparse.Namespace, import_s: float):
    """Run one workload; returns (result, run record, window)."""
    import statistics

    import harness
    import hostinfo

    calib = [hostinfo.calibrate()]
    cpu0 = hostinfo.cpu_times()
    win = harness.WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace))
    steal = hostinfo.steal_share(cpu0, hostinfo.cpu_times())
    calib.append(hostinfo.calibrate())
    calib_ms = statistics.median(calib)
    if args.trace:
        values, units = harness.per_layer(win, calib_ms), harness.PER_LAYER_UNITS
    else:
        values, units = harness.end_to_end(win), harness.END_TO_END_UNITS
    tally = win.tally
    measured = win.traced_ms if args.trace else win.untraced_ms
    correct = tally.failed == 0 and tally.attempted > 0 and len(measured) > 0
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": float(values[k]), "unit": units[k]} for k in units},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": {**hostinfo.fingerprint(), "calib_ms": calib, "steal_share": steal},
        "import_s": import_s,
        "setup_s_reps": win.setup_s,
        "events_untraced": len(win.untraced_ms),
        "events_traced": len(win.traced_ms),
        "problems": tally.problems,
        "events_ms": measured,
        **win.info,
    }
    return result, record, win


def main(argv: list[str] | None = None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    args = parse_args(argv)
    t0 = time.perf_counter()
    import repro.cloud  # noqa: F401  (timed: the once-per-process import)
    import repro.core  # noqa: F401

    import_s = time.perf_counter() - t0
    result, record, win = run(args, import_s)
    out = HERE / "results"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out / f"{stem}.record.json").write_text(
        json.dumps({"record": record, "result": result}, indent=1)
    )
    if args.trace:
        (out / f"{stem}.trace.json").write_text(json.dumps(win.rec.chrome_trace()))
    # stdout carries the record without the per-event samples
    print(json.dumps({"record": {k: v for k, v in record.items() if k != "events_ms"}}))
    print(json.dumps(result))
    # The program's shared memory (cloud workload) starts the stdlib
    # resource tracker process: stop it and wait for it to end.
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
