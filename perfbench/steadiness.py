"""Steadiness evidence: run every workload N times and compare spreads to bounds.

Usage, from the repository root::

    python3 perfbench/steadiness.py --runs 10 --seed0 1 [--workloads a3d_cloud_drag] \
        [--baseline perfbench/results/steadiness-seed1.json] [--out perfbench/STEADINESS.md]

Each run is the benchmark command of ``BENCHMARK.json`` with its
``run_seconds``, ``--trace 0`` and a seed of its own (``seed0``,
``seed0 + 1``, ...), one run at a time, the workloads taking turns. For
every end-to-end metric the report gives the median and the spread: the
distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next
to the metric's bound; a spread above a third of the bound is flagged.
With ``--baseline`` (the raw JSON of an earlier set) it also gives the
shift of this set's median against that set's, signed so that positive
is worse; its size must stay within the bound in either direction.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_set(bench: dict, workloads: list[str], runs: int, seed0: int) -> dict:
    values: dict = {w: {m["name"]: [] for m in bench["end_to_end"]} for w in workloads}
    # seed-major, so each workload's runs spread over the whole set's time
    for seed in range(seed0, seed0 + runs):
        for w in workloads:
            cmd = [*bench["command"], "--workload", w, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            wall_s = time.perf_counter() - t0
            if proc.returncode != 0:
                sys.exit(f"{w} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{w} seed {seed}: incorrect result {result}")
            for name, metric in result["metrics"].items():
                values[w][name].append(metric["value"])
            print(f"{w} seed {seed} ({wall_s:.1f} s wall): " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    return values


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_shift(now: float, before: float, better: str) -> float:
    """How much worse ``now`` is than ``before``, as a share (negative: better)."""
    change = (now - before) / before
    return change if better == "lower" else -change


def report(bench: dict, values: dict, baseline: dict | None, runs: int, seed0: int) -> str:
    lines = [
        f"{runs} runs per workload, seeds {seed0}..{seed0 + runs - 1}, "
        f"{bench['run_seconds']} s each, `--trace 0`.",
        "",
        "| workload | metric | median | spread (IQR/median) | bound | spread ≤ bound/3 |"
        + (" shift vs baseline | \\|shift\\| ≤ bound |" if baseline else ""),
        "|---|---|---|---|---|---|" + ("---|---|" if baseline else ""),
    ]
    for w, metrics in values.items():
        for m in bench["end_to_end"]:
            vals = metrics[m["name"]]
            med, sp = statistics.median(vals), spread(vals)
            row = (f"| {w} | {m['name']} ({m['unit']}) | {med:.4g} | {sp:.2%} | "
                   f"{m['bound']:.0%} | {'yes' if sp <= m['bound'] / 3 else 'NO'} |")
            if baseline:
                shift = worse_shift(med, statistics.median(baseline[w][m["name"]]), m["better"])
                row += f" {shift:+.2%} | {'yes' if abs(shift) <= m['bound'] else 'NO'} |"
            lines.append(row)
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--workloads", nargs="*")
    ap.add_argument("--baseline", type=Path)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    values = run_set(bench, workloads, args.runs, args.seed0)
    raw = ROOT / "perfbench" / "results" / f"steadiness-seed{args.seed0}.json"
    raw.parent.mkdir(exist_ok=True)
    raw.write_text(json.dumps(values, indent=1))
    baseline = json.loads(args.baseline.read_text()) if args.baseline else None
    text = report(bench, values, baseline, args.runs, args.seed0)
    print(text)
    if args.out:
        args.out.write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
