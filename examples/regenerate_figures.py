#!/usr/bin/env python3
"""Minimal figure-registry walkthrough: list, build, inspect.

Lists the figures of `repro.bench.registry.FIGURES`, rebuilds a paper
figure and a bench figure (quick configs, so this finishes in seconds),
and prints each one's text table and the artifacts it wrote — the same
`<name>.csv` / `<name>.txt` / `<name>.json` set that
``python -m repro.bench.figures --all`` produces for the complete
evaluation. The figure → runner → input map is `docs/FIGURES.md`.

Run:  PYTHONPATH=src python examples/regenerate_figures.py [--out DIR]
"""

from __future__ import annotations

import argparse
import tempfile
from pathlib import Path

from repro.bench import FIGURES
from repro.bench.registry import build

#: One paper figure (rebuilt from seeds) + one bench figure (rebuilt
#: from the committed BENCH_vectorized.json artifact).
DEMO_FIGURES = ("fig3", "kernel_speedups")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out", default=None, metavar="DIR",
        help="output directory (default: a temporary directory)",
    )
    args = parser.parse_args(argv)
    out_dir = Path(args.out) if args.out else Path(tempfile.mkdtemp())

    print(f"{len(FIGURES)} registered figures:")
    for name, (title, section, _) in FIGURES.items():
        print(f"  {name:18} {section:24} {title}")

    for name in DEMO_FIGURES:
        paths = build(name, out_dir, quick=True)
        print()
        print(paths[1].read_text(), end="")  # the text table
        print("wrote: " + ", ".join(str(p) for p in paths))

    print(
        f"\nFull evaluation: PYTHONPATH=src python -m repro.bench.figures "
        f"--all --out {out_dir}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
