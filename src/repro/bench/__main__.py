"""Print every registered figure's paper-style table.

Usage: ``python -m repro.bench [--quick] [--verdicts]``. The figure
artifacts come from ``python -m repro.bench.figures`` (``--all`` /
``--only`` / ``--list`` / ``--check`` / ``--out``; see
``docs/FIGURES.md``).
"""

from __future__ import annotations

import sys
import tempfile


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    quick = "--quick" in argv

    if "--verdicts" in argv:
        from .verdicts import run_verdicts, verdict_table

        verdicts = run_verdicts(quick=quick)
        print(verdict_table(verdicts))
        # A known departure still prints FAIL but does not fail the run.
        return 1 if any(v.blocking for v in verdicts) else 0

    from .registry import FIGURES, build

    with tempfile.TemporaryDirectory() as tmp:
        for name in FIGURES:
            table = build(name, tmp, quick=quick)[1]
            print(table.read_text())
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
