"""Print every registered figure's paper-style table.

Usage: ``python -m repro.bench [--quick] [--verdicts]``, or
``python -m repro.bench figures ...`` to delegate to the figure-registry
CLI (``--all`` / ``--only`` / ``--list`` / ``--check`` / ``--out``; see
``docs/FIGURES.md``).
"""

from __future__ import annotations

import sys


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv

    if argv and argv[0] == "figures":
        from .figures import main as figures_main

        return figures_main(argv[1:])

    quick = "--quick" in argv

    if "--verdicts" in argv:
        from .verdicts import run_verdicts, verdict_table

        verdicts = run_verdicts(quick=quick)
        print(verdict_table(verdicts))
        # A known departure still prints FAIL but does not fail the run.
        return 1 if any(v.blocking for v in verdicts) else 0

    from .registry import REGISTRY

    for name in REGISTRY.names():
        bundle = REGISTRY.bundle(name, quick=quick)
        print(bundle.table, end="\n\n")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
