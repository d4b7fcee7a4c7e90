"""Graph input: the METIS reader of the paper's Listing 1.

``readGraph(path, Format.METIS)`` is the NetworKit-spelled entry point;
:func:`write_metis` writes the files it reads.
"""

from __future__ import annotations

import os
from enum import Enum

from ..graph import Graph
from .metis import read_metis, write_metis

__all__ = ["Format", "readGraph", "read_metis", "write_metis"]


class Format(Enum):
    """Supported graph file formats (NetworKit ``nk.Format`` analog)."""

    METIS = "metis"


def readGraph(path: str | os.PathLike, fmt: Format = Format.METIS) -> Graph:  # noqa: N802
    """Read a graph in the given format (paper Listing 1 entry point)."""
    if fmt is Format.METIS:
        return read_metis(path)
    raise ValueError(f"unsupported format: {fmt}")
