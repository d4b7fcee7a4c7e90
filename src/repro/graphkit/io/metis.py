"""METIS graph format reader/writer.

The format of the paper's Listing 1 (``nk.readGraph("karate.graph",
nk.Format.METIS)``): a header line ``n m [fmt]`` followed by one line per
node listing its (1-based) neighbours, optionally with edge weights when
``fmt`` ends in 1. Lines starting with ``%`` are comments; a blank line is
the adjacency line of an isolated node.
"""

from __future__ import annotations

import math
import os

from ..graph import Graph

__all__ = ["read_metis", "write_metis"]


def _error(path: str | os.PathLike, number: int, message: str) -> ValueError:
    return ValueError(f"{path}: line {number}: {message}")


def _parse(convert, token: str, path: str | os.PathLike, number: int, what: str):
    try:
        return convert(token)
    except ValueError:
        raise _error(path, number, f"expected {what}, got {token!r}") from None


def read_metis(path: str | os.PathLike) -> Graph:
    """Parse a METIS file into an undirected :class:`Graph`.

    Malformed input raises ``ValueError`` naming the path and the 1-based
    line: a non-integer count or neighbour id, a weighted adjacency line
    with an odd number of fields, a weight that is not finite and positive,
    or a node or edge count that disagrees with the header.
    """
    with open(path, "r", encoding="utf-8") as handle:
        rows = [
            (number, line.split())
            for number, line in enumerate(handle, start=1)
            if not line.lstrip().startswith("%")
        ]
    while rows and not rows[0][1]:
        rows.pop(0)
    if not rows:
        raise ValueError(f"{path}: empty METIS file")
    header_no, header = rows[0]
    if len(header) < 2:
        raise _error(path, header_no, f"METIS header needs 'n m', got {header!r}")
    n = _parse(int, header[0], path, header_no, "a node count")
    m = _parse(int, header[1], path, header_no, "an edge count")
    if n < 0 or m < 0:
        raise _error(path, header_no, f"negative count in header {header!r}")
    fmt = header[2] if len(header) > 2 else "0"
    has_edge_weights = fmt.endswith("1") and fmt != "0"
    has_node_weights = len(fmt) >= 2 and fmt[-2] == "1"
    body = rows[1:]
    while len(body) > n and not body[-1][1]:
        body.pop()  # trailing blank lines past the last node
    if len(body) != n:
        raise _error(
            path,
            header_no,
            f"header declares {n} nodes but file has {len(body)} adjacency lines",
        )
    g = Graph(n, weighted=has_edge_weights)
    step = 2 if has_edge_weights else 1
    for u, (number, fields) in enumerate(body):
        if has_node_weights:
            if not fields:
                raise _error(path, number, "missing node weight")
            fields = fields[1:]
        if len(fields) % step:
            raise _error(
                path,
                number,
                f"weighted adjacency line needs neighbour/weight pairs, "
                f"got {len(fields)} fields",
            )
        for i in range(0, len(fields), step):
            v = _parse(int, fields[i], path, number, "an integer neighbour id") - 1
            if not 0 <= v < n:
                raise _error(path, number, f"neighbour {v + 1} out of range 1..{n}")
            w = 1.0
            if has_edge_weights:
                w = _parse(float, fields[i + 1], path, number, "an edge weight")
                if not (math.isfinite(w) and w > 0):
                    raise _error(
                        path, number, f"edge weight {fields[i + 1]!r} must be finite and > 0"
                    )
            if u != v and not g.has_edge(u, v):
                g.add_edge(u, v, w)
    if g.number_of_edges() != m:
        raise _error(
            path,
            header_no,
            f"header declares {m} edges, parsed {g.number_of_edges()}",
        )
    return g


def write_metis(g: Graph, path: str | os.PathLike) -> None:
    """Write an undirected graph in METIS format.

    Raises ``ValueError`` naming the edge, before the file is opened, for
    a weight :func:`read_metis` would refuse: not finite, or not > 0.
    """
    if g.directed:
        raise ValueError("METIS format stores undirected graphs")
    for u, v, weight in g.iter_weighted_edges() if g.weighted else ():
        if not (math.isfinite(weight) and weight > 0):
            raise ValueError(
                f"edge ({u},{v}) weight {weight!r} must be finite and > 0 for METIS"
            )
    fmt = "001" if g.weighted else "0"
    with open(path, "w", encoding="utf-8") as handle:
        header = f"{g.number_of_nodes()} {g.number_of_edges()}"
        if g.weighted:
            header += f" {fmt}"
        handle.write(header + "\n")
        for u in g.iter_nodes():
            parts = []
            for v in sorted(g.neighbors(u)):
                parts.append(str(v + 1))
                if g.weighted:
                    weight = g.weight(u, v)
                    parts.append(
                        str(int(weight)) if weight == int(weight) else str(weight)
                    )
            handle.write(" ".join(parts) + "\n")
