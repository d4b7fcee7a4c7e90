"""XYZ trajectory format (multi-frame, element + coordinates per line).

The simplest interchange format MD tools agree on: per frame, an atom
count line, a comment line, then ``ELEMENT x y z`` rows. Round-trips the
coordinates; the topology travels in the comment line as a sequence tag
so :func:`read_xyz` can rebuild it.
"""

from __future__ import annotations

import os

import numpy as np

from .topology import Topology
from .trajectory import Trajectory

__all__ = ["write_xyz", "read_xyz"]


def write_xyz(trajectory: Trajectory, path: str | os.PathLike) -> None:
    """Write all frames in XYZ format."""
    topo = trajectory.topology
    elements = [a.element for a in topo.atoms]
    with open(path, "w", encoding="utf-8") as handle:
        for f in range(trajectory.n_frames):
            frame = trajectory.frame(f)
            handle.write(f"{topo.n_atoms}\n")
            handle.write(
                f"name={topo.name} seq={topo.sequence} ss={topo.secondary} "
                f"frame={f}\n"
            )
            for element, xyz in zip(elements, frame):
                handle.write(
                    f"{element:2s} {xyz[0]:12.5f} {xyz[1]:12.5f} "
                    f"{xyz[2]:12.5f}\n"
                )


def read_xyz(path: str | os.PathLike) -> Trajectory:
    """Read a trajectory written by :func:`write_xyz`.

    Malformed input raises ``ValueError`` naming the path and the 1-based
    line: a count line that is not a non-negative integer, a frame whose
    atom count differs from the first frame's, a truncated frame, a bad
    ``seq=``/``ss=`` tag or a coordinate row that is not
    ``ELEMENT x y z`` with finite numbers.
    """
    frames: list[np.ndarray] = []
    topo: Topology | None = None
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    i = 0
    while i < len(lines):
        if not lines[i].strip():
            i += 1
            continue
        try:
            n_atoms = int(lines[i].strip())
        except ValueError as exc:
            raise ValueError(f"{path}: expected atom count at line {i + 1}") from exc
        if n_atoms < 0:
            raise ValueError(f"{path}: line {i + 1}: negative atom count {n_atoms}")
        if topo is not None and n_atoms != topo.n_atoms:
            raise ValueError(
                f"{path}: line {i + 1}: frame declares {n_atoms} atoms, the "
                f"first frame {topo.n_atoms}"
            )
        if i + 2 + n_atoms > len(lines):
            raise ValueError(
                f"{path}: frame at line {i + 1} declares {n_atoms} atoms but "
                f"the file ends at line {len(lines)}"
            )
        comment = lines[i + 1]
        if topo is None:
            fields = dict(
                part.split("=", 1) for part in comment.split() if "=" in part
            )
            if "seq" not in fields:
                raise ValueError(f"{path}: comment line lacks 'seq=' tag")
            try:
                topo = Topology.from_sequence(
                    fields["seq"],
                    name=fields.get("name", "protein"),
                    secondary=fields.get("ss"),
                )
            except ValueError as exc:
                raise ValueError(f"{path}: line {i + 2}: {exc}") from exc
            if topo.n_atoms != n_atoms:
                raise ValueError(
                    f"{path}: line {i + 1}: sequence implies {topo.n_atoms} "
                    f"atoms, frame declares {n_atoms}"
                )
        coords = np.empty((n_atoms, 3))
        for a in range(n_atoms):
            parts = lines[i + 2 + a].split()
            try:
                if len(parts) < 4:
                    raise ValueError(f"{len(parts)} field(s)")
                coords[a] = [float(parts[1]), float(parts[2]), float(parts[3])]
                if not np.isfinite(coords[a]).all():
                    raise ValueError("non-finite coordinate")
            except ValueError as exc:
                raise ValueError(
                    f"{path}: line {i + 3 + a} needs 'ELEMENT x y z' ({exc})"
                ) from exc
        frames.append(coords)
        i += 2 + n_atoms
    if topo is None or not frames:
        raise ValueError(f"{path}: no frames found")
    return Trajectory(topo, np.asarray(frames))
