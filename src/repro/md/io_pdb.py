"""Minimal PDB reader/writer for the pseudo-atom model.

Writes standard ``ATOM`` records (one MODEL per frame for trajectories) so
structures can be inspected in any molecular viewer; reads back the subset
it writes.
"""

from __future__ import annotations

import os

import numpy as np

from .topology import THREE_TO_ONE, Topology
from .trajectory import Trajectory

__all__ = ["write_pdb", "read_pdb"]


def _atom_record(
    serial: int,
    name: str,
    res_three: str,
    res_seq: int,
    xyz: np.ndarray,
    element: str,
) -> str:
    padded = name if len(name) >= 4 else f" {name:<3s}"
    return (
        f"ATOM  {serial:5d} {padded}{'':1s}{res_three:>3s} A{res_seq:4d}    "
        f"{xyz[0]:8.3f}{xyz[1]:8.3f}{xyz[2]:8.3f}{1.0:6.2f}{0.0:6.2f}"
        f"          {element:>2s}\n"
    )


def write_pdb(
    trajectory: Trajectory | tuple[Topology, np.ndarray],
    path: str | os.PathLike,
) -> None:
    """Write a trajectory (or a single (topology, frame) pair) as PDB."""
    if isinstance(trajectory, tuple):
        topo, frame = trajectory
        trajectory = Trajectory(topo, frame)
    topo = trajectory.topology
    multi = trajectory.n_frames > 1
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"HEADER    {topo.name}\n")
        for f in range(trajectory.n_frames):
            if multi:
                handle.write(f"MODEL     {f + 1:4d}\n")
            frame = trajectory.frame(f)
            serial = 1
            for res in topo.residues:
                for a in range(res.atom_start, res.atom_start + res.atom_count):
                    atom = topo.atoms[a]
                    handle.write(
                        _atom_record(
                            serial,
                            atom.name,
                            res.three,
                            res.index + 1,
                            frame[a],
                            atom.element,
                        )
                    )
                    serial += 1
            if multi:
                handle.write("ENDMDL\n")
        handle.write("END\n")


def read_pdb(path: str | os.PathLike) -> Trajectory:
    """Read a PDB written by :func:`write_pdb` back into a Trajectory.

    Reconstructs the topology from residue names and atom ordering; only
    single-chain ATOM records are supported (sufficient for round-trips).
    A truncated or non-numeric ATOM record, a non-finite coordinate or an
    unknown residue name raises ``ValueError`` naming the path and line.
    """
    frames: list[list[np.ndarray]] = []
    current: list[np.ndarray] = []
    residue_codes: list[str] = []
    seen_res: set[int] = set()
    name = "protein"
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            tag = line[:6].strip()
            if tag == "HEADER":
                name = line[10:].strip() or name
            elif tag == "MODEL":
                current = []
            elif tag == "ATOM":
                where = f"{path}: line {number}"
                res_three = line[17:20].strip()
                try:
                    if len(line.rstrip("\r\n")) < 54:
                        raise ValueError("record ends before column 54")
                    res_seq = int(line[22:26])
                    xyz = np.array([line[30:38], line[38:46], line[46:54]], float)
                except ValueError as exc:
                    raise ValueError(
                        f"{where}: ATOM record needs a residue number in "
                        f"columns 23-26 and x y z in columns 31-54 ({exc})"
                    ) from exc
                if not np.isfinite(xyz).all():
                    raise ValueError(f"{where}: non-finite coordinate {xyz}")
                current.append(xyz)
                if res_seq not in seen_res and not frames:
                    seen_res.add(res_seq)
                    if res_three not in THREE_TO_ONE:
                        raise ValueError(
                            f"{where}: unknown residue name {res_three!r}"
                        )
                    residue_codes.append(THREE_TO_ONE[res_three])
            elif tag == "ENDMDL":
                frames.append(current)
                current = []
    if current:
        frames.append(current)
    if not frames or not residue_codes:
        raise ValueError(f"{path}: no ATOM records found")
    topo = Topology.from_sequence("".join(residue_codes), name=name)
    coords = np.asarray([np.vstack(f) for f in frames])
    if coords.shape[1] != topo.n_atoms:
        raise ValueError(
            f"{path}: atom count {coords.shape[1]} does not match "
            f"reconstructed topology ({topo.n_atoms})"
        )
    return Trajectory(topo, coords)
