"""MD trajectory container (MDtraj analog for this reproduction).

A trajectory is a ``(n_frames, n_atoms, 3)`` float array plus the static
:class:`~repro.md.topology.Topology`. Provides the analysis staples the
paper's pipeline rests on: frame slicing, RMSD, radius of gyration, and
NPZ round-tripping.
"""

from __future__ import annotations

import os
from typing import Iterator

import numpy as np

from .topology import Topology

__all__ = ["Trajectory"]


class Trajectory:
    """Frames of heavy-atom coordinates over a fixed topology."""

    def __init__(self, topology: Topology, coordinates: np.ndarray):
        coords = np.asarray(coordinates, dtype=np.float64)
        if coords.ndim == 2:
            coords = coords[None, :, :]
        if coords.ndim != 3 or coords.shape[2] != 3:
            raise ValueError(
                f"coordinates must be (frames, atoms, 3), got {coords.shape}"
            )
        if coords.shape[1] != topology.n_atoms:
            raise ValueError(
                f"coordinates have {coords.shape[1]} atoms, topology has "
                f"{topology.n_atoms}"
            )
        if not np.isfinite(coords).all():
            f, atom, _ = np.argwhere(~np.isfinite(coords))[0]
            raise ValueError(f"non-finite coordinate in frame {f}, atom {atom}")
        self.topology = topology
        self.coordinates = coords

    # ------------------------------------------------------------------
    @property
    def n_frames(self) -> int:
        """Number of frames."""
        return self.coordinates.shape[0]

    @property
    def n_atoms(self) -> int:
        """Number of atoms."""
        return self.coordinates.shape[1]

    def __len__(self) -> int:
        return self.n_frames

    def frame(self, i: int) -> np.ndarray:
        """Coordinates of frame ``i`` (view, ``(n_atoms, 3)``).

        Negative ``i`` is rejected, not wrapped, so per-frame caches never
        hold one frame under two keys.
        """
        if not 0 <= i < self.n_frames:
            raise IndexError(f"frame {i} out of range [0, {self.n_frames})")
        return self.coordinates[i]

    def __getitem__(self, key) -> "Trajectory":
        """Slice along the frame axis, returning a Trajectory view."""
        coords = self.coordinates[key]
        if coords.ndim == 2:
            coords = coords[None]
        return Trajectory(self.topology, coords)

    def __iter__(self) -> Iterator[np.ndarray]:
        return iter(self.coordinates)

    # ------------------------------------------------------------------
    def ca_coordinates(self, frame: int | None = None) -> np.ndarray:
        """C-alpha coordinates of one frame or all frames."""
        idx = self.topology.ca_indices()
        if frame is None:
            return self.coordinates[:, idx, :]
        return self.frame(frame)[idx]

    def radius_of_gyration(self) -> np.ndarray:
        """Mass-weighted radius of gyration per frame (Å)."""
        masses = self.topology.atom_masses()
        total = masses.sum()
        com = np.einsum("fai,a->fi", self.coordinates, masses) / total
        delta = self.coordinates - com[:, None, :]
        sq = np.einsum("fai,fai->fa", delta, delta)
        return np.sqrt((sq * masses).sum(axis=1) / total)

    def rmsd(self, reference_frame: int = 0, *, align: bool = True) -> np.ndarray:
        """Per-frame RMSD (Å) to a reference frame.

        With ``align=True`` the optimal rigid superposition (Kabsch) is
        removed first, which is the conventional definition.
        """
        ref = self.frame(reference_frame)
        out = np.empty(self.n_frames)
        ref_centered = ref - ref.mean(axis=0)
        for f in range(self.n_frames):
            cur = self.coordinates[f]
            cur_centered = cur - cur.mean(axis=0)
            if align:
                cur_centered = _kabsch(cur_centered, ref_centered)
            diff = cur_centered - ref_centered
            out[f] = np.sqrt(np.einsum("ai,ai->", diff, diff) / self.n_atoms)
        return out

    def superposed(self, reference_frame: int = 0) -> "Trajectory":
        """A copy with every frame rigid-aligned to the reference frame."""
        ref = self.frame(reference_frame)
        ref_centered = ref - ref.mean(axis=0)
        coords = np.empty_like(self.coordinates)
        for f in range(self.n_frames):
            cur = self.coordinates[f]
            coords[f] = _kabsch(cur - cur.mean(axis=0), ref_centered)
        return Trajectory(self.topology, coords)

    # ------------------------------------------------------------------
    def save_npz(self, path: str | os.PathLike) -> None:
        """Persist coordinates + topology metadata to a ``.npz`` file."""
        np.savez_compressed(
            path,
            coordinates=self.coordinates,
            sequence=np.array(self.topology.sequence),
            secondary=np.array(self.topology.secondary),
            name=np.array(self.topology.name),
        )

    @classmethod
    def load_npz(cls, path: str | os.PathLike) -> "Trajectory":
        """Load a trajectory saved with :meth:`save_npz`."""
        with np.load(path, allow_pickle=False) as data:
            topo = Topology.from_sequence(
                str(data["sequence"]),
                name=str(data["name"]),
                secondary=str(data["secondary"]),
            )
            return cls(topo, data["coordinates"])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Trajectory({self.topology.name!r}, frames={self.n_frames}, "
            f"atoms={self.n_atoms})"
        )


def _kabsch(moving: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Rotate centred ``moving`` onto centred ``reference`` (Kabsch)."""
    h = moving.T @ reference
    u, _, vt = np.linalg.svd(h)
    d = np.sign(np.linalg.det(u @ vt))
    correction = np.diag([1.0, 1.0, d])
    rot = u @ correction @ vt
    return moving @ rot
