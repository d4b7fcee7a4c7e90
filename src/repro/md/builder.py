"""Synthetic protein structure builder.

Builds full heavy-atom coordinates for a :class:`~repro.md.topology.Topology`
from a *fold plan*: each secondary-structure segment is assigned an axis
direction and a lateral offset, producing compact bundles/sheets like the
fast-folding proteins the paper benchmarks (see :mod:`repro.md.proteins`).

This replaces the proprietary D. E. Shaw MD data: what the downstream RIN
code needs is a compact, helix/strand-organized heavy-atom geometry whose
contact graph at the paper's cut-offs has the right density — not the real
physics: folding dynamics, force fields and solvent are out of scope.
:mod:`repro.md.proteins` states when a synthetic structure is accepted
in place of a real one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (
    CA_VIRTUAL_BOND,
    helix_ca_trace,
    loop_ca_trace,
    orthonormal_frame,
    strand_ca_trace,
)
from .topology import SecondaryStructure, Topology

__all__ = ["SegmentPlacement", "StructureBuilder", "build_ca_trace", "build_structure"]


@dataclass(frozen=True)
class SegmentPlacement:
    """Placement of one H/E segment in the fold.

    Attributes
    ----------
    lateral:
        (x, y) offset of the segment axis in the bundle cross-section (Å).
    flip:
        Run the segment antiparallel (down instead of up).
    phase:
        Helix phase offset (radians) — used to orient side chains.
    """

    lateral: tuple[float, float]
    flip: bool = False
    phase: float = 0.0


def build_ca_trace(
    topology: Topology,
    placements: list[SegmentPlacement],
    *,
    seed: int | None = 1234,
) -> np.ndarray:
    """C-alpha trace following the topology's segments and the fold plan.

    H/E segments consume placements in order; coil segments connect the
    flanking segments with smooth loops (or dangle at the termini).
    """
    rng = np.random.default_rng(seed)
    segments = topology.segments()
    structured = [s for s in segments if s[0] != SecondaryStructure.COIL]
    if len(structured) != len(placements):
        raise ValueError(
            f"fold plan has {len(placements)} placements but topology has "
            f"{len(structured)} structured segments"
        )

    n = topology.n_residues
    ca = np.zeros((n, 3))
    axis_up = np.array([0.0, 0.0, 1.0])

    # First pass: place structured segments on their bundle positions.
    placed: list[tuple[int, int]] = []  # residue ranges of structured segs
    pi = 0
    for code, start, stop in segments:
        if code == SecondaryStructure.COIL:
            continue
        placement = placements[pi]
        pi += 1
        length = stop - start
        direction = -axis_up if placement.flip else axis_up
        rise = 1.5 if code == SecondaryStructure.HELIX else 3.3
        height = (length - 1) * rise
        x0, y0 = placement.lateral
        # Anchor so that segments are vertically centred around z=0.
        z0 = height / 2.0 if placement.flip else -height / 2.0
        anchor = np.array([x0, y0, z0])
        if code == SecondaryStructure.HELIX:
            pts = helix_ca_trace(
                length, anchor, direction, phase=placement.phase
            )
        else:
            pleat = np.array([1.0, 0.0, 0.0])
            pts = strand_ca_trace(length, anchor, direction, pleat_dir=pleat)
        ca[start:stop] = pts
        placed.append((start, stop))

    # Second pass: fill coil segments.
    for code, start, stop in segments:
        if code != SecondaryStructure.COIL:
            continue
        length = stop - start
        before = ca[start - 1] if start > 0 else None
        after = ca[stop] if stop < n else None
        if before is not None and after is not None:
            ca[start:stop] = loop_ca_trace(length, before, after, rng=rng)
        elif after is not None:  # N-terminal dangle
            t, u, _ = orthonormal_frame(np.array([0.3, 0.7, 0.64]))
            for i in range(length):
                ca[stop - 1 - i] = after + (i + 1) * CA_VIRTUAL_BOND * 0.8 * (
                    u + 0.3 * rng.standard_normal(3) / 3
                )
        elif before is not None:  # C-terminal dangle
            t, u, _ = orthonormal_frame(np.array([0.7, -0.3, 0.64]))
            for i in range(length):
                ca[start + i] = before + (i + 1) * CA_VIRTUAL_BOND * 0.8 * (
                    u + 0.3 * rng.standard_normal(3) / 3
                )
        else:  # the whole chain is coil: a smooth random walk
            pos = np.zeros(3)
            direction = np.array([1.0, 0.0, 0.0])
            for i in range(length):
                direction = direction + 0.5 * rng.standard_normal(3)
                direction /= np.linalg.norm(direction)
                pos = pos + CA_VIRTUAL_BOND * direction
                ca[start + i] = pos
    return ca


def build_structure(
    topology: Topology,
    ca: np.ndarray,
    *,
    seed: int | None = 1234,
    sidechain_reach: float = 1.6,
) -> np.ndarray:
    """Full heavy-atom coordinates from a C-alpha trace.

    Backbone N/C/O are placed along the local chain tangent; CB and further
    side-chain atoms extend outward from the local backbone curvature with
    deterministic jitter. ``sidechain_reach`` scales how far side chains
    protrude — the knob that calibrates minimum-distance contact counts.
    """
    n = topology.n_residues
    ca = np.asarray(ca, dtype=np.float64)
    if ca.shape != (n, 3):
        raise ValueError(f"ca trace must be ({n}, 3), got {ca.shape}")
    rng = np.random.default_rng(seed)
    coords = np.zeros((topology.n_atoms, 3))

    # Local frames: tangent along the chain, outward normal away from the
    # local centroid (side chains point out of the fold core).
    prev_idx = np.maximum(np.arange(n) - 1, 0)
    next_idx = np.minimum(np.arange(n) + 1, n - 1)
    tangents = ca[next_idx] - ca[prev_idx]
    norms = np.linalg.norm(tangents, axis=1, keepdims=True)
    tangents = tangents / np.maximum(norms, 1e-9)
    window = 7
    centroids = np.empty_like(ca)
    for i in range(n):
        lo = max(0, i - window)
        hi = min(n, i + window + 1)
        centroids[i] = ca[lo:hi].mean(axis=0)
    outward = ca - centroids
    # Remove the tangential component; renormalize.
    outward -= (np.einsum("ij,ij->i", outward, tangents))[:, None] * tangents
    lens = np.linalg.norm(outward, axis=1, keepdims=True)
    fallback = np.cross(tangents, np.array([0.0, 0.0, 1.0]))
    fl = np.linalg.norm(fallback, axis=1, keepdims=True)
    fallback = np.where(fl > 1e-6, fallback / np.maximum(fl, 1e-9), [1.0, 0.0, 0.0])
    outward = np.where(lens > 1e-6, outward / np.maximum(lens, 1e-9), fallback)
    binormal = np.cross(tangents, outward)

    helix_mask = np.array(
        [r.secondary == SecondaryStructure.HELIX for r in topology.residues]
    )

    for res in topology.residues:
        i = res.index
        t, o, b = tangents[i], outward[i], binormal[i]
        base = res.atom_start
        # Backbone: N behind, C ahead, O off the carbonyl carbon.
        coords[base + 0] = ca[i] - 1.46 * t + 0.45 * b  # N
        coords[base + 1] = ca[i]  # CA
        coords[base + 2] = ca[i] + 1.52 * t + 0.45 * b  # C
        if helix_mask[i] and i + 4 < n and helix_mask[i + 4]:
            # Helical carbonyl: O(i) points at N(i+4) — the i→i+4 backbone
            # hydrogen bond (~2.9 Å) that dominates intra-helix contacts.
            n_next = ca[i + 4] - 1.46 * tangents[i + 4] + 0.45 * binormal[i + 4]
            direction = n_next - ca[i]
            span = np.linalg.norm(direction)
            coords[base + 3] = (
                ca[i] + direction / max(span, 1e-9) * max(span - 2.9, 1.0)
            )
        else:
            coords[base + 3] = ca[i] + 1.52 * t + 0.45 * b + 1.23 * o  # O
        # Side chain: extend outward with slight spiral + jitter.
        k = res.atom_count - 4
        for j in range(k):
            reach = sidechain_reach * (1.0 + 0.55 * j)
            swirl = 0.35 * j
            direction = (
                np.cos(swirl) * o + np.sin(swirl) * b + 0.15 * t
            )
            direction /= np.linalg.norm(direction)
            jitter = rng.normal(scale=0.25, size=3)
            coords[base + 4 + j] = ca[i] + reach * direction + jitter
    return coords


class StructureBuilder:
    """Convenience wrapper tying a topology + fold plan to coordinates.

    Examples
    --------
    >>> from repro.md import proteins
    >>> topo, coords = proteins.build("2JOF")
    >>> coords.shape[1]
    3
    """

    def __init__(
        self,
        topology: Topology,
        placements: list[SegmentPlacement],
        *,
        seed: int | None = 1234,
        sidechain_reach: float = 1.6,
    ):
        self._topology = topology
        self._placements = placements
        self._seed = seed
        self._reach = sidechain_reach

    def build(self) -> np.ndarray:
        """Full heavy-atom native structure, ``(n_atoms, 3)`` in Å."""
        ca = build_ca_trace(self._topology, self._placements, seed=self._seed)
        return build_structure(
            self._topology, ca, seed=self._seed, sidechain_reach=self._reach
        )

    @property
    def topology(self) -> Topology:
        """The topology being built."""
        return self._topology
