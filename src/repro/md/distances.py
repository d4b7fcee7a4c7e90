"""Residue-residue distance kernels — the protein→RIN translation core.

Implements the three distance criteria from paper §IV:

* ``ca``  — distance between C-alpha atoms,
* ``com`` — distance between residue centres of mass,
* ``min`` — minimum distance over all heavy-atom pairs of the residues.

``ca`` and ``com`` reduce each residue to one point and call the
BLAS-backed Gram-matrix kernel
(:func:`repro.graphkit.kernels.pairwise_distances`). ``min`` is a
residue-blocked kernel that never forms the ``n_atoms × n_atoms``
distance matrix: it folds squared atom distances slot by slot into an
``(n_res, n_atoms)`` running minimum, so its temporaries stay about
``n_atoms / n_res`` times smaller than the all-atom matrix, and takes
the square root over the ``n_res²`` residue minima only. The result is
the same exact, dense residue matrix at every distance — no cut-off
bound — which is what a frame switch, a cut-off scan and
``edge_counts`` all read.
"""

from __future__ import annotations

import numpy as np

from ..graphkit.kernels import pairwise_distances
from .topology import Topology

__all__ = [
    "CRITERIA",
    "ca_distance_matrix",
    "com_distance_matrix",
    "min_distance_matrix",
    "residue_distance_matrix",
    "contact_pairs",
]

#: Valid distance criterion names.
CRITERIA = ("ca", "com", "min")


def ca_distance_matrix(topology: Topology, frame: np.ndarray) -> np.ndarray:
    """C-alpha pairwise distances, ``(n_res, n_res)`` in Å."""
    return pairwise_distances(frame[topology.ca_indices()])


def com_distance_matrix(topology: Topology, frame: np.ndarray) -> np.ndarray:
    """Residue centre-of-mass pairwise distances (mass-weighted)."""
    masses = topology.atom_masses()
    owner = topology.atom_residue_map()
    n_res = topology.n_residues
    total = np.bincount(owner, weights=masses, minlength=n_res)
    com = np.empty((n_res, 3))
    for axis in range(3):
        com[:, axis] = (
            np.bincount(owner, weights=masses * frame[:, axis], minlength=n_res)
            / total
        )
    return pairwise_distances(com)


#: Below this many residues in an atom slot, :func:`min_distance_matrix`
#: folds every remaining atom of those residues in one block: a long
#: tail of near-empty slots would otherwise cost one round of numpy calls
#: per atom of the largest residue.
_TAIL_RESIDUES = 8


def min_distance_matrix(topology: Topology, frame: np.ndarray) -> np.ndarray:
    """Minimum heavy-atom distance between every residue pair.

    Slot ``k`` holds the k-th atom of every residue that has one (the
    residues sorted by size, so those residues are a prefix). Each
    slot's squared distances to all atoms, ``(|a|² + |b|²) − 2·a·b`` as
    in :func:`~repro.graphkit.kernels.pairwise_distances`, fold into an
    ``(n_res, n_atoms)`` running minimum; once fewer than
    ``_TAIL_RESIDUES`` residues remain, their leftover atoms go in one
    block reduced per residue with ``minimum.reduceat``. Every atom is a
    row exactly once, so the work is ``n_atoms²`` whatever the residue
    sizes. One ``minimum.reduceat`` along the atom axis then gives the
    residue minima; clamping at 0 and ``sqrt`` are monotone, so taking
    them after the minimum gives the all-atom kernel's values.
    """
    frame = np.asarray(frame, dtype=np.float64)
    n_atoms = frame.shape[0]
    starts = np.asarray([r.atom_start for r in topology.residues], dtype=np.int64)
    n_res = starts.size
    counts = np.diff(starts, append=n_atoms)
    order = np.argsort(-counts, kind="stable")
    by_size_start, by_size_count = starts[order], counts[order]
    sq = np.einsum("ij,ij->i", frame, frame)
    # -2·a is exact, so (-2a)·b is exactly -2·(a·b) and the sum below
    # rounds as pairwise_distances' does.
    minus2 = -2.0 * frame
    near = np.empty((n_res, n_atoms))
    for k in range(by_size_count[0]):
        n_k = int(np.count_nonzero(by_size_count > k))
        tail = n_k < _TAIL_RESIDUES
        if tail:
            left = by_size_count[:n_k] - k
            seg = np.cumsum(left) - left
            rows = np.repeat(by_size_start[:n_k] + k - seg, left) + np.arange(left.sum())
        else:
            rows = by_size_start[:n_k] + k
        d2 = sq[rows][:, None] + sq
        d2 += minus2[rows] @ frame.T
        if tail:
            d2 = np.minimum.reduceat(d2, seg, axis=0)
        if k == 0:
            near[:n_k] = d2
        else:
            np.minimum(near[:n_k], d2, out=near[:n_k])
        if tail:
            break
    out = np.empty((n_res, n_res))
    out[order] = np.minimum.reduceat(near, starts, axis=1)
    np.maximum(out, 0.0, out=out)
    np.fill_diagonal(out, 0.0)
    return np.sqrt(out, out=out)


def residue_distance_matrix(
    topology: Topology, frame: np.ndarray, criterion: str = "min"
) -> np.ndarray:
    """Dispatch on the distance criterion name ('ca', 'com', 'min').

    ``frame`` must be ``(topology.n_atoms, 3)`` and finite; anything else
    raises :class:`ValueError` instead of a matrix over the wrong atoms.
    """
    frame = np.asarray(frame, dtype=np.float64)
    if frame.shape != (topology.n_atoms, 3):
        raise ValueError(
            f"frame must have shape ({topology.n_atoms}, 3) for "
            f"{topology.name!r}, got {frame.shape}"
        )
    if not np.isfinite(frame).all():
        atom = int(np.argwhere(~np.isfinite(frame))[0, 0])
        raise ValueError(f"non-finite coordinate at atom {atom}")
    if criterion == "ca":
        return ca_distance_matrix(topology, frame)
    if criterion == "com":
        return com_distance_matrix(topology, frame)
    if criterion == "min":
        return min_distance_matrix(topology, frame)
    raise ValueError(f"unknown criterion {criterion!r}; use one of {CRITERIA}")


def contact_pairs(
    distance_matrix: np.ndarray,
    cutoff: float,
    *,
    min_sequence_separation: int = 1,
) -> np.ndarray:
    """Residue pairs (u < v) within ``cutoff`` Å.

    ``min_sequence_separation`` excludes trivially adjacent pairs below
    the given |u - v| (1 keeps chain neighbours, 2 drops them, ...).
    """
    if not cutoff > 0:  # also rejects NaN
        raise ValueError(f"cutoff must be positive, got {cutoff}")
    n = distance_matrix.shape[0]
    iu, iv = np.triu_indices(n, k=max(1, int(min_sequence_separation)))
    mask = distance_matrix[iu, iv] <= cutoff
    return np.column_stack([iu[mask], iv[mask]]).astype(np.int64)
