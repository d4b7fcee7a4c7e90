"""Residue-residue distance kernels — the protein→RIN translation core.

Implements the three distance criteria from paper §IV:

* ``ca``  — distance between C-alpha atoms,
* ``com`` — distance between residue centres of mass,
* ``min`` — minimum distance over all heavy-atom pairs of the residues.

``ca`` and ``com`` reduce each residue to one point and call the
BLAS-backed Gram-matrix kernel
(:func:`repro.graphkit.kernels.pairwise_distances`). ``min`` never forms
the ``n_atoms × n_atoms`` distance matrix: with the atoms in a slot-major
order fixed once per topology, each atom slot is one GEMM against the
atoms of the same and higher slots only, folded into an
``(n_atoms, n_res)`` running minimum, and the residue minima are one
elementwise minimum per slot. Every criterion centres the coordinates
first, so its result does not depend on where the protein sits, and
returns an exactly symmetric matrix. The result is the exact, dense
residue matrix at every distance — no cut-off bound — which is what a
frame switch, a cut-off scan and ``edge_counts`` all read.
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


def _slot_plan(topology: Topology):
    """``(inverse, perm, widths, tail)`` of :func:`min_distance_matrix`.

    The residues sorted by atom count, largest first (``inverse`` undoes
    that order), so the residues that have a k-th atom are a prefix.
    ``perm`` lists the atoms slot-major: slot ``k`` holds the k-th atom
    of each of the first ``widths[k]`` residues, so slot 0 holds them
    all. Once fewer than ``_TAIL_RESIDUES`` residues are left, their
    remaining atoms follow residue by residue, from the offsets
    ``tail``. Built once per topology, as :meth:`Topology.ca_indices` is.
    """
    if topology._slot_plan is None:
        starts = np.asarray([r.atom_start for r in topology.residues], dtype=np.int64)
        counts = np.diff(starts, append=topology.n_atoms)
        order = np.argsort(-counts, kind="stable")
        start, count = starts[order], counts[order]
        widths, parts = [], []
        for k in range(count[0]):
            n_k = int(np.count_nonzero(count > k))
            if k and n_k < _TAIL_RESIDUES:
                break
            widths.append(n_k)
            parts.append(start[:n_k] + k)
        k = len(widths)
        left = count[count > k] - k
        tail = np.cumsum(left) - left
        first = np.repeat(start[: left.size] + k - tail, left)
        parts.append(first + np.arange(left.sum()))
        perm = np.concatenate(parts)
        topology._slot_plan = (np.argsort(order), perm, tuple(widths), tail)
    return topology._slot_plan


def min_distance_matrix(topology: Topology, frame: np.ndarray) -> np.ndarray:
    """Minimum heavy-atom distance between every residue pair.

    The frame is centred on its mean, so the result does not depend on
    where the protein sits, and its atoms are put in the slot-major
    order of :func:`_slot_plan`. ``near[a, r]`` is the running minimum
    of squared distances from atom ``a`` to the atoms of residue ``r``
    (both in plan order). Slot ``k`` is one GEMM: ``[-2x, 1, |x|²]`` of
    the atoms in slots ``>= k`` times ``[x, |x|², 1]ᵀ`` of slot ``k``
    gives ``|a|² + |b|² − 2·a·b`` directly, into a reused buffer that
    one ``np.minimum`` folds into ``near``. The tail is one GEMM too,
    its columns reduced per residue with ``minimum.reduceat``.

    Each atom pair is computed once, in the GEMM of its lower slot, so
    the residue minima are one ``np.minimum`` per slot over ``near``'s row
    blocks, and a residue pair's minimum is the smaller of its two
    entries: ``np.minimum(m, m.T)``, which also makes the result exactly
    symmetric. Clamping at 0 and ``sqrt`` are monotone, so taking them
    after the minimum gives the all-atom kernel's values.
    """
    inverse, perm, widths, tail = _slot_plan(topology)
    x = np.asarray(frame, dtype=np.float64)[perm]
    x -= x.mean(axis=0)
    n_atoms, n_res = x.shape[0], inverse.size
    lhs, rhs = np.empty((n_atoms, 5)), np.empty((n_atoms, 5))
    np.multiply(x, -2.0, out=lhs[:, :3])
    rhs[:, :3] = x
    lhs[:, 4] = rhs[:, 3] = np.einsum("ij,ij->i", x, x)
    lhs[:, 3] = rhs[:, 4] = 1.0
    near = lhs @ rhs[:n_res].T
    buf = np.empty(n_atoms * n_res)
    off = n_res
    for w in widths[1:]:
        block = buf[: (n_atoms - off) * w].reshape(n_atoms - off, w)
        np.matmul(lhs[off:], rhs[off : off + w].T, out=block)
        np.minimum(near[off:, :w], block, out=near[off:, :w])
        off += w
    t = tail.size
    if t:
        block = np.minimum.reduceat(lhs[off:] @ rhs[off:].T, tail, axis=1)
        np.minimum(near[off:, :t], block, out=near[off:, :t])
    out = near[:n_res].copy()
    off = n_res
    for w in widths[1:]:
        np.minimum(out[:w], near[off : off + w], out=out[:w])
        off += w
    if t:
        block = np.minimum.reduceat(near[off:], tail, axis=0)
        np.minimum(out[:t], block, out=out[:t])
    out = np.minimum(out, out.T)[inverse][:, inverse]
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
