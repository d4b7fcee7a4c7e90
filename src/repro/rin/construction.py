"""RIN construction: trajectory frame + criterion + cut-off → Graph.

Nodes are residues, an edge joins residues whose distance (under the
selected criterion) is within the cut-off — the unweighted undirected RIN
of paper §IV.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from ..graphkit import Graph
from ..md.distances import contact_pairs, residue_distance_matrix
from ..md.topology import Topology
from ..md.trajectory import Trajectory
from .criteria import DistanceCriterion, check_cutoff

__all__ = ["build_rin", "RINBuilder"]


def build_rin(
    topology: Topology,
    frame: np.ndarray,
    cutoff: float,
    *,
    criterion: DistanceCriterion | str = DistanceCriterion.MINIMUM,
    min_sequence_separation: int = 1,
) -> Graph:
    """Build the RIN of one structure frame.

    Parameters
    ----------
    topology / frame:
        The protein and one ``(n_atoms, 3)`` coordinate frame.
    cutoff:
        Contact cut-off in Å.
    criterion:
        Distance definition (:class:`DistanceCriterion` or its string).
    min_sequence_separation:
        Minimum |i - j| for a contact to become an edge (1 keeps chain
        neighbours).
    """
    crit = DistanceCriterion.parse(criterion)
    dm = residue_distance_matrix(topology, frame, crit.value)
    pairs = contact_pairs(
        dm, cutoff, min_sequence_separation=min_sequence_separation
    )
    return Graph.from_edges(topology.n_residues, pairs)


class RINBuilder:
    """Reusable builder bound to a trajectory.

    Caches the residue-distance matrices of the ``cache_size`` most
    recently used frames, so repeated cut-off sweeps on the same frame —
    exactly what the widget's cut-off slider generates — cost one
    thresholding pass instead of a full distance computation.
    """

    def __init__(
        self,
        trajectory: Trajectory,
        *,
        criterion: DistanceCriterion | str = DistanceCriterion.MINIMUM,
        min_sequence_separation: int = 1,
        cache_size: int = 8,
    ):
        self._trajectory = trajectory
        self._criterion = DistanceCriterion.parse(criterion)
        self._min_sep = int(min_sequence_separation)
        self._cache_size = max(1, cache_size)
        # Per-frame cache in least-recently-used order: the condensed
        # upper-triangle distance vector (a cut-off/frame switch thresholds
        # this flat array instead of re-gathering the matrix) and, beside
        # it, the matrix itself. One upper-triangle index pair serves every
        # frame of the topology.
        self._condensed: OrderedDict[int, np.ndarray] = OrderedDict()
        self._matrices: dict[int, np.ndarray] = {}
        self._triu: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def trajectory(self) -> Trajectory:
        """The bound trajectory."""
        return self._trajectory

    @property
    def criterion(self) -> DistanceCriterion:
        """The active distance criterion."""
        return self._criterion

    @property
    def min_sequence_separation(self) -> int:
        """Minimum |i - j| for a contact to become an edge."""
        return self._min_sep

    def distance_matrix(self, frame: int) -> np.ndarray:
        """Residue-distance matrix of ``frame`` (LRU-cached)."""
        self._condensed_distances(frame)
        return self._matrices[frame]

    def _condensed_distances(self, frame: int) -> np.ndarray:
        """Upper-triangle distance vector of ``frame``; a hit becomes the
        most recently used entry, a miss evicts the least recently used."""
        cond = self._condensed.get(frame)
        if cond is not None:
            self._condensed.move_to_end(frame)
            return cond
        dm = residue_distance_matrix(
            self._trajectory.topology,
            self._trajectory.frame(frame),
            self._criterion.value,
        )
        if self._triu is None:
            self._triu = np.triu_indices(dm.shape[0], k=max(1, self._min_sep))
        cond = self._condensed[frame] = dm[self._triu]
        self._matrices[frame] = dm
        if len(self._condensed) > self._cache_size:
            evicted, _ = self._condensed.popitem(last=False)
            del self._matrices[evicted]
        return cond

    def edges(self, frame: int, cutoff: float) -> np.ndarray:
        """Contact pairs of ``frame`` at ``cutoff`` (``(m, 2)`` array)."""
        cutoff = check_cutoff(cutoff)
        d = self._condensed_distances(frame)
        assert self._triu is not None
        mask = d <= cutoff
        iu, iv = self._triu
        return np.column_stack([iu[mask], iv[mask]]).astype(np.int64)

    def build(self, frame: int, cutoff: float) -> Graph:
        """Materialize the RIN graph of ``frame`` at ``cutoff``."""
        return Graph.from_edges(
            self._trajectory.topology.n_residues, self.edges(frame, cutoff)
        )

    def edge_counts(self, cutoffs: np.ndarray, frame: int = 0) -> np.ndarray:
        """Edge count per cut-off — the topology-vs-cutoff profile of §IV."""
        d = np.sort(self._condensed_distances(frame))
        return np.searchsorted(d, np.asarray(cutoffs), side="right")
