"""DynamicRIN — incremental RIN updates for the interactive widget.

The paper's widget never rebuilds the network from scratch when a slider
moves: "Both routines consist of adding/removing edges and recomputing the
Maxent-Stress layout phase" (§V-B). :class:`DynamicRIN` is that edge-update
routine: it owns the residue node set and applies set diffs on cut-off or
frame switches, reporting how many edges changed.

Engine split (the twin-engine convention, see ``docs/ARCHITECTURE.md``):

* ``impl="vectorized"`` (default) keeps the edge set as sorted packed
  int64 keys in a double-buffered
  :class:`~repro.graphkit.csr.CSRSnapshotBuffer` and applies every diff
  by a compiled merge (:meth:`~repro.graphkit.csr.CSRDelta.apply`). The
  keys and the published :attr:`csr` snapshot are the RIN's only edge
  representation: there is no mutable graph to keep in sync.
* ``impl="reference"`` keeps the naive path: Python set algebra over
  tuple pairs decoded from the keys, then a wholesale snapshot reset,
  for differential testing.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from ..graphkit import Graph
from ..graphkit.csr import CSRGraph, CSRSnapshotBuffer, pack_edge_keys
from ..graphkit.kernels import sorted_contact_order
from ..graphkit.service import scoped_executor
from ..md.trajectory import Trajectory
from .construction import RINBuilder
from .criteria import DistanceCriterion, check_cutoff
from .scanning import CutoffScan, _validated_cutoffs, scan_sorted_contacts

__all__ = ["DynamicRIN", "EdgeUpdate"]


@dataclass(frozen=True)
class EdgeUpdate:
    """Result of one incremental update."""

    added: int
    removed: int

    @property
    def total(self) -> int:
        """Number of touched edges."""
        return self.added + self.removed


class DynamicRIN:
    """A RIN that follows the widget's (frame, cutoff) state.

    The edge diff between the current and target contact sets is computed
    on packed int64 edge keys (``u * n + v``) with sorted set differences
    and applied to a double-buffered CSR snapshot
    (``impl="vectorized"``, default) — Python-level set algebra over tuple
    pairs remains available as ``impl="reference"`` for differential
    testing. Only the (typically small) diff is ever materialized.

    Examples
    --------
    >>> from repro.md import proteins, generate_trajectory
    >>> topo, native = proteins.build("2JOF")
    >>> traj = generate_trajectory(topo, native, 10, seed=1)
    >>> rin = DynamicRIN(traj, frame=0, cutoff=4.5)
    >>> update = rin.set_cutoff(6.0)   # adds edges only
    >>> update.removed
    0
    """

    def __init__(
        self,
        trajectory: Trajectory,
        *,
        frame: int = 0,
        cutoff: float = 4.5,
        criterion: DistanceCriterion | str = DistanceCriterion.MINIMUM,
        min_sequence_separation: int = 1,
        impl: str = "vectorized",
    ):
        cutoff = check_cutoff(cutoff)
        if impl not in ("vectorized", "reference"):
            raise ValueError(f"impl must be 'vectorized' or 'reference', got {impl!r}")
        self._builder = RINBuilder(
            trajectory,
            criterion=criterion,
            min_sequence_separation=min_sequence_separation,
        )
        self._impl = impl
        self._frame = int(frame)
        self._cutoff = cutoff
        trajectory.frame(self._frame)  # validates the index
        self._n = trajectory.topology.n_residues
        self._snapshots = CSRSnapshotBuffer(
            self._n,
            pack_edge_keys(self._n, self._builder.edges(self._frame, cutoff)),
        )
        # Guards the snapshot writes (slider diffs on the async worker,
        # rebuild() on the caller's thread): the key diff and the buffer
        # swap happen as one step, so two writers never diff against
        # keys the other has already replaced.
        self._state_lock = threading.RLock()

    # ------------------------------------------------------------------
    @property
    def csr(self) -> CSRGraph:
        """The current immutable CSR snapshot: the RIN every analytic reads."""
        return self._snapshots.current

    @property
    def snapshots(self) -> CSRSnapshotBuffer:
        """The double-buffered snapshot store behind :attr:`csr`."""
        return self._snapshots

    @property
    def n_edges(self) -> int:
        """Edge count of the current state (O(1))."""
        return len(self._snapshots.keys)

    @property
    def frame(self) -> int:
        """Current trajectory frame."""
        return self._frame

    @property
    def cutoff(self) -> float:
        """Current cut-off (Å)."""
        return self._cutoff

    @property
    def builder(self) -> RINBuilder:
        """The underlying (cache-carrying) builder."""
        return self._builder

    @property
    def trajectory(self) -> Trajectory:
        """The trajectory being explored."""
        return self._builder.trajectory

    def positions(self) -> np.ndarray:
        """C-alpha coordinates of the current frame (the protein layout)."""
        return self.trajectory.ca_coordinates(self._frame)

    # ------------------------------------------------------------------
    def _apply_target(self, target_edges: np.ndarray) -> EdgeUpdate:
        """Diff the current edge set against ``target_edges`` and apply."""
        with self._state_lock:
            if self._impl == "reference":
                # Naive path: set algebra over tuple pairs — kept as the
                # differential-testing twin.
                u, v = np.divmod(self._snapshots.keys, self._n)
                current = set(zip(u.tolist(), v.tolist()))
                target = {(int(a), int(b)) for a, b in target_edges}
                to_add = target - current
                to_remove = current - target
                new_edges = list((current - to_remove) | to_add)
                self._snapshots.reset(pack_edge_keys(self._n, new_edges))
                return EdgeUpdate(added=len(to_add), removed=len(to_remove))
            # Fast path: sorted-key set differences (two compiled merges)
            # and a CSR delta-apply into the double-buffered snapshot.
            target_keys = pack_edge_keys(
                self._n, np.asarray(target_edges, dtype=np.int64)
            )
            delta = self._snapshots.delta_to(target_keys)
            self._snapshots.apply(delta)
            return EdgeUpdate(added=delta.added, removed=delta.removed)

    def set_cutoff(self, cutoff: float) -> EdgeUpdate:
        """Move the cut-off slider; returns the applied edge diff."""
        return self.set_state(cutoff=cutoff)

    def set_frame(self, frame: int) -> EdgeUpdate:
        """Move the trajectory slider; returns the applied edge diff."""
        return self.set_state(frame=frame)

    def set_state(self, *, frame: int | None = None, cutoff: float | None = None) -> EdgeUpdate:
        """Atomically update both sliders (one edge diff).

        Both values are validated before anything changes: a rejected
        move (``ValueError`` for the cut-off, ``IndexError`` for the
        frame) leaves the RIN exactly as it was.
        """
        new_frame = self._frame if frame is None else int(frame)
        new_cutoff = self._cutoff if cutoff is None else check_cutoff(cutoff)
        self.trajectory.frame(new_frame)
        update = self._apply_target(self._builder.edges(new_frame, new_cutoff))
        self._frame, self._cutoff = new_frame, new_cutoff
        return update

    def scan(
        self,
        cutoffs: np.ndarray | list[float],
        *,
        workers: int | None = 0,
        executor=None,
    ) -> CutoffScan:
        """Cut-off sweep of the *current frame* (the widget's scan view).

        Reuses the builder's cached residue-distance matrix — a scan
        issued right after slider moves costs zero distance computations —
        and runs the sharded descriptor sweep from
        :mod:`~repro.rin.scanning` (``workers``/``executor`` as in
        :func:`~repro.rin.scanning.cutoff_scan`; ``workers=0`` stays
        serial and in-process).
        """
        cutoffs = _validated_cutoffs(cutoffs)
        dm = self._builder.distance_matrix(self._frame)
        pairs, sorted_d = sorted_contact_order(
            dm, min_separation=self._builder.min_sequence_separation
        )
        with scoped_executor(workers, executor) as ex:
            arrays = scan_sorted_contacts(
                self._n, pairs, sorted_d, cutoffs, executor=ex
            )
        return CutoffScan(self._builder.criterion.value, cutoffs, *arrays)

    def rebuild(self) -> Graph:
        """Rebuild from scratch (reference implementation for testing).

        Resets the snapshot to the fresh build's edges and returns that
        graph; the RIN keeps no reference to it.
        """
        with self._state_lock:
            graph = self._builder.build(self._frame, self._cutoff)
            self._snapshots.reset(pack_edge_keys(self._n, graph.edge_array()))
            return graph
