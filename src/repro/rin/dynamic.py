"""DynamicRIN — incremental RIN updates for the interactive widget.

The paper's widget never rebuilds the network from scratch when a slider
moves: "Both routines consist of adding/removing edges and recomputing the
Maxent-Stress layout phase" (§V-B). :class:`DynamicRIN` is that edge-update
routine: it owns the residue node set and applies set diffs on cut-off or
frame switches, reporting how many edges changed.

Engine split (the twin-engine convention, see ``docs/ARCHITECTURE.md``):

* ``impl="vectorized"`` (default) keeps the edge set as sorted packed
  int64 keys and applies every diff to a double-buffered
  :class:`~repro.graphkit.csr.CSRSnapshotBuffer` — the published
  :attr:`csr` snapshot is rebuilt by a compiled merge
  (:meth:`~repro.graphkit.csr.CSRDelta.apply`), with **no per-edge Python
  dict mutation on the fast path**. The mutable dict-of-dicts
  :class:`~repro.graphkit.graph.Graph` survives as a *lazily synchronized
  view*: the first :attr:`graph` access after one or more updates replays
  the accumulated net diff, off the hot path.
* ``impl="reference"`` keeps the naive path: Python set algebra over
  tuple pairs and per-edge dict mutation, for differential testing.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from ..graphkit import Graph
from ..graphkit.csr import CSRDelta, CSRGraph, CSRSnapshotBuffer, pack_edge_keys
from ..graphkit.incremental import IncrementalMeasures, full_measures
from ..graphkit.service import scoped_executor
from ..md.trajectory import Trajectory
from .construction import RINBuilder
from .criteria import DistanceCriterion

__all__ = ["DynamicRIN", "EdgeUpdate"]

_MEASURE_IMPLS = ("incremental", "full")


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
        if not cutoff > 0:  # also rejects NaN
            raise ValueError(f"cutoff must be positive, got {cutoff}")
        if impl not in ("vectorized", "reference"):
            raise ValueError(f"impl must be 'vectorized' or 'reference', got {impl!r}")
        self._builder = RINBuilder(
            trajectory,
            criterion=criterion,
            min_sequence_separation=min_sequence_separation,
        )
        self._impl = impl
        self._frame = int(frame)
        self._cutoff = float(cutoff)
        trajectory.frame(self._frame)  # validates the index
        self._n = trajectory.topology.n_residues
        self._edge_keys = pack_edge_keys(
            self._n, self._builder.edges(self._frame, self._cutoff)
        )
        self._snapshots = CSRSnapshotBuffer(self._n, self._edge_keys)
        self._graph = Graph.from_edges(
            self._n, self._snapshots.current.edge_array()
        )
        # Keys the dict-graph view currently reflects (vectorized engine
        # defers replay until someone asks for the mutable graph).
        self._synced_keys = self._edge_keys
        # The maintained-measure engine and the keys it reflects; both
        # are lazy (created/advanced on first read after updates), so a
        # burst of slider moves costs one combined delta apply.
        self._measures: IncrementalMeasures | None = None
        self._measures_keys: np.ndarray | None = None
        # Guards every read/advance of the lazily-synced views (the dict
        # graph and the measure engine) against the snapshot/key state a
        # worker thread mutates: a reader mid-delta sees either the old
        # or the new state, never a torn mix, and two concurrent syncs
        # can never replay the same diff twice.
        self._state_lock = threading.RLock()

    # ------------------------------------------------------------------
    @property
    def graph(self) -> Graph:
        """The mutable dict-of-dicts RIN view (synchronized on access).

        Object identity is stable across updates: the widget may keep a
        handle. Under the vectorized engine the view is synchronized
        lazily — accessing it after slider moves replays the accumulated
        net edge diff (the naive per-edge path, deliberately off the
        interactive fast path; use :attr:`csr` there). Synchronization
        runs under the state lock, so reading the view while a worker
        thread applies deltas is safe.
        """
        with self._state_lock:
            self._sync_graph()
            return self._graph

    @property
    def csr(self) -> CSRGraph:
        """The current immutable CSR snapshot (the analytics fast path)."""
        return self._snapshots.current

    @property
    def snapshots(self) -> CSRSnapshotBuffer:
        """The double-buffered snapshot store behind :attr:`csr`."""
        return self._snapshots

    @property
    def measures(self) -> IncrementalMeasures:
        """The maintained measure engine, synced to the current state.

        Degree, weighted degree, core numbers and component labels are
        maintained *incrementally* across slider moves: reading after a
        burst of updates applies one net delta (bounded k-core repair,
        component re-scan/union) instead of recomputing per snapshot.
        Never advanced on the slider fast path — only on access.
        """
        with self._state_lock:
            return self._sync_measures()

    def _measure_read(self, impl: str, key: str):
        if impl not in _MEASURE_IMPLS:
            raise ValueError(f"impl must be one of {_MEASURE_IMPLS}, got {impl!r}")
        with self._state_lock:
            if impl == "full":
                return full_measures(self._snapshots.current)[key]
            return getattr(self._sync_measures(), key)()

    def degrees(self, *, impl: str = "incremental") -> np.ndarray:
        """Per-node degree; ``impl="full"`` recomputes from the snapshot."""
        return self._measure_read(impl, "degrees")

    def weighted_degrees(self, *, impl: str = "incremental") -> np.ndarray:
        """Per-node strength; ``impl="full"`` recomputes from the snapshot."""
        return self._measure_read(impl, "weighted_degrees")

    def core_numbers(self, *, impl: str = "incremental") -> np.ndarray:
        """Per-node coreness; ``impl="full"`` runs the bulk peel afresh."""
        return self._measure_read(impl, "core_numbers")

    def components(self, *, impl: str = "incremental") -> tuple[int, np.ndarray]:
        """Component count and canonical labels (smallest-member ids)."""
        if impl not in _MEASURE_IMPLS:
            raise ValueError(f"impl must be one of {_MEASURE_IMPLS}, got {impl!r}")
        with self._state_lock:
            if impl == "full":
                state = full_measures(self._snapshots.current)
                return state["component_count"], state["component_labels"]
            engine = self._sync_measures()
            return engine.component_count, engine.component_labels()

    def measure_summary(self) -> dict[str, float]:
        """One consistent topology summary off maintained state.

        Engine sync and every read happen under the state lock, so the
        summary is a snapshot of *one* state even while a worker thread
        applies deltas — individual reads taken back to back could
        otherwise straddle an update.
        """
        with self._state_lock:
            engine = self._sync_measures()
            degs = engine.degrees()
            return {
                "edges": float(len(self._edge_keys)),
                "components": float(engine.component_count),
                "max_coreness": float(engine.max_core_number()),
                "mean_degree": float(degs.mean()) if len(degs) else 0.0,
            }

    @property
    def n_edges(self) -> int:
        """Edge count of the current state (O(1), no graph sync)."""
        return len(self._edge_keys)

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
    def _sync_graph(self) -> None:
        """Replay pending key diffs into the mutable dict graph (lazy).

        Caller must hold :attr:`_state_lock` — without it a reader racing
        a worker-thread delta could replay a diff against keys that no
        longer match the marker, permanently corrupting the dict view.
        """
        target = self._edge_keys
        if self._synced_keys is target:
            return
        add = np.setdiff1d(target, self._synced_keys, assume_unique=True)
        remove = np.setdiff1d(self._synced_keys, target, assume_unique=True)
        self._graph.update_edges(
            add=zip(*divmod(add, self._n)) if len(add) else (),
            remove=zip(*divmod(remove, self._n)) if len(remove) else (),
        )
        self._synced_keys = target

    def _sync_measures(self) -> IncrementalMeasures:
        """Advance the maintained-measure engine to the current keys (lazy).

        Caller must hold :attr:`_state_lock`. A burst of slider moves is
        folded into one net :class:`~repro.graphkit.csr.CSRDelta`; the
        engine repairs core numbers along it (or full-peels when the net
        delta is large) and re-scans/unions components — see
        ``docs/ARCHITECTURE.md``, *The incremental measure engine*.
        """
        target = self._edge_keys
        if self._measures is None:
            self._measures = IncrementalMeasures(self._n, self._snapshots.current)
        elif self._measures_keys is not target:
            delta = CSRDelta.between(self._n, self._measures_keys, target)
            self._measures.apply(delta, self._snapshots.current)
        self._measures_keys = target
        return self._measures

    def _apply_target(self, target_edges: np.ndarray) -> EdgeUpdate:
        """Diff the current edge set against ``target_edges`` and apply."""
        with self._state_lock:
            if self._impl == "reference":
                # Naive path: set algebra over tuple pairs, per-edge dict
                # mutation — kept as the differential-testing twin.
                current = self._graph.edge_set()
                target = {(int(u), int(v)) for u, v in target_edges}
                to_add = target - current
                to_remove = current - target
                added, removed = self._graph.update_edges(
                    add=to_add, remove=to_remove
                )
                self._edge_keys = pack_edge_keys(self._n, self._graph.edge_array())
                self._synced_keys = self._edge_keys
                self._snapshots.reset(self._edge_keys)
                return EdgeUpdate(added=added, removed=removed)
            # Fast path: sorted-key set differences (two compiled merges)
            # and a CSR delta-apply into the double-buffered snapshot.
            # Neither the dict graph nor the measure engine is touched
            # here — both sync lazily on access.
            target_keys = pack_edge_keys(
                self._n, np.asarray(target_edges, dtype=np.int64)
            )
            delta = self._snapshots.delta_to(target_keys)
            self._snapshots.apply(delta)
            self._edge_keys = target_keys
            return EdgeUpdate(added=delta.added, removed=delta.removed)

    def set_cutoff(self, cutoff: float) -> EdgeUpdate:
        """Move the cut-off slider; returns the applied edge diff."""
        if not cutoff > 0:  # also rejects NaN
            raise ValueError(f"cutoff must be positive, got {cutoff}")
        update = self._apply_target(self._builder.edges(self._frame, cutoff))
        self._cutoff = float(cutoff)
        return update

    def set_frame(self, frame: int) -> EdgeUpdate:
        """Move the trajectory slider; returns the applied edge diff."""
        self.trajectory.frame(frame)  # validates
        update = self._apply_target(self._builder.edges(int(frame), self._cutoff))
        self._frame = int(frame)
        return update

    def set_state(self, *, frame: int | None = None, cutoff: float | None = None) -> EdgeUpdate:
        """Atomically update both sliders (one edge diff)."""
        new_frame = self._frame if frame is None else int(frame)
        new_cutoff = self._cutoff if cutoff is None else float(cutoff)
        if not new_cutoff > 0:  # also rejects NaN
            raise ValueError(f"cutoff must be positive, got {new_cutoff}")
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
    ) -> "CutoffScan":
        """Cut-off sweep of the *current frame* (the widget's scan view).

        Reuses the builder's cached residue-distance matrix — a scan
        issued right after slider moves costs zero distance computations —
        and runs the sharded descriptor sweep from
        :mod:`~repro.rin.scanning` (``workers``/``executor`` as in
        :func:`~repro.rin.scanning.cutoff_scan`; ``workers=0`` stays
        serial and in-process).
        """
        from ..graphkit.kernels import sorted_contact_order
        from .scanning import (
            CutoffScan,
            _validated_cutoffs,
            scan_sorted_contacts,
        )

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
        """Rebuild from scratch (reference implementation for testing)."""
        with self._state_lock:
            self._graph = self._builder.build(self._frame, self._cutoff)
            self._edge_keys = pack_edge_keys(self._n, self._graph.edge_array())
            self._synced_keys = self._edge_keys
            self._snapshots.reset(self._edge_keys)
            return self._graph
