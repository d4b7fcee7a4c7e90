"""Cut-off scanning (Da Silveira et al. 2009, cited in paper §IV).

"It has been shown that the choice of the distance criterion can
influence which secondary structure features are emphasized and changes
in the distance cut-off can drastically alter the RIN topology, e.g.
influencing the number of hubs and connected components."

:func:`cutoff_scan` makes that analysis one call: sweep the cut-off and
collect per-value topology descriptors; :func:`trajectory_cutoff_scan`
extends the sweep along the time axis (one scan per frame);
:func:`criterion_comparison` contrasts the three distance criteria at
equivalent densities.

Execution model (see ``docs/ARCHITECTURE.md``, *The sharded scanning
engine*): the per-cut-off descriptor loop and multi-frame scans are
expressed as pure **shard functions** over frozen shared-memory arrays
(the sorted contact order for one frame, the coordinate block for a
trajectory) and dispatched through a
:class:`~repro.graphkit.service.ComputeService` lease. ``workers=0``
(default) runs the same shard functions serially in-process; any
``workers > 0`` run is bit-identical because every descriptor is a pure
function of the cut-off's edge set — component counts come from an
:class:`~repro.graphkit.components.IncrementalUnionFind` whose canonical
labels are independent of shard boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from ..graphkit import core_decomposition, local_clustering
from ..graphkit.components import connected_components
from ..graphkit.csr import CSRDelta, CSRSnapshotBuffer, pack_edge_keys
from ..graphkit.incremental import IncrementalMeasures
from ..graphkit.kernels import sorted_contact_order
from ..graphkit.parallel import chunk_ranges
from ..graphkit.service import scoped_executor
from ..md.distances import residue_distance_matrix
from ..md.topology import Topology
from ..graphkit.layout import maxent_stress_layout, maxent_stress_value
from .analysis import hubs
from .construction import build_rin
from .criteria import DistanceCriterion, check_cutoff

__all__ = [
    "CutoffScan",
    "TrajectoryScan",
    "TrajectoryLayoutScan",
    "cutoff_scan",
    "trajectory_cutoff_scan",
    "trajectory_layout_scan",
    "criterion_comparison",
    "LAYOUT_CHAIN_LENGTH",
]

_IMPLEMENTATIONS = ("vectorized", "reference")

#: Column order of the descriptor arrays a shard returns.
_DESCRIPTORS = (
    "edges",
    "components",
    "hubs",
    "mean_degree",
    "max_coreness",
    "mean_clustering",
)


@dataclass
class CutoffScan:
    """Topology descriptors per scanned cut-off (aligned arrays)."""

    criterion: str
    cutoffs: np.ndarray
    edges: np.ndarray
    components: np.ndarray
    hubs: np.ndarray
    mean_degree: np.ndarray
    max_coreness: np.ndarray
    mean_clustering: np.ndarray

    def percolation_cutoff(self) -> float:
        """Smallest scanned cut-off where the RIN becomes connected.

        Returns ``nan`` if the graph never connects within the scan.
        """
        connected = self.components == 1
        if not connected.any():
            return float("nan")
        return float(self.cutoffs[int(np.argmax(connected))])

    def rows(self) -> list[list]:
        """Table rows (for reporting)."""
        return [
            [
                f"{c:.2f}",
                int(e),
                int(k),
                int(h),
                f"{d:.2f}",
                int(core),
                f"{cl:.3f}",
            ]
            for c, e, k, h, d, core, cl in zip(
                self.cutoffs,
                self.edges,
                self.components,
                self.hubs,
                self.mean_degree,
                self.max_coreness,
                self.mean_clustering,
            )
        ]


@dataclass
class TrajectoryScan:
    """Cut-off scans of many frames: descriptor matrices ``[frame, cutoff]``."""

    criterion: str
    cutoffs: np.ndarray  # (n_cutoffs,)
    frames: np.ndarray  # (n_frames,) trajectory frame indices
    edges: np.ndarray  # (n_frames, n_cutoffs) int64
    components: np.ndarray
    hubs: np.ndarray
    mean_degree: np.ndarray
    max_coreness: np.ndarray
    mean_clustering: np.ndarray

    @property
    def n_frames(self) -> int:
        """Number of scanned frames."""
        return len(self.frames)

    def frame_scan(self, row: int) -> CutoffScan:
        """The :class:`CutoffScan` of the ``row``-th scanned frame."""
        return CutoffScan(
            criterion=self.criterion,
            cutoffs=self.cutoffs,
            edges=self.edges[row],
            components=self.components[row],
            hubs=self.hubs[row],
            mean_degree=self.mean_degree[row],
            max_coreness=self.max_coreness[row],
            mean_clustering=self.mean_clustering[row],
        )

    def percolation_series(self) -> np.ndarray:
        """Per-frame percolation cut-off (nan where never connected)."""
        return np.asarray(
            [self.frame_scan(i).percolation_cutoff() for i in range(self.n_frames)]
        )


#: Frames per warm-start chain of :func:`trajectory_layout_scan`. Chains
#: are the *determinism unit*: each chain's first frame is a cold solve
#: and every later frame warm-starts from its predecessor's coordinates,
#: so the partition must be a pure function of the frame list — never of
#: the worker count — for ``workers=0`` and ``workers=k`` to stay
#: bit-identical. Longer chains amortize more cold solves but serialize
#: more work per shard.
LAYOUT_CHAIN_LENGTH = 4


@dataclass
class TrajectoryLayoutScan:
    """Per-frame Maxent-Stress layouts of a trajectory sweep.

    ``coordinates[i]`` is the embedding of ``frames[i]``; ``stress[i]``
    its :func:`~repro.graphkit.layout.maxent_stress_value`; ``cold[i]``
    whether the frame opened a warm-start chain (cold solve) or carried
    the previous frame's coordinates.
    """

    cutoff: float
    criterion: str
    frames: np.ndarray  # (n_frames,) trajectory frame indices
    coordinates: np.ndarray  # (n_frames, n_residues, dim)
    stress: np.ndarray  # (n_frames,)
    cold: np.ndarray  # (n_frames,) bool

    @property
    def n_frames(self) -> int:
        """Number of laid-out frames."""
        return len(self.frames)

    def frame_coordinates(self, frame: int) -> np.ndarray:
        """The embedding of trajectory frame ``frame``."""
        rows = np.flatnonzero(self.frames == frame)
        if len(rows) == 0:
            raise KeyError(f"frame {frame} is not part of this scan")
        return self.coordinates[int(rows[0])]


# ----------------------------------------------------------------------
# shard functions (module-level: workers import them by reference)
# ----------------------------------------------------------------------
def _descriptor_rows(
    n_res: int,
    pairs: np.ndarray,
    sorted_d: np.ndarray,
    cutoffs: np.ndarray,
) -> tuple[np.ndarray, ...]:
    """Descriptor rows for ``cutoffs`` over one frame's sorted contacts.

    The edge set at cut-off ``c`` is a prefix of the distance-sorted
    contact order, so the walk folds each cut-off's *delta* into an
    incrementally maintained CSR snapshot and a delta-aware measure
    engine (:class:`~repro.graphkit.incremental.IncrementalMeasures`):
    degrees and component labels advance by vectorized delta folds, and
    core numbers carry forward too — traversal-bounded repair on small
    prefix steps, the vectorized full peel when a step is large. Per
    cut-off cost is sized by the delta (plus the O(n) descriptor
    reductions), never by re-accumulating the full edge set. Every
    descriptor is a pure function of the prefix edge set, which makes the
    rows independent of how a scan is split into shards.
    """
    k = len(cutoffs)
    edges = np.zeros(k, dtype=np.int64)
    comps = np.zeros(k, dtype=np.int64)
    hub_counts = np.zeros(k, dtype=np.int64)
    mean_deg = np.zeros(k)
    max_core = np.zeros(k, dtype=np.int64)
    mean_clust = np.zeros(k)
    prefix = np.searchsorted(sorted_d, cutoffs, side="right")
    snapshots = CSRSnapshotBuffer(n_res)
    engine = IncrementalMeasures(n_res)
    no_removals = np.empty(0, dtype=np.int64)
    prev = 0
    for i, m in enumerate(prefix):
        delta = CSRDelta(
            n_res,
            add_keys=pack_edge_keys(n_res, pairs[prev:m]),
            remove_keys=no_removals,
        )
        csr = snapshots.apply(delta)
        engine.apply(delta, csr)
        prev = m
        edges[i] = m
        comps[i] = engine.component_count
        degs = engine.degrees()
        hub_counts[i] = len(hubs(csr))
        mean_deg[i] = degs.mean() if len(degs) else 0.0
        max_core[i] = engine.max_core_number()
        mean_clust[i] = float(local_clustering(csr).mean()) if len(degs) else 0.0
    return edges, comps, hub_counts, mean_deg, max_core, mean_clust


def _cutoff_shard(payload: tuple, arrays: dict) -> tuple[np.ndarray, ...]:
    """Shard: descriptor rows for a contiguous cut-off slice of one frame.

    Shared arrays: ``pairs`` (contacts in ascending-distance order) and
    ``sorted_d`` (their distances) — frozen once per scan.
    """
    n_res, cutoffs_slice = payload
    return _descriptor_rows(n_res, arrays["pairs"], arrays["sorted_d"], cutoffs_slice)


def _frame_shard(payload: tuple, arrays: dict) -> tuple[np.ndarray, ...]:
    """Shard: full cut-off scans for a contiguous block of frames.

    Shared array: ``coords`` — the whole trajectory coordinate block,
    placed once; each worker slices only the frames it owns (zero-copy).
    """
    topology, criterion, cutoffs, frame_ids = payload
    coords = arrays["coords"]
    n_res = topology.n_residues
    rows = []
    for f in frame_ids:
        dm = residue_distance_matrix(topology, coords[int(f)], criterion)
        pairs, sorted_d = sorted_contact_order(dm, min_separation=1)
        rows.append(_descriptor_rows(n_res, pairs, sorted_d, cutoffs))
    return tuple(np.stack([row[j] for row in rows]) for j in range(len(_DESCRIPTORS)))


def _layout_chain_shard(
    payload: tuple, arrays: dict
) -> tuple[np.ndarray, np.ndarray]:
    """Shard: warm-started layout solves for one chain of frames.

    The chain's first frame is a cold solve (deterministic from ``seed``);
    each later frame warm-starts from the previous frame's coordinates,
    which the solver resumes at its warm-start entropy weight
    (:data:`~repro.graphkit.layout.maxent_stress.WARM_START_ALPHA`) rather
    than re-heating a near-converged embedding. Every solve seeds its own
    generator (and the Laplacian and Barnes-Hut engines draw nothing from
    it after the cold start), so the whole chain is a pure function of
    its payload — the shard→merge contract that keeps any worker count
    bit-identical to the serial twin.
    """
    topology, criterion, cutoff, dim, k, seed, params, frame_ids = payload
    coords_block = arrays["coords"]
    layouts = []
    stress = []
    prev: np.ndarray | None = None
    for f in frame_ids:
        g = build_rin(topology, coords_block[int(f)], cutoff, criterion=criterion)
        csr = g.csr()
        x = maxent_stress_layout(csr, dim, k, seed=seed, initial=prev, **params)
        layouts.append(x)
        stress.append(maxent_stress_value(csr, x, k))
        prev = x
    return np.stack(layouts), np.asarray(stress)


# ----------------------------------------------------------------------
# engines
# ----------------------------------------------------------------------
def _scan_reference(
    topology: Topology,
    frame: np.ndarray,
    cutoffs: np.ndarray,
    crit: DistanceCriterion,
    arrays: tuple[np.ndarray, ...],
) -> None:
    """Naive sweep: rebuild the RIN from scratch at every cut-off."""
    edges, comps, hub_counts, mean_deg, max_core, mean_clust = arrays
    for i, c in enumerate(cutoffs):
        g = build_rin(topology, frame, float(c), criterion=crit)
        edges[i] = g.number_of_edges()
        comps[i], _ = connected_components(g)
        hub_counts[i] = len(hubs(g))
        degs = g.degrees()
        mean_deg[i] = degs.mean() if len(degs) else 0.0
        core = core_decomposition(g, impl="reference")
        max_core[i] = core.max() if len(core) else 0
        mean_clust[i] = float(local_clustering(g).mean()) if len(degs) else 0.0


def _validated_cutoffs(cutoffs: np.ndarray | list[float]) -> np.ndarray:
    cutoffs = np.asarray(sorted(check_cutoff(c) for c in cutoffs))
    if len(cutoffs) == 0:
        raise ValueError("need at least one cutoff")
    return cutoffs


def fan_out_frames(
    trajectory,
    frame_ids: np.ndarray,
    shard_fn,
    payload_tail: tuple,
    *,
    workers: int | None,
    executor: Any | None,
    spans: list[tuple[int, int]] | None = None,
) -> list:
    """Run a frame-axis shard function over contiguous frame blocks.

    The shared fan-out used by every multi-frame workload (trajectory
    scans and the :mod:`~repro.rin.timeseries` series): the trajectory's
    coordinate block is placed in shared memory once, frames are split
    into one contiguous block per worker, and each payload is
    ``(topology, *payload_tail, frame_block)``. Results come back in
    block order; the per-call dataset is unlinked before returning.

    ``spans`` overrides the frame partition with explicit ``(lo, hi)``
    slices of ``frame_ids``. Pass this when the block boundaries carry
    semantics the result must not depend on the worker count for — e.g.
    :func:`trajectory_layout_scan`'s warm-start chains, where a chain
    boundary means a cold solve. The default partition (one block per
    worker) is only safe for shard functions whose rows are independent
    per frame.
    """
    with scoped_executor(workers, executor) as ex:
        dataset = ex.share(coords=trajectory.coordinates)
        try:
            if spans is None:
                spans = chunk_ranges(len(frame_ids), max(1, ex.workers))
            payloads = [
                (trajectory.topology, *payload_tail, frame_ids[lo:hi])
                for lo, hi in spans
                if hi > lo
            ]
            return ex.run(shard_fn, payloads, dataset)
        finally:
            dataset.close()


def scan_sorted_contacts(
    n_res: int,
    pairs: np.ndarray,
    sorted_d: np.ndarray,
    cutoffs: np.ndarray,
    *,
    executor: Any,
) -> tuple[np.ndarray, ...]:
    """Sharded descriptor sweep over a precomputed sorted contact order.

    Splits the cut-off axis into one contiguous slice per worker, shares
    the frozen contact arrays, and merges shard rows back in slice order
    (the deterministic shard→merge contract). This is the entry point for
    callers that already hold a distance matrix — e.g.
    :meth:`~repro.rin.dynamic.DynamicRIN.scan` reusing its builder cache.
    """
    dataset = executor.share(pairs=pairs, sorted_d=sorted_d)
    try:
        spans = chunk_ranges(len(cutoffs), max(1, executor.workers))
        payloads = [(n_res, cutoffs[lo:hi]) for lo, hi in spans if hi > lo]
        parts = executor.run(_cutoff_shard, payloads, dataset)
    finally:
        dataset.close()
    return tuple(
        np.concatenate([part[j] for part in parts])
        for j in range(len(_DESCRIPTORS))
    )


def cutoff_scan(
    topology: Topology,
    frame: np.ndarray,
    cutoffs: np.ndarray | list[float],
    *,
    criterion: DistanceCriterion | str = DistanceCriterion.MINIMUM,
    impl: str = "vectorized",
    workers: int | None = 0,
    executor: Any | None = None,
) -> CutoffScan:
    """Sweep cut-offs and collect topology descriptors for one frame.

    ``impl="vectorized"`` (default) computes the residue-distance matrix
    once and walks sorted-contact prefixes; ``impl="reference"`` rebuilds
    the RIN per cut-off (the naive path, kept for differential testing).

    ``workers`` shards the per-cut-off descriptor loop across the
    shared compute service's pool (``0`` = serial in-process,
    bit-identical results; ``None`` = the pool width). Pass a live
    ``executor`` (a service lease) instead to keep one lease across
    scans — the call then never closes it.
    """
    if impl not in _IMPLEMENTATIONS:
        raise ValueError(f"impl must be one of {_IMPLEMENTATIONS}, got {impl!r}")
    crit = DistanceCriterion.parse(criterion)
    cutoffs = _validated_cutoffs(cutoffs)
    if impl == "reference":
        if workers != 0 or executor is not None:
            raise ValueError("impl='reference' is the serial twin; use workers=0")
        n = len(cutoffs)
        arrays = (
            np.zeros(n, dtype=np.int64),
            np.zeros(n, dtype=np.int64),
            np.zeros(n, dtype=np.int64),
            np.zeros(n),
            np.zeros(n, dtype=np.int64),
            np.zeros(n),
        )
        _scan_reference(topology, frame, cutoffs, crit, arrays)
    else:
        with scoped_executor(workers, executor) as ex:
            dm = residue_distance_matrix(topology, frame, crit.value)
            pairs, sorted_d = sorted_contact_order(dm, min_separation=1)
            arrays = scan_sorted_contacts(
                topology.n_residues, pairs, sorted_d, cutoffs, executor=ex
            )
    return CutoffScan(crit.value, cutoffs, *arrays)


def trajectory_cutoff_scan(
    trajectory,
    cutoffs: np.ndarray | list[float],
    *,
    frames: np.ndarray | list[int] | None = None,
    criterion: DistanceCriterion | str = DistanceCriterion.MINIMUM,
    workers: int | None = 0,
    executor: Any | None = None,
) -> TrajectoryScan:
    """Cut-off scans across trajectory frames, fanned out over the pool.

    The frame axis is the shard axis: each worker owns a contiguous block
    of frames and runs the full prefix sweep per frame against the
    trajectory coordinate block, which is placed in shared memory once
    and attached zero-copy. ``workers=0`` (default) runs the identical
    shard function serially; results are bit-identical for any worker
    count. Descriptors come back as ``[frame, cutoff]`` matrices on
    :class:`TrajectoryScan`.
    """
    crit = DistanceCriterion.parse(criterion)
    cutoffs = _validated_cutoffs(cutoffs)
    frame_ids = (
        np.arange(trajectory.n_frames, dtype=np.int64)
        if frames is None
        else np.asarray(frames, dtype=np.int64)
    )
    if len(frame_ids) == 0:
        raise ValueError("need at least one frame")
    for f in frame_ids:
        trajectory.frame(int(f))  # validates the index
    parts = fan_out_frames(
        trajectory,
        frame_ids,
        _frame_shard,
        (crit.value, cutoffs),
        workers=workers,
        executor=executor,
    )
    stacked = tuple(
        np.concatenate([part[j] for part in parts])
        for j in range(len(_DESCRIPTORS))
    )
    return TrajectoryScan(crit.value, cutoffs, frame_ids, *stacked)


def trajectory_layout_scan(
    trajectory,
    cutoff: float,
    *,
    frames: np.ndarray | list[int] | None = None,
    criterion: DistanceCriterion | str = DistanceCriterion.MINIMUM,
    dim: int = 3,
    k: int = 1,
    seed: int | None = 42,
    chain_length: int = LAYOUT_CHAIN_LENGTH,
    layout_params: dict | None = None,
    workers: int | None = 0,
    executor: Any | None = None,
) -> TrajectoryLayoutScan:
    """Maxent-Stress layouts across trajectory frames, warm-started.

    The scrubbing workload: one embedding per frame at a fixed cut-off,
    so an :class:`~repro.core.pipeline.AsyncUpdatePipeline` frame switch
    (or an exported animation) never pays a layout solve interactively.
    Frames are solved in **ascending frame order** and partitioned into
    fixed ``chain_length`` warm-start chains: the first frame of a chain
    is a cold solve, every later frame warm-starts from its
    predecessor's coordinates (the solver's warm-start rule resumes the
    anneal at :data:`~repro.graphkit.layout.maxent_stress.WARM_START_ALPHA`).
    Chains are the shard payloads, so the partition — and therefore
    every float — is independent of ``workers``; and because the frame
    order is canonicalized, scrubbing a trajectory forward or backward
    yields bit-identical per-frame layouts. ``layout_params`` forwards
    extra :func:`~repro.graphkit.layout.maxent_stress_layout` keywords
    (``impl``, ``repulsion_theta``, schedule knobs) to every solve.
    """
    crit = DistanceCriterion.parse(criterion)
    cutoff = check_cutoff(cutoff)
    if chain_length < 1:
        raise ValueError(f"chain_length must be >= 1, got {chain_length}")
    frame_ids = (
        np.arange(trajectory.n_frames, dtype=np.int64)
        if frames is None
        else np.asarray(frames, dtype=np.int64)
    )
    if len(frame_ids) == 0:
        raise ValueError("need at least one frame")
    for f in frame_ids:
        trajectory.frame(int(f))  # validates the index
    params = dict(layout_params or {})
    for reserved in ("initial", "seed"):
        if reserved in params:
            raise ValueError(f"layout_params may not override {reserved!r}")
    # Canonical solve order: ascending unique frames, chained in fixed
    # lengths. The requested order (forward, backward, arbitrary scrub
    # sequence) only affects how results are gathered at the end.
    unique = np.unique(frame_ids)
    spans = [
        (lo, min(lo + chain_length, len(unique)))
        for lo in range(0, len(unique), chain_length)
    ]
    parts = fan_out_frames(
        trajectory,
        unique,
        _layout_chain_shard,
        (crit.value, float(cutoff), dim, k, seed, params),
        workers=workers,
        executor=executor,
        spans=spans,
    )
    coords = np.concatenate([p[0] for p in parts])
    stress = np.concatenate([p[1] for p in parts])
    cold = np.zeros(len(unique), dtype=bool)
    cold[::chain_length] = True
    rows = np.searchsorted(unique, frame_ids)
    return TrajectoryLayoutScan(
        cutoff=float(cutoff),
        criterion=crit.value,
        frames=frame_ids,
        coordinates=coords[rows],
        stress=stress[rows],
        cold=cold[rows],
    )


def criterion_comparison(
    topology: Topology,
    frame: np.ndarray,
    *,
    target_mean_degree: float = 8.0,
    candidates: np.ndarray | None = None,
    impl: str = "vectorized",
) -> dict[str, dict[str, float]]:
    """Compare the three criteria at matched density (§IV's observation
    that the criterion choice changes which features are emphasized).

    For each criterion, finds the scanned cut-off whose mean degree is
    closest to ``target_mean_degree`` and reports the topology there —
    so differences reflect *structure*, not density.
    """
    if candidates is None:
        candidates = np.arange(2.5, 14.1, 0.5)
    out: dict[str, dict[str, float]] = {}
    for crit in DistanceCriterion:
        scan = cutoff_scan(topology, frame, candidates, criterion=crit, impl=impl)
        idx = int(np.argmin(np.abs(scan.mean_degree - target_mean_degree)))
        out[crit.value] = {
            "cutoff": float(scan.cutoffs[idx]),
            "edges": float(scan.edges[idx]),
            "components": float(scan.components[idx]),
            "hubs": float(scan.hubs[idx]),
            "max_coreness": float(scan.max_coreness[idx]),
            "mean_clustering": float(scan.mean_clustering[idx]),
        }
    return out
