"""Per-frame RIN feature time series (paper §V: explore "how the RIN
topology and corresponding network measures change over time").

These are the arrays a downstream ML pipeline (paper §VII) would consume:
for every trajectory frame, the node-score vector of a measure, plus
topology summaries (edge count, components, mean degree).

Both series builders accept ``workers=`` / ``executor=``: frames are the
shard axis, the trajectory coordinate block is placed in shared memory
once, and each pool worker computes its contiguous frame block against a
zero-copy view (see ``docs/ARCHITECTURE.md``, *The sharded scanning
engine*). ``workers=0`` (default) runs the same shard functions serially
in-process — results are bit-identical for any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from ..graphkit.components import connected_components
from ..graphkit.csr import CSRGraph
from ..graphkit.kernels import core_numbers
from ..md.distances import contact_pairs, residue_distance_matrix
from ..md.trajectory import Trajectory
from .criteria import DistanceCriterion, check_cutoff
from .measures import get_measure
from .scanning import fan_out_frames

__all__ = ["MeasureSeries", "measure_over_trajectory", "topology_over_trajectory"]


@dataclass(frozen=True)
class MeasureSeries:
    """Scores of one measure across frames: ``values[f, u]``."""

    measure: str
    cutoff: float
    values: np.ndarray  # (n_frames, n_residues)

    @property
    def n_frames(self) -> int:
        """Number of frames covered."""
        return self.values.shape[0]

    def per_residue_mean(self) -> np.ndarray:
        """Time-averaged score per residue."""
        return self.values.mean(axis=0)

    def per_residue_std(self) -> np.ndarray:
        """Temporal variability per residue."""
        return self.values.std(axis=0)

    def most_variable(self, k: int = 5) -> np.ndarray:
        """Residues whose score fluctuates the most."""
        return np.argsort(-self.per_residue_std())[:k].astype(np.int64)


def _frame_csr(
    topology, coords: np.ndarray, cutoff: float, criterion: str
) -> CSRGraph:
    """The RIN CSR snapshot of one frame (worker-side construction)."""
    dm = residue_distance_matrix(topology, coords, criterion)
    pairs = contact_pairs(dm, cutoff)
    return CSRGraph.from_unique_edge_array(topology.n_residues, pairs)


def _measure_shard(payload: tuple, arrays: dict) -> np.ndarray:
    """Shard: one measure's score rows for a contiguous frame block."""
    topology, criterion, cutoff, measure_name, frame_ids = payload
    m = get_measure(measure_name)
    coords = arrays["coords"]
    out = np.empty((len(frame_ids), topology.n_residues))
    for row, f in enumerate(frame_ids):
        out[row] = m(_frame_csr(topology, coords[int(f)], cutoff, criterion))
    return out


def _topology_shard(payload: tuple, arrays: dict) -> tuple[np.ndarray, ...]:
    """Shard: per-frame topology summaries for a contiguous frame block.

    Each frame's RIN is built afresh and summarised by one connected
    components pass and one core-number peel. Consecutive frames differ
    in edge removals as well as insertions, where a per-frame recompute
    is faster than carrying delta-maintained state across the block.
    Every summary is an exact function of the frame's edge set, so shard
    boundaries never show in the series.
    """
    topology, criterion, cutoff, frame_ids = payload
    coords = arrays["coords"]
    k = len(frame_ids)
    edges = np.empty(k, dtype=np.int64)
    comps = np.empty(k, dtype=np.int64)
    mean_degree = np.empty(k)
    max_coreness = np.empty(k, dtype=np.int64)
    for row, f in enumerate(frame_ids):
        csr = _frame_csr(topology, coords[int(f)], cutoff, criterion)
        edges[row] = csr.number_of_edges()
        comps[row], _ = connected_components(csr)
        degs = csr.degrees()
        mean_degree[row] = degs.mean() if len(degs) else 0.0
        max_coreness[row] = core_numbers(csr).max() if len(degs) else 0
    return edges, comps, mean_degree, max_coreness


def measure_over_trajectory(
    trajectory: Trajectory,
    measure: str,
    cutoff: float,
    *,
    criterion: DistanceCriterion | str = DistanceCriterion.MINIMUM,
    frames: np.ndarray | None = None,
    workers: int | None = 0,
    executor: Any | None = None,
) -> MeasureSeries:
    """Compute one measure on the RIN of every (selected) frame.

    ``workers`` fans the frame loop out across the shared compute
    service's pool (``0`` = serial, ``None`` = the pool width); pass a
    live ``executor`` (a service lease) to keep one lease across series.
    """
    get_measure(measure)  # validates the name before any fan-out
    crit = DistanceCriterion.parse(criterion)
    frame_ids = (
        np.arange(trajectory.n_frames, dtype=np.int64)
        if frames is None
        else np.asarray(frames, dtype=np.int64)
    )
    for f in frame_ids:
        trajectory.frame(int(f))  # validates the index
    parts = fan_out_frames(
        trajectory,
        frame_ids,
        _measure_shard,
        (crit.value, float(cutoff), measure),
        workers=workers,
        executor=executor,
    )
    return MeasureSeries(
        measure=measure, cutoff=cutoff, values=np.concatenate(parts)
    )


def topology_over_trajectory(
    trajectory: Trajectory,
    cutoff: float,
    *,
    criterion: DistanceCriterion | str = DistanceCriterion.MINIMUM,
    workers: int | None = 0,
    executor: Any | None = None,
) -> dict[str, np.ndarray]:
    """Per-frame topology summaries: edges, components, mean degree,
    max coreness.

    The §IV observation "changes in the distance cut-off can drastically
    alter the RIN topology, e.g. influencing the number of hubs and
    connected components" made quantitative along the time axis. Each
    frame is summarised from its own CSR snapshot. ``workers`` /
    ``executor`` fan the frame loop across the process pool exactly as in
    :func:`measure_over_trajectory`.
    """
    cutoff = check_cutoff(cutoff)
    crit = DistanceCriterion.parse(criterion)
    frame_ids = np.arange(trajectory.n_frames, dtype=np.int64)
    parts = fan_out_frames(
        trajectory,
        frame_ids,
        _topology_shard,
        (crit.value, float(cutoff)),
        workers=workers,
        executor=executor,
    )
    return {
        "edges": np.concatenate([p[0] for p in parts]),
        "components": np.concatenate([p[1] for p in parts]),
        "mean_degree": np.concatenate([p[2] for p in parts]),
        "max_coreness": np.concatenate([p[3] for p in parts]),
    }
