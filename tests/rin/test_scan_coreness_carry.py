"""Scan-path coreness carry-forward pinned against per-cutoff full peels.

The Fig. 7 scan walk now carries core numbers forward along
sorted-contact prefixes through the incremental measure engine (exactly
as connectivity already was). These tests pin:

* the full per-cutoff core arrays of a forced-incremental engine walk
  against a fresh ``core_numbers`` peel of every prefix CSR;
* ``cutoff_scan``'s ``max_coreness`` column against per-cutoff
  ``core_decomposition`` results, for ``workers ∈ {0, 1, 8}``;
* ``DynamicRIN.scan`` against recomputes off the RIN's snapshot, and
  the reference diff engine against the vectorized one;
* the ``max_coreness`` series of ``topology_over_trajectory`` against
  per-frame peels, serial and sharded.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphkit import connected_components, core_decomposition
from repro.graphkit.csr import CSRDelta, CSRSnapshotBuffer, pack_edge_keys
from repro.graphkit.incremental import IncrementalMeasures
from repro.graphkit.kernels import core_numbers, sorted_contact_order
from repro.md.distances import residue_distance_matrix
from repro.rin import DynamicRIN, cutoff_scan, topology_over_trajectory

CUTOFFS = [3.0 + 0.4 * i for i in range(14)]
FINE_CUTOFFS = [4.0 + 0.02 * i for i in range(40)]


@pytest.fixture(scope="module")
def contact_order(a3d_traj):
    dm = residue_distance_matrix(a3d_traj.topology, a3d_traj.frame(0), "min")
    pairs, sorted_d = sorted_contact_order(dm, min_separation=1)
    return a3d_traj.topology.n_residues, pairs, sorted_d


class TestPrefixWalkCoreness:
    @pytest.mark.parametrize("threshold", [None, 10**9], ids=["auto", "forced-repair"])
    def test_engine_walk_matches_full_peel_per_prefix(self, contact_order, threshold):
        """Carry-forward core arrays equal a fresh peel at every cut-off."""
        n, pairs, sorted_d = contact_order
        prefix = np.searchsorted(sorted_d, np.asarray(FINE_CUTOFFS), side="right")
        snapshots = CSRSnapshotBuffer(n)
        engine = IncrementalMeasures(n, repair_threshold=threshold)
        no_removals = np.empty(0, dtype=np.int64)
        prev = 0
        for m in prefix:
            delta = CSRDelta(
                n, pack_edge_keys(n, pairs[prev:m]), no_removals
            )
            csr = snapshots.apply(delta)
            engine.apply(delta, csr)
            prev = m
            assert np.array_equal(engine.core_numbers(), core_numbers(csr))


class TestCutoffScanMaxCoreness:
    @pytest.mark.parametrize("workers", [0, 1, 8])
    def test_matches_per_cutoff_core_decomposition(self, a3d_traj, workers):
        topo, coords = a3d_traj.topology, a3d_traj.frame(0)
        scan = cutoff_scan(topo, coords, CUTOFFS, workers=workers)
        n, pairs, sorted_d = (
            topo.n_residues,
            *sorted_contact_order(
                residue_distance_matrix(topo, coords, "min"), min_separation=1
            ),
        )
        from repro.graphkit.csr import CSRGraph

        for i, c in enumerate(scan.cutoffs):
            m = int(np.searchsorted(sorted_d, c, side="right"))
            csr = CSRGraph.from_unique_edge_array(n, pairs[:m])
            core = core_decomposition(csr)
            assert scan.max_coreness[i] == (core.max() if len(core) else 0)

    def test_workers_bit_identical_fine_grid(self, a3d_traj):
        """Fine grids take the bounded-repair path; shards cannot show."""
        topo, coords = a3d_traj.topology, a3d_traj.frame(0)
        serial = cutoff_scan(topo, coords, FINE_CUTOFFS, workers=0)
        for workers in (1, 8):
            sharded = cutoff_scan(topo, coords, FINE_CUTOFFS, workers=workers)
            assert np.array_equal(sharded.max_coreness, serial.max_coreness)
            assert np.array_equal(sharded.components, serial.components)
            assert np.array_equal(sharded.mean_degree, serial.mean_degree)


class TestDynamicRINMaintainedReads:
    def test_reads_consistent_with_scan_column(self, a3d_traj):
        rin = DynamicRIN(a3d_traj, frame=2, cutoff=5.0)
        scan = rin.scan([5.0])
        count, _ = connected_components(rin.csr)
        assert scan.components[0] == count
        assert scan.max_coreness[0] == core_numbers(rin.csr).max()
        assert scan.edges[0] == rin.n_edges

    def test_reference_engine_matches_vectorized(self, a3d_traj):
        fast = DynamicRIN(a3d_traj, frame=0, cutoff=4.5)
        ref = DynamicRIN(a3d_traj, frame=0, cutoff=4.5, impl="reference")
        for c in (5.0, 4.2, 6.5):
            fast.set_cutoff(c)
            ref.set_cutoff(c)
            assert fast.csr.edge_set() == ref.csr.edge_set()


class TestTimeseriesMaxCoreness:
    def test_series_matches_per_frame_peel(self, a3d_traj):
        series = topology_over_trajectory(a3d_traj, 4.5, workers=0)
        assert "max_coreness" in series
        from repro.rin import build_rin

        for f in range(a3d_traj.n_frames):
            g = build_rin(a3d_traj.topology, a3d_traj.frame(f), 4.5)
            core = core_decomposition(g)
            assert series["max_coreness"][f] == (core.max() if len(core) else 0)

    @pytest.mark.parametrize("workers", [2, 8])
    def test_sharded_series_bit_identical(self, a3d_traj, workers):
        serial = topology_over_trajectory(a3d_traj, 4.5, workers=0)
        sharded = topology_over_trajectory(a3d_traj, 4.5, workers=workers)
        for key, arr in serial.items():
            assert np.array_equal(arr, sharded[key]), key
