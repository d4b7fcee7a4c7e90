"""Differential tests for the vectorized RIN scanning and diffing paths."""

import numpy as np
import pytest

from repro.md import proteins
from repro.rin import DynamicRIN, cutoff_scan
from repro.rin.criteria import DistanceCriterion


@pytest.fixture(scope="module")
def a3d():
    return proteins.build("A3D")


def assert_scans_equal(fast, slow):
    assert fast.criterion == slow.criterion
    assert fast.cutoffs.tolist() == slow.cutoffs.tolist()
    assert fast.edges.tolist() == slow.edges.tolist()
    assert fast.components.tolist() == slow.components.tolist()
    assert fast.hubs.tolist() == slow.hubs.tolist()
    assert fast.max_coreness.tolist() == slow.max_coreness.tolist()
    assert np.allclose(fast.mean_degree, slow.mean_degree)
    assert np.allclose(fast.mean_clustering, slow.mean_clustering)


class TestCutoffScanDifferential:
    @pytest.mark.parametrize("criterion", list(DistanceCriterion))
    def test_matches_reference_per_criterion(self, a3d, criterion):
        topo, coords = a3d
        cutoffs = [3.0, 4.5, 6.0, 9.0]
        fast = cutoff_scan(topo, coords, cutoffs, criterion=criterion)
        slow = cutoff_scan(
            topo, coords, cutoffs, criterion=criterion, impl="reference"
        )
        assert_scans_equal(fast, slow)

    def test_single_cutoff(self, a3d):
        topo, coords = a3d
        fast = cutoff_scan(topo, coords, [4.5])
        slow = cutoff_scan(topo, coords, [4.5], impl="reference")
        assert_scans_equal(fast, slow)

    def test_edgeless_regime(self, a3d):
        # Below any heavy-atom contact distance the RIN has no edges at all.
        topo, coords = a3d
        fast = cutoff_scan(topo, coords, [0.1])
        slow = cutoff_scan(topo, coords, [0.1], impl="reference")
        assert fast.edges[0] == 0
        assert_scans_equal(fast, slow)

    def test_invalid_impl_rejected(self, a3d):
        topo, coords = a3d
        with pytest.raises(ValueError):
            cutoff_scan(topo, coords, [4.5], impl="bogus")


class TestDynamicRINDifferential:
    def test_update_sequence_matches_reference(self, a3d_traj):
        fast = DynamicRIN(a3d_traj, frame=0, cutoff=4.5)
        slow = DynamicRIN(a3d_traj, frame=0, cutoff=4.5, impl="reference")
        moves = [
            ("cutoff", 7.0),
            ("frame", 5),
            ("cutoff", 3.5),
            ("frame", 11),
            ("cutoff", 10.0),
        ]
        for kind, value in moves:
            if kind == "cutoff":
                uf, us = fast.set_cutoff(value), slow.set_cutoff(value)
            else:
                uf, us = fast.set_frame(value), slow.set_frame(value)
            assert (uf.added, uf.removed) == (us.added, us.removed)
            assert fast.csr.edge_set() == slow.csr.edge_set()

    def test_set_state_matches_reference(self, trp_traj):
        fast = DynamicRIN(trp_traj, frame=0, cutoff=5.0)
        slow = DynamicRIN(trp_traj, frame=0, cutoff=5.0, impl="reference")
        uf = fast.set_state(frame=3, cutoff=8.0)
        us = slow.set_state(frame=3, cutoff=8.0)
        assert (uf.added, uf.removed) == (us.added, us.removed)
        assert fast.csr.edge_set() == slow.csr.edge_set()

    def test_diff_to_empty_and_back(self, a3d_traj):
        rin = DynamicRIN(a3d_traj, frame=0, cutoff=4.5)
        m0 = rin.csr.number_of_edges()
        update = rin.set_cutoff(0.1)  # below any contact: all edges removed
        assert update.removed == m0 and rin.csr.number_of_edges() == 0
        update = rin.set_cutoff(4.5)
        assert update.added == m0
        ref = DynamicRIN(a3d_traj, frame=0, cutoff=4.5, impl="reference")
        assert rin.csr.edge_set() == ref.csr.edge_set()

    def test_invalid_impl_rejected(self, a3d_traj):
        with pytest.raises(ValueError):
            DynamicRIN(a3d_traj, cutoff=4.5, impl="bogus")
