"""Unit tests for cut-off scanning and criterion comparison."""

import numpy as np
import pytest

from repro.md import proteins
from repro.rin import criterion_comparison, cutoff_scan


@pytest.fixture(scope="module")
def a3d():
    return proteins.build("A3D")


class TestCutoffScan:
    def test_shapes_aligned(self, a3d):
        topo, coords = a3d
        scan = cutoff_scan(topo, coords, [3.0, 4.5, 6.0, 8.0])
        assert len(scan.cutoffs) == 4
        for arr in (scan.edges, scan.components, scan.hubs,
                    scan.mean_degree, scan.max_coreness,
                    scan.mean_clustering):
            assert len(arr) == 4

    def test_edges_monotone(self, a3d):
        topo, coords = a3d
        scan = cutoff_scan(topo, coords, [3.0, 5.0, 7.0, 10.0])
        assert (np.diff(scan.edges) >= 0).all()

    def test_components_decrease(self, a3d):
        topo, coords = a3d
        scan = cutoff_scan(topo, coords, [2.0, 4.0, 8.0])
        assert (np.diff(scan.components) <= 0).all()

    def test_coreness_monotone(self, a3d):
        topo, coords = a3d
        scan = cutoff_scan(topo, coords, [3.0, 6.0, 10.0])
        assert (np.diff(scan.max_coreness) >= 0).all()

    def test_cutoffs_sorted_regardless_of_input(self, a3d):
        topo, coords = a3d
        scan = cutoff_scan(topo, coords, [8.0, 3.0, 5.0])
        assert scan.cutoffs.tolist() == [3.0, 5.0, 8.0]

    def test_percolation_cutoff(self, a3d):
        topo, coords = a3d
        scan = cutoff_scan(topo, coords, [2.0, 3.0, 4.5, 6.0])
        threshold = scan.percolation_cutoff()
        assert not np.isnan(threshold)
        # At the percolation cut-off the graph has a single component.
        idx = scan.cutoffs.tolist().index(threshold)
        assert scan.components[idx] == 1

    def test_percolation_nan_when_never_connected(self, a3d):
        topo, coords = a3d
        scan = cutoff_scan(topo, coords, [1.0])  # nothing but chain gaps
        assert np.isnan(scan.percolation_cutoff())

    def test_rows_for_reporting(self, a3d):
        topo, coords = a3d
        scan = cutoff_scan(topo, coords, [4.5])
        rows = scan.rows()
        assert len(rows) == 1
        assert rows[0][0] == "4.50"

    def test_empty_cutoffs_rejected(self, a3d):
        topo, coords = a3d
        with pytest.raises(ValueError):
            cutoff_scan(topo, coords, [])

    @pytest.mark.parametrize("bad", [0.0, float("nan"), float("inf")])
    def test_bad_cutoff_rejected(self, a3d, bad):
        topo, coords = a3d
        with pytest.raises(ValueError, match="positive"):
            cutoff_scan(topo, coords, [4.0, bad])

    def test_hub_counts_vary_with_cutoff(self, a3d):
        # §IV: cut-off changes "drastically alter" hub structure.
        topo, coords = a3d
        scan = cutoff_scan(topo, coords, [3.0, 10.0])
        assert scan.mean_degree[1] > 2 * scan.mean_degree[0]


class TestCriterionComparison:
    def test_all_criteria_reported(self, a3d):
        topo, coords = a3d
        cmp = criterion_comparison(
            topo, coords, target_mean_degree=8.0,
            candidates=np.arange(3.0, 12.1, 1.0),
        )
        assert set(cmp) == {"ca", "com", "min"}
        for stats in cmp.values():
            assert stats["edges"] > 0

    def test_min_needs_smaller_cutoff_than_ca(self, a3d):
        # Minimum distance reaches contacts earlier than C-alpha distance,
        # so equal density occurs at a smaller cut-off (domain fact from
        # the §IV literature: 4-5 Å for min vs 6-8.5 Å for ca).
        topo, coords = a3d
        cmp = criterion_comparison(
            topo, coords, target_mean_degree=8.0,
            candidates=np.arange(3.0, 12.1, 0.5),
        )
        assert cmp["min"]["cutoff"] < cmp["ca"]["cutoff"]
