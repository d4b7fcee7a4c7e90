"""Unit tests for residue-distance kernels + contact extraction."""

import numpy as np
import pytest

from repro.md import (
    Topology,
    ca_distance_matrix,
    com_distance_matrix,
    contact_pairs,
    min_distance_matrix,
    proteins,
    residue_distance_matrix,
)


@pytest.fixture(scope="module")
def a3d():
    return proteins.build("A3D")


class TestDistanceMatrices:
    @pytest.mark.parametrize("criterion", ["ca", "com", "min"])
    def test_symmetric_zero_diagonal(self, a3d, criterion):
        topo, coords = a3d
        dm = residue_distance_matrix(topo, coords, criterion)
        assert dm.shape == (73, 73)
        assert np.allclose(dm, dm.T)
        assert np.allclose(np.diag(dm), 0.0)

    def test_min_le_ca(self, a3d):
        # The CA pair is one of the atom pairs the min ranges over, so
        # min-distance can never exceed CA distance. (No such bound holds
        # for COM: the centre of mass need not coincide with any atom.)
        topo, coords = a3d
        d_min = min_distance_matrix(topo, coords)
        d_ca = ca_distance_matrix(topo, coords)
        off = ~np.eye(73, dtype=bool)
        assert (d_min[off] <= d_ca[off] + 1e-9).all()

    def test_criteria_correlate(self, a3d):
        # All three criteria measure the same geometry: strongly correlated.
        topo, coords = a3d
        off = ~np.eye(73, dtype=bool)
        d_min = min_distance_matrix(topo, coords)[off]
        d_ca = ca_distance_matrix(topo, coords)[off]
        d_com = com_distance_matrix(topo, coords)[off]
        assert np.corrcoef(d_min, d_ca)[0, 1] > 0.9
        assert np.corrcoef(d_com, d_ca)[0, 1] > 0.9

    def test_min_matches_bruteforce(self):
        topo = Topology.from_sequence("GAV")
        rng = np.random.default_rng(0)
        coords = rng.random((topo.n_atoms, 3)) * 10
        dm = min_distance_matrix(topo, coords)
        for i, (si, ei) in enumerate(topo.residue_atom_slices()):
            for j, (sj, ej) in enumerate(topo.residue_atom_slices()):
                brute = min(
                    np.linalg.norm(coords[a] - coords[b])
                    for a in range(si, ei)
                    for b in range(sj, ej)
                )
                assert dm[i, j] == pytest.approx(brute)

    def test_com_matches_bruteforce(self):
        topo = Topology.from_sequence("GA")
        rng = np.random.default_rng(1)
        coords = rng.random((topo.n_atoms, 3)) * 5
        masses = topo.atom_masses()
        slices = topo.residue_atom_slices()
        coms = []
        for s, e in slices:
            w = masses[s:e]
            coms.append((coords[s:e] * w[:, None]).sum(axis=0) / w.sum())
        expected = np.linalg.norm(coms[0] - coms[1])
        assert com_distance_matrix(topo, coords)[0, 1] == pytest.approx(expected)

    def test_sequence_neighbors_close(self, a3d):
        topo, coords = a3d
        d_ca = ca_distance_matrix(topo, coords)
        chain = np.array([d_ca[i, i + 1] for i in range(72)])
        assert chain.max() < 8.0

    def test_unknown_criterion(self, a3d):
        topo, coords = a3d
        with pytest.raises(ValueError):
            residue_distance_matrix(topo, coords, "typo")


class TestContactPairs:
    def test_monotone_in_cutoff(self, a3d):
        topo, coords = a3d
        dm = min_distance_matrix(topo, coords)
        counts = [len(contact_pairs(dm, c)) for c in (3.0, 4.5, 6.0, 8.0, 10.0)]
        assert counts == sorted(counts)

    def test_canonical_order(self, a3d):
        topo, coords = a3d
        pairs = contact_pairs(min_distance_matrix(topo, coords), 5.0)
        assert (pairs[:, 0] < pairs[:, 1]).all()

    def test_sequence_separation_filter(self, a3d):
        topo, coords = a3d
        dm = min_distance_matrix(topo, coords)
        all_pairs = contact_pairs(dm, 10.0, min_sequence_separation=1)
        no_chain = contact_pairs(dm, 10.0, min_sequence_separation=2)
        assert len(no_chain) < len(all_pairs)
        assert (np.abs(no_chain[:, 0] - no_chain[:, 1]) >= 2).all()

    def test_invalid_cutoff(self, a3d):
        topo, coords = a3d
        dm = min_distance_matrix(topo, coords)
        with pytest.raises(ValueError):
            contact_pairs(dm, 0.0)

    def test_paper_edge_count_bands(self):
        """Edge counts at the paper's cut-offs land in the reported bands.

        Paper (Fig. 6): A3D-0 245@3Å/989@10Å, 2JOF-0 47/160, NTL9-0 111/485.
        Synthetic structures must land within 2x of every value (the
        criterion ``repro.md.proteins`` states for substituting them);
        most are far closer.
        """
        bands = {"A3D": (245, 989), "2JOF": (47, 160), "NTL9": (111, 485)}
        for name, (e3_ref, e10_ref) in bands.items():
            topo, coords = proteins.build(name)
            dm = min_distance_matrix(topo, coords)
            e3 = len(contact_pairs(dm, 3.0))
            e10 = len(contact_pairs(dm, 10.0))
            assert e3_ref / 2 <= e3 <= e3_ref * 2, (name, e3)
            assert e10_ref / 2 <= e10 <= e10_ref * 2, (name, e10)


class TestFrameValidation:
    """A frame that does not fit the topology raises instead of yielding a
    plausible matrix over the wrong atoms."""

    @pytest.fixture(scope="class")
    def trp(self):
        return proteins.build("2JOF")

    @pytest.mark.parametrize("criterion", ["ca", "com", "min"])
    @pytest.mark.parametrize("delta", [-3, 5])
    def test_wrong_atom_count(self, trp, criterion, delta):
        topo, coords = trp
        frame = np.resize(coords, (topo.n_atoms + delta, 3))
        with pytest.raises(ValueError, match=f"\\({topo.n_atoms}, 3\\)"):
            residue_distance_matrix(topo, frame, criterion)

    def test_wrong_dimension(self, trp):
        topo, coords = trp
        with pytest.raises(ValueError, match="shape"):
            residue_distance_matrix(topo, coords[:, :2])

    @pytest.mark.parametrize("criterion", ["ca", "com", "min"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_atom(self, trp, criterion, bad):
        topo, coords = trp
        frame = coords.copy()
        frame[17, 1] = bad
        with pytest.raises(ValueError, match="atom 17"):
            residue_distance_matrix(topo, frame, criterion)

    def test_nan_frame_rejected_by_build_rin_and_cutoff_scan(self, trp):
        from repro.rin import build_rin, cutoff_scan

        topo, coords = trp
        frame = coords.copy()
        frame[5, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            build_rin(topo, frame, 6.0)
        with pytest.raises(ValueError, match="non-finite"):
            cutoff_scan(topo, frame, [4.0, 6.0])
